package lint_test

import (
	"testing"

	"polaris/internal/lint"
	"polaris/internal/lint/linttest"
)

// TestGolden runs each analyzer over its testdata package and checks the
// findings against the // want comments: positive hits, annotation escapes,
// and the safe idioms each analyzer must accept.
func TestGolden(t *testing.T) {
	cases := []struct {
		dir       string
		analyzers []*lint.Analyzer
	}{
		{"detmaporder", []*lint.Analyzer{lint.DetMapOrder}},
		{"nondetsource", []*lint.Analyzer{lint.NondetSource}},
		{"selaware", []*lint.Analyzer{lint.SelAware}},
		{"spillcleanup", []*lint.Analyzer{lint.SpillCleanup}},
		{"ctxboundary", []*lint.Analyzer{lint.CtxBoundary}},
		{"upstream", []*lint.Analyzer{lint.NilnessLite}},
		{"annotations", []*lint.Analyzer{lint.Annotations}},
		{"stale", []*lint.Analyzer{lint.DetMapOrder}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.dir, func(t *testing.T) {
			t.Parallel()
			linttest.Run(t, "./testdata/src/"+tc.dir, tc.analyzers...)
		})
	}
}

// TestGoldenClean runs the full registry over the negative-control package:
// zero findings expected (the package has no want comments, so any finding
// fails the harness).
func TestGoldenClean(t *testing.T) {
	linttest.Run(t, "./testdata/src/clean", lint.Registry()...)
}

// TestGoldenInjected pins the acceptance case at the analyzer level: the
// injected unsorted-map-iteration package must produce a detmaporder
// finding, and its import-path suffix must put it in detmaporder's scope
// exactly like the real internal/exec.
func TestGoldenInjected(t *testing.T) {
	pkgs, err := lint.Load("./testdata/src/injected/internal/exec")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	if !lint.DetMapOrder.AppliesTo(pkg.PkgPath) {
		t.Fatalf("detmaporder does not apply to %s; driver scoping would skip the injected regression", pkg.PkgPath)
	}
	diags := lint.RunAnalyzers(pkg, []*lint.Analyzer{lint.DetMapOrder})
	if len(diags) != 1 {
		t.Fatalf("got %d findings, want exactly 1: %v", len(diags), diags)
	}
}
