// Command polarisvet is the repo's custom multichecker: a suite of
// go/analysis-style passes (internal/lint) that mechanize the normative
// prose contracts — cross-DOP byte-identity determinism, the
// selection-vector aliasing rules, the spill-namespace cleanup invariant,
// and the fan-out cancellation contract — plus a bundled nilness pass (the
// one upstream check `go vet` does not run by default). See docs/LINT.md for
// the analyzer catalog and annotation grammar.
//
// Usage:
//
//	polarisvet [-analyzers name,name] [-list] [packages]
//
// With no packages, ./... is checked. Exit status is 1 when findings are
// reported, 2 on usage or load errors. `make lint` runs
// `go run ./cmd/polarisvet ./...` on every push.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"polaris/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("polarisvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "print the analyzer registry and exit")
	only := fs.String("analyzers", "", "comma-separated subset of analyzers to run (default: all; disables the stale-annotation check)")
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	registry := lint.Registry()
	if *list {
		for _, a := range registry {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	selected := registry
	if *only != "" {
		byName := map[string]*lint.Analyzer{}
		for _, a := range registry {
			byName[a.Name] = a
		}
		selected = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(stderr, "polarisvet: unknown analyzer %q (try -list)\n", name)
				return 2
			}
			selected = append(selected, a)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "polarisvet: %v\n", err)
		return 2
	}

	var diags []lint.Diagnostic
	for _, pkg := range pkgs {
		var applicable []*lint.Analyzer
		ran := map[string]bool{}
		for _, a := range selected {
			if a.AppliesTo == nil || a.AppliesTo(pkg.PkgPath) {
				applicable = append(applicable, a)
				ran[a.Name] = true
			}
		}
		diags = append(diags, lint.RunAnalyzers(pkg, applicable)...)
		if *only == "" {
			// Stale-annotation detection needs every consumer of a key to
			// have run, so it is skipped for subset runs.
			diags = append(diags, lint.StaleAnnotations(pkg, ran)...)
		}
	}
	lint.SortDiagnostics(diags)
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "polarisvet: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		return 1
	}
	return 0
}
