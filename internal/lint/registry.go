package lint

// Registry returns every analyzer in the polarisvet multichecker, in the
// order findings group best: custom contract passes first, the bundled
// upstream-style pass after, annotation hygiene last. cmd/doccheck
// verifies docs/LINT.md lists exactly these names, and cmd/polarisvet
// -list prints them.
func Registry() []*Analyzer {
	return []*Analyzer{
		DetMapOrder,
		NondetSource,
		SelAware,
		SpillCleanup,
		CtxBoundary,
		NilnessLite,
		Annotations,
	}
}
