// Package upstream exercises polarisvet's bundled upstream-style pass,
// nilness. (lostcancel, copylocks and atomic are go vet's job: `make lint`
// runs `go vet ./...`.)
package upstream

type guarded struct {
	n int
}

// Describe dereferences inside the nil branch: flagged.
func Describe(g *guarded) int {
	if g == nil {
		return g.n // want "nil dereference: g is nil in this branch"
	}
	return g.n
}

// Fallback reassigns before dereferencing: not flagged.
func Fallback(g *guarded) int {
	if g == nil {
		g = &guarded{}
	}
	return g.n
}
