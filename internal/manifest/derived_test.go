package manifest

import (
	"fmt"
	"sync"
	"testing"

	"polaris/internal/colfile"
)

// TestDerivedStateIsMemoizedAndReset: LiveFiles and Sketches are computed once
// per state and shared, Apply on a state still being built drops them, and a
// successor computes its own.
func TestDerivedStateIsMemoizedAndReset(t *testing.T) {
	sk := func(lo, hi int64) []colfile.ColSketch {
		v := colfile.NewVec(colfile.Int64)
		v.AppendInt(lo)
		v.AppendInt(hi)
		var s colfile.ColSketch
		s.Observe(v)
		return []colfile.ColSketch{s}
	}
	add := func(path string, lo, hi int64) Action {
		a := addData(path, 2)
		a.Sketches = sk(lo, hi)
		return a
	}
	s := NewTableState()
	must(t, s.Apply(1, []Action{add("b", 5, 9), add("a", 1, 3)}))
	live := s.LiveFiles()
	if len(live) != 2 || live[0].Path != "a" || &s.LiveFiles()[0] != &live[0] {
		t.Fatalf("LiveFiles = %v: not sorted, or not kept", live)
	}
	merged, ok := s.Sketches(1)
	if !ok || merged[0].Rows != 4 || *merged[0].Stats.MinInt != 1 || *merged[0].Stats.MaxInt != 9 {
		t.Fatalf("Sketches = %+v, %v", merged, ok)
	}
	if again, _ := s.Sketches(1); &again[0] != &merged[0] {
		t.Fatal("Sketches folded twice")
	}
	if _, ok := s.Sketches(2); ok {
		t.Fatal("a fold for another column count reused this one")
	}

	must(t, s.Apply(2, []Action{add("c", 20, 30)})) // still being built
	if live := s.LiveFiles(); len(live) != 3 {
		t.Fatalf("Apply kept the stale live files: %v", live)
	}
	if merged, _ := s.Sketches(1); *merged[0].Stats.MaxInt != 30 {
		t.Fatalf("Apply kept the stale fold: %+v", merged)
	}
	next, err := s.next(3, []Action{removeData("c"), addData("d", 1)})
	must(t, err)
	if _, ok := next.Sketches(1); ok {
		t.Fatal("a file without sketches still folded")
	}
	if merged, ok := s.Sketches(1); !ok || *merged[0].Stats.MaxInt != 30 {
		t.Fatal("the successor's fold replaced its predecessor's")
	}
}

// TestDerivedStateConcurrentReaders: a published state's memos are filled
// by whichever reader comes first; concurrent readers all see one answer.
func TestDerivedStateConcurrentReaders(t *testing.T) {
	s := NewTableState()
	var actions []Action
	for i := 0; i < 64; i++ {
		actions = append(actions, addData(fmt.Sprintf("f%02d", 63-i), 1))
	}
	must(t, s.Apply(1, actions))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			live := s.LiveFiles()
			if len(live) != 64 || live[0].Path != "f00" {
				t.Errorf("LiveFiles = %d files, first %s", len(live), live[0].Path)
			}
			if _, ok := s.Sketches(1); ok {
				t.Error("files without sketches folded")
			}
		}()
	}
	wg.Wait()
}
