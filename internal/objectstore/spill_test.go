package objectstore

import (
	"errors"
	"testing"
)

func TestSpillDirNamespace(t *testing.T) {
	s := New()
	d1 := NewSpillDir(s, "t1-q1")
	d2 := NewSpillDir(s, "t1-q2")

	if err := d1.Put("b/d0/p000/f000000000", []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := d1.Put("b/d0/p001/f000000000", []byte("two")); err != nil {
		t.Fatal(err)
	}
	if err := d2.Put("b/d0/p000/f000000000", []byte("other")); err != nil {
		t.Fatal(err)
	}

	got, err := d1.Get("b/d0/p000/f000000000")
	if err != nil || string(got) != "one" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	// List returns namespace-relative names and never crosses namespaces.
	names := d1.List("b/d0/")
	if len(names) != 2 || names[0] != "b/d0/p000/f000000000" || names[1] != "b/d0/p001/f000000000" {
		t.Fatalf("List = %v", names)
	}
	if n := d1.Count(); n != 2 {
		t.Fatalf("Count = %d", n)
	}

	// Spill blobs live under the spill/ prefix, disjoint from table data.
	if err := s.Put("tables/1/data/x.pcf", []byte("data"), 1); err != nil {
		t.Fatal(err)
	}
	if got := len(s.List(SpillPrefix)); got != 3 {
		t.Fatalf("store-wide spill blobs = %d, want 3", got)
	}

	if err := d1.Cleanup(); err != nil {
		t.Fatalf("cleanup: %v", err)
	}
	if n := d1.Count(); n != 0 {
		t.Fatalf("post-cleanup Count = %d", n)
	}
	// Cleanup is namespace-scoped: the sibling namespace and table data stay.
	if n := d2.Count(); n != 1 {
		t.Fatalf("sibling namespace lost files: Count = %d", n)
	}
	if !s.Exists("tables/1/data/x.pcf") {
		t.Fatal("cleanup deleted a table data file")
	}
}

// TestSpillDirCleanupKeepsDeleting pins that a transient delete fault does
// not strand the rest of the namespace: Cleanup reports the error but still
// removes every blob a later delete can reach.
func TestSpillDirCleanupKeepsDeleting(t *testing.T) {
	faults := NewFaultInjector(7)
	s := New(WithFaults(faults))
	d := NewSpillDir(s, "t9-q9")
	for i := 0; i < 20; i++ {
		if err := d.Put(string(rune('a'+i)), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	faults.SetProbability(OpDelete, 0.5)
	err := d.Cleanup()
	faults.SetProbability(OpDelete, 0)
	if err == nil {
		t.Skip("injector happened to pass every delete; nothing to assert")
	}
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("cleanup error is not the transient fault: %v", err)
	}
	// The files whose deletes failed are still there; a retry drains them.
	if err := d.Cleanup(); err != nil {
		t.Fatalf("retry cleanup: %v", err)
	}
	if n := d.Count(); n != 0 {
		t.Fatalf("blobs remain after retry: %d", n)
	}
}

// TestSpillDirCleanupUnwrittenIsFree pins that cleaning a namespace nothing
// was ever Put to costs no store round trip — statements register one per
// join build up front and most builds never spill — while one attempted Put,
// even a failed one, makes Cleanup list.
func TestSpillDirCleanupUnwrittenIsFree(t *testing.T) {
	faults := NewFaultInjector(7)
	s := New(WithFaults(faults))
	d := NewSpillDir(s, "t3-q1")
	if err := d.Cleanup(); err != nil {
		t.Fatal(err)
	}
	if got := s.Metrics().Lists; got != 0 {
		t.Fatalf("cleanup of an unwritten namespace listed the store %d times", got)
	}
	faults.SetProbability(OpPut, 1)
	if err := d.Put("a", []byte("x")); err == nil {
		t.Fatal("injected put fault did not fire")
	}
	faults.SetProbability(OpPut, 0)
	if err := d.Cleanup(); err != nil {
		t.Fatal(err)
	}
	if got := s.Metrics().Lists; got != 1 {
		t.Fatalf("cleanup after an attempted put listed the store %d times, want 1", got)
	}
}
