package objectstore

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestPutGetRoundTrip(t *testing.T) {
	s := New()
	if err := s.Put("a/b.parquet", []byte("hello"), 7); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, err := s.Get("a/b.parquet")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if string(got) != "hello" {
		t.Fatalf("got %q, want hello", got)
	}
	info, err := s.Head("a/b.parquet")
	if err != nil {
		t.Fatalf("Head: %v", err)
	}
	if info.Size != 5 || info.CreatorStamp != 7 {
		t.Fatalf("info = %+v", info)
	}
}

func TestGetMissing(t *testing.T) {
	s := New()
	if _, err := s.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if _, err := s.Head("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Head err = %v, want ErrNotFound", err)
	}
}

func TestPutCopiesInput(t *testing.T) {
	s := New()
	buf := []byte("abc")
	if err := s.Put("k", buf, 0); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'z'
	got, _ := s.Get("k")
	if string(got) != "abc" {
		t.Fatalf("store aliased caller buffer: %q", got)
	}
}

func TestDelete(t *testing.T) {
	s := New()
	_ = s.Put("k", []byte("v"), 0)
	if err := s.Delete("k"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if s.Exists("k") {
		t.Fatal("blob still exists after delete")
	}
	if err := s.Delete("k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete err = %v, want ErrNotFound", err)
	}
}

func TestListPrefix(t *testing.T) {
	s := New()
	for _, n := range []string{"t1/a", "t1/b", "t2/c", "t1x/d"} {
		_ = s.Put(n, []byte("x"), 0)
	}
	got := s.List("t1/")
	want := []string{"t1/a", "t1/b"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("List = %v, want %v", got, want)
	}
	infos := s.ListInfo("t1/")
	if len(infos) != 2 || infos[0].Name != "t1/a" {
		t.Fatalf("ListInfo = %v", infos)
	}
}

func TestBlockCommitPublishesOnlyListedBlocks(t *testing.T) {
	s := New()
	must(t, s.StageBlock("m.json", "b1", []byte("one,")))
	must(t, s.StageBlock("m.json", "b2", []byte("two,")))
	must(t, s.StageBlock("m.json", "orphan", []byte("LOST")))
	if s.Exists("m.json") {
		t.Fatal("blob visible before commit")
	}
	must(t, s.CommitBlockList("m.json", []string{"b1", "b2"}, 42))
	got, err := s.Get("m.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "one,two," {
		t.Fatalf("content = %q", got)
	}
	if ids := s.StagedBlockIDs("m.json"); len(ids) != 0 {
		t.Fatalf("staged blocks survive commit: %v", ids)
	}
	if bytes.Contains(got, []byte("LOST")) {
		t.Fatal("orphan block leaked into committed blob")
	}
}

func TestBlockCommitOrderMatters(t *testing.T) {
	s := New()
	must(t, s.StageBlock("m", "a", []byte("A")))
	must(t, s.StageBlock("m", "b", []byte("B")))
	must(t, s.CommitBlockList("m", []string{"b", "a"}, 0))
	got, _ := s.Get("m")
	if string(got) != "BA" {
		t.Fatalf("content = %q, want BA", got)
	}
}

func TestBlockCommitAppendsCommittedBlocks(t *testing.T) {
	// Multi-statement transactions: the FE appends the new statement's blocks
	// to the previously committed list (paper 3.2.3).
	s := New()
	must(t, s.StageBlock("m", "s1b1", []byte("stmt1;")))
	must(t, s.CommitBlockList("m", []string{"s1b1"}, 0))
	must(t, s.StageBlock("m", "s2b1", []byte("stmt2;")))
	prev, err := s.CommittedBlockList("m")
	if err != nil {
		t.Fatal(err)
	}
	must(t, s.CommitBlockList("m", append(prev, "s2b1"), 0))
	got, _ := s.Get("m")
	if string(got) != "stmt1;stmt2;" {
		t.Fatalf("content = %q", got)
	}
	list, _ := s.CommittedBlockList("m")
	if len(list) != 2 || list[0] != "s1b1" || list[1] != "s2b1" {
		t.Fatalf("block list = %v", list)
	}
}

func TestCommitUnknownBlockFails(t *testing.T) {
	s := New()
	must(t, s.StageBlock("m", "a", []byte("A")))
	err := s.CommitBlockList("m", []string{"a", "ghost"}, 0)
	if !errors.Is(err, ErrBlockNotFound) {
		t.Fatalf("err = %v, want ErrBlockNotFound", err)
	}
	if s.Exists("m") {
		t.Fatal("failed commit must not publish the blob")
	}
}

func TestRestageOverwrites(t *testing.T) {
	s := New()
	must(t, s.StageBlock("m", "a", []byte("old")))
	must(t, s.StageBlock("m", "a", []byte("new")))
	must(t, s.CommitBlockList("m", []string{"a"}, 0))
	got, _ := s.Get("m")
	if string(got) != "new" {
		t.Fatalf("content = %q, want new", got)
	}
}

func TestDiscardStaged(t *testing.T) {
	s := New()
	must(t, s.StageBlock("m", "a", []byte("A")))
	s.DiscardStaged("m")
	if err := s.CommitBlockList("m", []string{"a"}, 0); !errors.Is(err, ErrBlockNotFound) {
		t.Fatalf("err = %v, want ErrBlockNotFound after discard", err)
	}
}

func TestTaskRetryScenario(t *testing.T) {
	// Paper 3.2.2: a failed task attempt's blocks are simply not included in
	// the final commit and are discarded by storage.
	s := New()
	// attempt 1 stages two blocks, then "fails"
	must(t, s.StageBlock("txn.manifest", "attempt1-b1", []byte("partial")))
	must(t, s.StageBlock("txn.manifest", "attempt1-b2", []byte("garbage")))
	// attempt 2 (retry on another node) stages fresh blocks
	must(t, s.StageBlock("txn.manifest", "attempt2-b1", []byte("add:file1;")))
	must(t, s.StageBlock("txn.manifest", "attempt2-b2", []byte("add:file2;")))
	must(t, s.CommitBlockList("txn.manifest", []string{"attempt2-b1", "attempt2-b2"}, 0))
	got, _ := s.Get("txn.manifest")
	if string(got) != "add:file1;add:file2;" {
		t.Fatalf("content = %q", got)
	}
}

func TestCreatorStampPreservedAcrossRecommit(t *testing.T) {
	s := New()
	must(t, s.StageBlock("m", "a", []byte("A")))
	must(t, s.CommitBlockList("m", []string{"a"}, 99))
	must(t, s.StageBlock("m", "b", []byte("B")))
	must(t, s.CommitBlockList("m", []string{"a", "b"}, 0)) // 0 = keep original
	info, _ := s.Head("m")
	if info.CreatorStamp != 99 {
		t.Fatalf("CreatorStamp = %d, want 99", info.CreatorStamp)
	}
}

func TestMetricsAccounting(t *testing.T) {
	s := New()
	_ = s.Put("a", make([]byte, 100), 0)
	_, _ = s.Get("a")
	_ = s.List("")
	m := s.Metrics()
	if m.Puts != 1 || m.Gets != 1 || m.Lists != 1 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.BytesWritten != 100 || m.BytesRead != 100 {
		t.Fatalf("bytes = %+v", m)
	}
	if s.TotalSize() != 100 || s.Count() != 1 {
		t.Fatalf("TotalSize=%d Count=%d", s.TotalSize(), s.Count())
	}
}

func TestFaultInjection(t *testing.T) {
	f := NewFaultInjector(1)
	f.SetProbability(OpPut, 1.0)
	s := New(WithFaults(f))
	if err := s.Put("k", []byte("v"), 0); !errors.Is(err, ErrTransient) {
		t.Fatalf("err = %v, want ErrTransient", err)
	}
	if s.Exists("k") {
		t.Fatal("failed put must not create blob")
	}
	f.SetProbability(OpPut, 0)
	if err := s.Put("k", []byte("v"), 0); err != nil {
		t.Fatalf("put after clearing faults: %v", err)
	}
	if s.Metrics().TransientErrors != 1 {
		t.Fatalf("TransientErrors = %d", s.Metrics().TransientErrors)
	}
}

func TestFaultInjectorSetAll(t *testing.T) {
	f := NewFaultInjector(2)
	f.SetAll(1.0)
	s := New(WithFaults(f))
	if err := s.StageBlock("b", "x", nil); !errors.Is(err, ErrTransient) {
		t.Fatalf("stage err = %v", err)
	}
	if _, err := s.Get("b"); !errors.Is(err, ErrNotFound) {
		// Get checks existence before injecting a fault; missing blob wins.
		t.Fatalf("get err = %v", err)
	}
}

func TestClockInjection(t *testing.T) {
	now := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	s := New(WithClock(func() time.Time { return now }))
	_ = s.Put("k", []byte("v"), 0)
	info, _ := s.Head("k")
	if !info.Created.Equal(now) {
		t.Fatalf("Created = %v, want %v", info.Created, now)
	}
}

func TestConcurrentStageAndCommit(t *testing.T) {
	// Many writers staging blocks to the same manifest blob in parallel, like
	// BE nodes writing a shared transaction manifest.
	s := New()
	const writers = 16
	var wg sync.WaitGroup
	ids := make([]string, writers)
	for i := 0; i < writers; i++ {
		ids[i] = fmt.Sprintf("w%02d", i)
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			if err := s.StageBlock("shared", id, []byte(id+";")); err != nil {
				t.Errorf("stage %s: %v", id, err)
			}
		}(ids[i])
	}
	wg.Wait()
	must(t, s.CommitBlockList("shared", ids, 0))
	got, _ := s.Get("shared")
	want := ""
	for _, id := range ids {
		want += id + ";"
	}
	if string(got) != want {
		t.Fatalf("content = %q", got)
	}
}

func TestPropertyPutGetIdentity(t *testing.T) {
	s := New()
	i := 0
	f := func(data []byte) bool {
		i++
		name := fmt.Sprintf("blob-%d", i)
		if err := s.Put(name, data, 0); err != nil {
			return false
		}
		got, err := s.Get(name)
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCommitConcatenation(t *testing.T) {
	// Committing blocks [b0..bn] always yields the concatenation of payloads.
	s := New()
	n := 0
	f := func(parts [][]byte) bool {
		n++
		blob := fmt.Sprintf("m-%d", n)
		ids := make([]string, len(parts))
		var want []byte
		for i, p := range parts {
			ids[i] = fmt.Sprintf("b%d", i)
			if err := s.StageBlock(blob, ids[i], p); err != nil {
				return false
			}
			want = append(want, p...)
		}
		if err := s.CommitBlockList(blob, ids, 0); err != nil {
			return false
		}
		got, err := s.Get(blob)
		if err != nil {
			return false
		}
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
