package manifest

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func addData(path string, rows int64) Action {
	return Action{Op: OpAdd, Kind: KindData, Path: path, Rows: rows, Size: rows * 100}
}

func removeData(path string) Action {
	return Action{Op: OpRemove, Kind: KindData, Path: path}
}

func addDV(path, target string, deleted int64) Action {
	return Action{Op: OpAdd, Kind: KindDV, Path: path, Target: target, DeletedRows: deleted}
}

func removeDV(path, target string) Action {
	return Action{Op: OpRemove, Kind: KindDV, Path: path, Target: target}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	actions := []Action{
		addData("1.parquet", 100),
		addDV("1dv.bin", "1.parquet", 3),
		removeData("0.parquet"),
	}
	// "remove of unknown file" is a replay-time error, not a decode error.
	got, err := Decode(Encode(actions))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, actions) {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestDecodeRejectsInvalid(t *testing.T) {
	bad := []Action{{Op: "frob", Kind: KindData, Path: "x"}}
	if _, err := Decode(Encode(bad)); err == nil {
		t.Fatal("invalid op accepted")
	}
	if _, err := Decode([]byte(`{"op":"add","kind":"dv","path":"d"}` + "\n")); err == nil {
		t.Fatal("dv without target accepted")
	}
	if _, err := Decode([]byte("{garbage")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestDecodeEmptyIsEmpty(t *testing.T) {
	got, err := Decode(nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestBlockConcatenationIsValidManifest(t *testing.T) {
	// Blocks from different BE tasks concatenate into one valid manifest.
	b1 := Encode([]Action{addData("a.parquet", 10)})
	b2 := Encode([]Action{addData("b.parquet", 20)})
	got, err := Decode(append(b1, b2...))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d actions", len(got))
	}
}

func TestApplyAddAndRemove(t *testing.T) {
	s := NewTableState()
	must(t, s.Apply(1, []Action{addData("a", 10), addData("b", 20)}))
	if s.TotalRows() != 30 || len(s.Files) != 2 {
		t.Fatalf("rows=%d files=%d", s.TotalRows(), len(s.Files))
	}
	must(t, s.Apply(2, []Action{removeData("a")}))
	if s.TotalRows() != 20 {
		t.Fatalf("rows=%d", s.TotalRows())
	}
	if len(s.Tombstones) != 1 || s.Tombstones[0].Path != "a" || s.Tombstones[0].RemovedSeq != 2 {
		t.Fatalf("tombstones = %+v", s.Tombstones)
	}
	if s.LastSeq != 2 {
		t.Fatalf("LastSeq = %d", s.LastSeq)
	}
}

func TestApplyDVLifecycle(t *testing.T) {
	s := NewTableState()
	must(t, s.Apply(1, []Action{addData("a", 100)}))
	must(t, s.Apply(2, []Action{addDV("dv1", "a", 5)}))
	if s.Files["a"].DeletedRows != 5 || s.Files["a"].DV != "dv1" {
		t.Fatalf("file = %+v", s.Files["a"])
	}
	if s.TotalRows() != 95 {
		t.Fatalf("rows = %d", s.TotalRows())
	}
	// merged DV replaces the old one (paper 4.2: remove old, add merged)
	must(t, s.Apply(3, []Action{removeDV("dv1", "a"), addDV("dv2", "a", 12)}))
	if s.Files["a"].DV != "dv2" || s.Files["a"].DeletedRows != 12 {
		t.Fatalf("file = %+v", s.Files["a"])
	}
}

func TestApplyErrors(t *testing.T) {
	s := NewTableState()
	if err := s.Apply(1, []Action{removeData("ghost")}); err == nil {
		t.Fatal("remove of unknown file accepted")
	}
	if err := s.Apply(1, []Action{addDV("dv", "ghost", 1)}); err == nil {
		t.Fatal("dv on unknown file accepted")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := NewTableState()
	must(t, s.Apply(1, []Action{addData("a", 10)}))
	c := s.Clone()
	must(t, c.Apply(2, []Action{removeData("a")}))
	if len(s.Files) != 1 || s.LastSeq != 1 {
		t.Fatal("clone mutated parent")
	}
	// deep: mutating a file entry in clone must not affect parent
	c2 := s.Clone()
	c2.Files["a"].DeletedRows = 99
	if s.Files["a"].DeletedRows != 0 {
		t.Fatal("clone aliases file entries")
	}
}

func TestOverlayUncommittedChanges(t *testing.T) {
	committed := NewTableState()
	must(t, committed.Apply(1, []Action{addData("a", 10)}))
	view, err := committed.Overlay([]Action{addData("txn-file", 5)})
	if err != nil {
		t.Fatal(err)
	}
	if view.TotalRows() != 15 {
		t.Fatalf("overlay rows = %d", view.TotalRows())
	}
	if committed.TotalRows() != 10 {
		t.Fatal("overlay mutated committed state")
	}
}

func TestReconstructOrdersBySeq(t *testing.T) {
	ms := []CommittedManifest{
		{Seq: 2, Path: "m2", Actions: []Action{removeData("a")}},
		{Seq: 1, Path: "m1", Actions: []Action{addData("a", 10), addData("b", 5)}},
	}
	s, err := Reconstruct(nil, ms, -1)
	if err != nil {
		t.Fatal(err)
	}
	if s.TotalRows() != 5 || s.LastSeq != 2 {
		t.Fatalf("rows=%d seq=%d", s.TotalRows(), s.LastSeq)
	}
}

func TestReconstructAsOf(t *testing.T) {
	ms := []CommittedManifest{
		{Seq: 1, Actions: []Action{addData("a", 10)}},
		{Seq: 2, Actions: []Action{addData("b", 20)}},
		{Seq: 3, Actions: []Action{removeData("a")}},
	}
	s, err := Reconstruct(nil, ms, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.TotalRows() != 30 {
		t.Fatalf("as-of-2 rows = %d", s.TotalRows())
	}
	s, _ = Reconstruct(nil, ms, -1)
	if s.TotalRows() != 20 {
		t.Fatalf("latest rows = %d", s.TotalRows())
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	s := NewTableState()
	must(t, s.Apply(1, []Action{addData("a", 10), addData("b", 20)}))
	must(t, s.Apply(2, []Action{addDV("dv", "a", 2), removeData("b")}))
	cp := BuildCheckpoint(42, s)
	data, err := cp.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.TableID != 42 || back.Seq != 2 {
		t.Fatalf("cp = %+v", back)
	}
	rs := back.State()
	if rs.TotalRows() != 8 || rs.Files["a"].DV != "dv" {
		t.Fatalf("restored rows = %d", rs.TotalRows())
	}
	if len(rs.Tombstones) != 1 {
		t.Fatalf("tombstones = %v", rs.Tombstones)
	}
}

func TestReconstructFromCheckpointPlusTail(t *testing.T) {
	s := NewTableState()
	must(t, s.Apply(1, []Action{addData("a", 10)}))
	must(t, s.Apply(2, []Action{addData("b", 20)}))
	cp := BuildCheckpoint(1, s)
	tail := []CommittedManifest{
		{Seq: 1, Actions: []Action{addData("a", 10)}},           // below checkpoint: skipped
		{Seq: 2, Actions: []Action{addData("b", 20)}},           // below checkpoint: skipped
		{Seq: 3, Actions: []Action{addData("c", 5)}},            // applied
		{Seq: 4, Actions: []Action{removeData("a")}},            // applied
		{Seq: 5, Actions: []Action{addDV("dv", "b", 1)}},        // applied
		{Seq: 6, Actions: []Action{addData("late", 1_000_000)}}, // beyond as-of: skipped
	}
	got, err := Reconstruct(cp, tail, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalRows() != 24 { // b(20-1) + c(5)
		t.Fatalf("rows = %d", got.TotalRows())
	}
	if got.LastSeq != 5 {
		t.Fatalf("seq = %d", got.LastSeq)
	}
}

func TestReconstructIgnoresCheckpointNewerThanAsOf(t *testing.T) {
	s := NewTableState()
	must(t, s.Apply(5, []Action{addData("new", 100)}))
	cp := BuildCheckpoint(1, s)
	ms := []CommittedManifest{{Seq: 1, Actions: []Action{addData("old", 10)}}}
	got, err := Reconstruct(cp, ms, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalRows() != 10 {
		t.Fatalf("time travel below checkpoint: rows = %d", got.TotalRows())
	}
}

func TestHealthAssessment(t *testing.T) {
	s := NewTableState()
	must(t, s.Apply(1, []Action{addData("big", 10000), addData("small", 10)}))
	must(t, s.Apply(2, []Action{addDV("dv", "big", 6000)}))
	h := s.AssessHealth(100, 0.5)
	if h.NumFiles != 2 || h.SmallFiles != 1 || h.FragmentedFiles != 1 {
		t.Fatalf("health = %+v", h)
	}
	if h.Healthy() {
		t.Fatal("unhealthy state reported healthy")
	}
	h2 := NewTableState().AssessHealth(100, 0.5)
	if !h2.Healthy() {
		t.Fatal("empty table not healthy")
	}
}

func TestSnapshotCacheBasics(t *testing.T) {
	c := NewSnapshotCache()
	s := NewTableState()
	must(t, s.Apply(1, []Action{addData("a", 10)}))
	c.Put(7, s)
	got := c.Get(7, 1)
	if got == nil || got.TotalRows() != 10 {
		t.Fatalf("cache get = %v", got)
	}
	// mutation of returned state must not poison the cache
	must(t, got.Apply(2, []Action{removeData("a")}))
	again := c.Get(7, 1)
	if again.TotalRows() != 10 {
		t.Fatal("cache returned aliased state")
	}
	if c.Get(7, 99) != nil || c.Get(99, 1) != nil {
		t.Fatal("cache invented entries")
	}
	hits, misses := c.Stats()
	if hits != 2 || misses != 2 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
}

func TestSnapshotCacheAdvance(t *testing.T) {
	c := NewSnapshotCache()
	s := NewTableState()
	must(t, s.Apply(1, []Action{addData("a", 10)}))
	c.Put(7, s)
	c.Advance(7, 2, []Action{addData("b", 5)})
	got := c.Get(7, 2)
	if got == nil || got.TotalRows() != 15 {
		t.Fatalf("advanced = %v", got)
	}
	// latest lookup via negative seq
	if latest := c.Get(7, -1); latest == nil || latest.LastSeq != 2 {
		t.Fatalf("latest = %v", latest)
	}
	// old snapshot still served (time travel)
	if old := c.Get(7, 1); old == nil || old.TotalRows() != 10 {
		t.Fatalf("old = %v", old)
	}
	// bad advance (unknown file removal) drops the table
	c.Advance(7, 3, []Action{removeData("ghost")})
	if c.Get(7, -1) != nil {
		t.Fatal("cache kept state after failed advance")
	}
}

// TestSnapshotCacheAdvanceEqualsReplay pins the incremental-maintenance
// relation the cache exists for: whatever order commits and readers reach it
// in, a snapshot it serves for sequence s equals the state replayed from the
// manifests up to s — or it serves nothing and the reader replays. Both
// interleavings below used to leave a state for seq 6 built on seq 4, so
// every later snapshot missed txn 5's file.
func TestSnapshotCacheAdvanceEqualsReplay(t *testing.T) {
	const table = 7
	commits := map[int64][]Action{
		4: {addData("f4", 4)},
		5: {addData("f5", 5)},
		6: {addData("f6", 6)},
	}
	replayed := func(upTo int64) *TableState {
		s := NewTableState()
		for seq := int64(4); seq <= upTo; seq++ {
			must(t, s.Apply(seq, commits[seq]))
		}
		return s
	}
	check := func(t *testing.T, c *SnapshotCache) {
		t.Helper()
		for seq := int64(4); seq <= 6; seq++ {
			if got := c.Get(table, seq); got != nil && !reflect.DeepEqual(got, replayed(seq)) {
				t.Errorf("cached state for seq %d has files %v, replay has %v",
					seq, len(got.Files), len(replayed(seq).Files))
			}
		}
	}

	t.Run("out-of-order Advance", func(t *testing.T) {
		c := NewSnapshotCache()
		c.Put(table, replayed(4))
		c.Advance(table, 6, commits[6])
		c.Advance(table, 5, commits[5])
		check(t, c)
	})
	t.Run("Put(old) then Advance", func(t *testing.T) {
		c := NewSnapshotCache()
		c.Advance(table, 5, commits[5]) // table not cached (e.g. invalidated): nothing to extend
		c.Put(table, replayed(4))       // a reader whose snapshot predates commit 5
		c.Advance(table, 6, commits[6])
		check(t, c)
		// The next reader's replay heals the cache, and advancing resumes.
		c.Put(table, replayed(6))
		c.Advance(table, 8, []Action{addData("f8", 8)})
		want := replayed(6)
		must(t, want.Apply(8, []Action{addData("f8", 8)}))
		if got := c.Get(table, 8); !reflect.DeepEqual(got, want) {
			t.Errorf("cache did not resume advancing from a complete base: %v", got)
		}
	})
	// RESTORE AS OF 4 commits as seq 7 and deletes the rows of 5 and 6. A
	// reader whose snapshot predates it re-Puts the state for 6; the next
	// commit must not extend that state — f5 and f6 are gone.
	t.Run("Put(pre-restore) then Advance", func(t *testing.T) {
		c := NewSnapshotCache()
		c.Put(table, replayed(4))
		c.Advance(table, 5, commits[5])
		c.Advance(table, 6, commits[6])
		c.Rewound(table, 7)
		c.Put(table, replayed(6))
		c.Advance(table, 8, []Action{addData("f8", 8)})
		want := replayed(4)
		must(t, want.Apply(8, []Action{addData("f8", 8)}))
		if got := c.Get(table, 8); got != nil && !reflect.DeepEqual(got, want) {
			t.Errorf("cached state for seq 8 has %d files, the restored table has %d", len(got.Files), len(want.Files))
		}
	})
}

func TestSnapshotCacheTrimAndInvalidate(t *testing.T) {
	c := NewSnapshotCache()
	for seq := int64(1); seq <= 5; seq++ {
		s := NewTableState()
		must(t, s.Apply(seq, []Action{addData(fmt.Sprintf("f%d", seq), 1)}))
		c.Put(1, s)
	}
	c.Trim(1, 4)
	if c.Get(1, 2) != nil {
		t.Fatal("trimmed snapshot still served")
	}
	if c.Get(1, 5) == nil {
		t.Fatal("latest snapshot trimmed")
	}
	c.Invalidate(1)
	if c.Get(1, 5) != nil {
		t.Fatal("invalidated table still served")
	}
}

func TestDeltaPublishing(t *testing.T) {
	s := NewTableState()
	must(t, s.Apply(1, []Action{addData("1.parquet", 3)}))
	m := CommittedManifest{Seq: 2, Path: "x2.json", Actions: []Action{
		addData("2.parquet", 2),
		addDV("x2dv.bin", "1.parquet", 1),
	}}
	must(t, s.Apply(2, m.Actions))
	body := ToDeltaLog(m, 1002, 1718000000000, s)
	adds, removes, info, err := ParseDeltaLog(body)
	if err != nil {
		t.Fatal(err)
	}
	if info == nil || info.TxnID != 1002 {
		t.Fatalf("commitInfo = %+v", info)
	}
	if len(adds) != 2 || len(removes) != 0 {
		t.Fatalf("adds=%d removes=%d", len(adds), len(removes))
	}
	if adds[0].Path != "2.parquet" || adds[0].NumRecords != 2 {
		t.Fatalf("add[0] = %+v", adds[0])
	}
	if adds[1].Path != "1.parquet" || adds[1].DeletionVector != "x2dv.bin" || adds[1].NumRecords != 3 {
		t.Fatalf("add[1] = %+v", adds[1])
	}
}

func TestDeltaLogName(t *testing.T) {
	if got := DeltaLogName(7); got != "_delta_log/00000000000000000007.json" {
		t.Fatalf("name = %q", got)
	}
	if !strings.HasPrefix(DeltaLogName(0), "_delta_log/") {
		t.Fatal("prefix missing")
	}
}

func TestPropertyReplayDeterminism(t *testing.T) {
	// Replaying the same manifests always yields the same state regardless of
	// the input slice order handed to Reconstruct.
	f := func(seed uint8) bool {
		n := int(seed%8) + 2
		var ms []CommittedManifest
		for i := 1; i <= n; i++ {
			ms = append(ms, CommittedManifest{
				Seq:     int64(i),
				Actions: []Action{addData(fmt.Sprintf("f%d", i), int64(i*10))},
			})
		}
		a, err1 := Reconstruct(nil, ms, -1)
		// reversed order input
		rev := make([]CommittedManifest, n)
		for i := range ms {
			rev[n-1-i] = ms[i]
		}
		b, err2 := Reconstruct(nil, rev, -1)
		if err1 != nil || err2 != nil {
			return false
		}
		return a.TotalRows() == b.TotalRows() && a.LastSeq == b.LastSeq && len(a.Files) == len(b.Files)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCheckpointEquivalence(t *testing.T) {
	// checkpoint(prefix) + tail replay == full replay
	f := func(seed uint8) bool {
		n := int(seed%10) + 3
		cut := n / 2
		var ms []CommittedManifest
		for i := 1; i <= n; i++ {
			acts := []Action{addData(fmt.Sprintf("f%d", i), int64(i))}
			if i%3 == 0 && i > 1 {
				acts = append(acts, removeData(fmt.Sprintf("f%d", i-1)))
			}
			ms = append(ms, CommittedManifest{Seq: int64(i), Actions: acts})
		}
		full, err := Reconstruct(nil, ms, -1)
		if err != nil {
			return false
		}
		prefix, err := Reconstruct(nil, ms[:cut], -1)
		if err != nil {
			return false
		}
		cp := BuildCheckpoint(1, prefix)
		viaCP, err := Reconstruct(cp, ms[cut:], -1)
		if err != nil {
			return false
		}
		if full.TotalRows() != viaCP.TotalRows() || len(full.Files) != len(viaCP.Files) {
			return false
		}
		for p, fe := range full.Files {
			ge, ok := viaCP.Files[p]
			if !ok || ge.Rows != fe.Rows || ge.DV != fe.DV || ge.DeletedRows != fe.DeletedRows {
				return false
			}
		}
		return true
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
