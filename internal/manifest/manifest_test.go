package manifest

import (
	"bytes"
	"encoding/json"
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

func TestDecodeEmptyIsEmpty(t *testing.T) {
	got, err := Decode(nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

// TestBlockConcatenationIsValidManifest: write tasks stage their blocks in
// any order, and the manifest is their concatenation, so blocks decode to
// the concatenation of their actions in every order — front coding starts
// over in each block — and an empty action list is no block at all.
func TestBlockConcatenationIsValidManifest(t *testing.T) {
	blocks := [][]Action{
		edgeActions(),
		{addData("tables/1/data/7-p0-1.pcf", 5), removeData("tables/1/data/7-p0-0.pcf")},
		{addDV("tables/1/dv/8-0.dv", "tables/1/data/7-p0-1.pcf", 2)},
		nil,
	}
	if Encode(nil) != nil {
		t.Fatal("no actions encode to bytes")
	}
	for _, order := range [][]int{{0, 1, 2, 3}, {0, 2, 1, 3}, {1, 0, 2, 3}, {1, 3, 2, 0}, {2, 0, 1, 3}, {2, 1, 3, 0}} {
		var data []byte
		var want []Action
		for _, i := range order {
			data = append(data, Encode(blocks[i])...)
			want = append(want, blocks[i]...)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("order %v: %v", order, err)
		}
		if !sameBits(got, want) {
			t.Fatalf("order %v: got %+v, want %+v", order, got, want)
		}
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

// TestSuccessorNeverWritesReceiver: a published state is shared, so the
// copy-and-apply that builds its successor must leave it exactly as it was —
// its files and the file entries both states share.
func TestSuccessorNeverWritesReceiver(t *testing.T) {
	s := NewTableState()
	must(t, s.Apply(1, []Action{addData("a", 10), addData("b", 10)}))
	must(t, s.Apply(2, []Action{addDV("dv1", "b", 2), removeData("a"), addData("a2", 10)}))
	before, err := json.Marshal(s)
	must(t, err)
	entryA2, entryB := s.Files["a2"], s.Files["b"]

	c, err := s.next(3, []Action{removeData("a2"), addDV("dv2", "b", 4), removeDV("dv1", "b")})
	must(t, err)
	if c.Files["b"].DV != "dv2" || c.Files["b"].DeletedRows != 4 || c.LastSeq != 3 {
		t.Fatalf("successor b = %+v at seq %d", c.Files["b"], c.LastSeq)
	}
	// A second successor of the same receiver leaves the first as it was.
	d, err := s.next(3, []Action{removeDV("dv1", "b")})
	must(t, err)
	if d.Files["b"].DV != "" || c.Files["b"].DV != "dv2" || c.Files["a2"] != nil {
		t.Fatalf("second successor b = %+v, first successor b = %+v", d.Files["b"], c.Files["b"])
	}

	after, err := json.Marshal(s)
	must(t, err)
	if !bytes.Equal(before, after) {
		t.Fatalf("successor wrote its receiver:\n%s\n%s", before, after)
	}
	if s.Files["a2"] != entryA2 || s.Files["b"] != entryB || entryB.DV != "dv1" || entryB.DeletedRows != 2 {
		t.Fatalf("receiver's entries moved or were written: b = %+v", entryB)
	}
	if _, err := s.next(3, []Action{removeData("ghost")}); err == nil {
		t.Fatal("successor of a bad manifest accepted")
	}
	if len(s.Files) != 2 || s.LastSeq != 2 {
		t.Fatal("failed successor wrote its receiver")
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
	back, err := UnmarshalCheckpoint(cp.Marshal())
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

// TestHealthAssessment checks hand-computed compaction victims: a table is
// healthy exactly when it has none, and the counts split them by cause.
// Thresholds: small below 100 rows, fragmented above half deleted.
func TestHealthAssessment(t *testing.T) {
	in := func(cell int, path string, rows int64) Action {
		a := addData(path, rows)
		a.Partition = cell
		return a
	}
	cases := []struct {
		name        string
		rowsPerFile int
		actions     []Action
		victims     []string // path order
		small, frag int
	}{
		{name: "empty table", rowsPerFile: 1000},
		{name: "one small clean file per cell", rowsPerFile: 1000,
			actions: []Action{in(0, "a", 10), in(1, "b", 20), in(2, "c", 30)}},
		{name: "two small files in one cell", rowsPerFile: 1000,
			actions: []Action{in(0, "a", 10), in(0, "b", 20), in(1, "c", 30)},
			victims: []string{"a", "b"}, small: 2},
		{name: "a small file beside a mixed file", rowsPerFile: 1000,
			actions: []Action{in(MixedCells, "m", 10), in(0, "a", 10), in(1, "big", 500)},
			victims: []string{"a", "m"}, small: 2},
		{name: "a fragmented large file alone", rowsPerFile: 1000,
			actions: []Action{in(0, "big", 500), addDV("dv", "big", 300)},
			victims: []string{"big"}, frag: 1},
		{name: "a large clean file beside a small one", rowsPerFile: 1000,
			actions: []Action{in(0, "big", 500), in(0, "a", 10)}},
		{name: "a large clean file beside two small ones", rowsPerFile: 1000,
			actions: []Action{in(0, "big", 500), in(0, "a", 10), in(0, "b", 10)},
			victims: []string{"a", "b"}, small: 2},
		{name: "a small file beside a fragmented one", rowsPerFile: 1000,
			actions: []Action{in(0, "a", 10), in(0, "f", 90), addDV("dv", "f", 60), in(1, "b", 10)},
			victims: []string{"a", "f"}, small: 1, frag: 1},
		{name: "RowsPerFile 50 with full 50-row files", rowsPerFile: 50,
			actions: []Action{in(0, "a", 50), in(0, "b", 50), in(0, "c", 20), in(1, "d", 50)}},
		{name: "RowsPerFile 50 with files that pack into fewer", rowsPerFile: 50,
			actions: []Action{in(0, "a", 50), in(0, "b", 30), in(0, "c", 20)},
			victims: []string{"a", "b", "c"}, small: 3},
		{name: "RowsPerFile 0 packs a cell into one file", rowsPerFile: 0,
			actions: []Action{in(0, "a", 50), in(0, "b", 30), in(1, "c", 20)},
			victims: []string{"a", "b"}, small: 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewTableState()
			for i, a := range tc.actions {
				must(t, s.Apply(int64(i+1), []Action{a}))
			}
			var got []string
			for _, f := range s.CompactionVictims(100, 0.5, tc.rowsPerFile) {
				got = append(got, f.Path)
			}
			if !reflect.DeepEqual(got, tc.victims) {
				t.Fatalf("victims %v, want %v", got, tc.victims)
			}
			h := s.AssessHealth(100, 0.5, tc.rowsPerFile)
			if h.SmallFiles != tc.small || h.FragmentedFiles != tc.frag || h.NumFiles != len(s.Files) {
				t.Fatalf("health %+v, want %d small and %d fragmented of %d files", h, tc.small, tc.frag, len(s.Files))
			}
			if h.Healthy() != (len(tc.victims) == 0) {
				t.Fatalf("Healthy() = %v with victims %v", h.Healthy(), got)
			}
		})
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
	if latest := c.Get(7, 2); latest == nil || latest.LastSeq != 2 {
		t.Fatalf("latest = %v", latest)
	}
	// bad advance (unknown file removal) drops the table
	c.Advance(7, 3, []Action{removeData("ghost")})
	if c.Get(7, 2) != nil {
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

func TestSnapshotCacheInvalidate(t *testing.T) {
	c := NewSnapshotCache()
	for seq := int64(1); seq <= 5; seq++ {
		s := NewTableState()
		must(t, s.Apply(seq, []Action{addData(fmt.Sprintf("f%d", seq), 1)}))
		c.Put(1, s)
	}
	if c.Get(1, 5) == nil {
		t.Fatal("latest snapshot not served")
	}
	c.Invalidate(1)
	if c.Get(1, 5) != nil {
		t.Fatal("invalidated table still served")
	}
}

// TestSnapshotCacheServesOnlyTheNewestState bounds the cache: however many
// commits advance a table, it holds one state — the newest, equal to the
// replay — and serves no older sequence.
func TestSnapshotCacheServesOnlyTheNewestState(t *testing.T) {
	const table, commits = 3, 1000
	manifests := []CommittedManifest{{Seq: 1, Actions: []Action{addData("f1", 10)}}}
	for seq := int64(2); seq <= commits+1; seq++ {
		actions := []Action{addData(fmt.Sprintf("f%d", seq), seq)}
		switch seq % 3 {
		case 0:
			actions = append(actions, addDV(fmt.Sprintf("dv%d", seq), fmt.Sprintf("f%d", seq-1), 1))
		case 1:
			actions = append(actions, removeData(fmt.Sprintf("f%d", seq-2)))
		}
		manifests = append(manifests, CommittedManifest{Seq: seq, Actions: actions})
	}
	replay := func(upTo int64) *TableState {
		s, err := Reconstruct(nil, manifests, upTo)
		must(t, err)
		return s
	}

	c := NewSnapshotCache()
	c.Put(table, replay(1))
	for _, m := range manifests[1:] {
		c.Advance(table, m.Seq, m.Actions)
	}
	for seq := int64(1); seq <= commits; seq++ {
		if got := c.Get(table, seq); got != nil {
			t.Fatalf("cache still serves seq %d of %d", seq, commits+1)
		}
	}
	got, want := c.Get(table, commits+1), replay(commits+1)
	if got == nil {
		t.Fatal("newest state not served")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("newest cached state differs from the replay: %d files, replay %d", len(got.Files), len(want.Files))
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
