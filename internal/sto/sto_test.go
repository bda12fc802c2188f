package sto

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"polaris/internal/catalog"
	"polaris/internal/colfile"
	"polaris/internal/compute"
	"polaris/internal/core"
	"polaris/internal/exec"
	"polaris/internal/manifest"
	"polaris/internal/objectstore"
	"polaris/internal/workload"
)

func testEngine(t *testing.T) *core.Engine {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Distributions = 2
	opts.RowsPerFile = 100
	opts.RowsPerGroup = 50
	opts.CompactSmallRows = 10
	opts.CompactDeletedFrac = 0.3
	fabric := compute.NewFabric(compute.Config{Elastic: true, InitNodes: 2, SlotsPer: 2})
	return core.NewEngine(catalog.NewDB(), objectstore.New(), fabric, opts)
}

func schema() colfile.Schema {
	return colfile.Schema{{Name: "k", Type: colfile.String}, {Name: "v", Type: colfile.Int64}}
}

func createTable(t *testing.T, e *core.Engine, name string) {
	t.Helper()
	if err := e.AutoCommit(func(tx *core.Txn) error {
		_, err := tx.CreateTable(name, schema(), "k", "v")
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

func insertRows(t *testing.T, e *core.Engine, table string, lo, hi int) {
	t.Helper()
	b := colfile.NewBatch(schema())
	for i := lo; i < hi; i++ {
		_ = b.AppendRow(fmt.Sprintf("k%05d", i), int64(i))
	}
	if err := e.AutoCommit(func(tx *core.Txn) error {
		_, err := tx.Insert(table, b)
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

func countRows(t *testing.T, e *core.Engine, table string) int {
	t.Helper()
	tx := e.Begin()
	defer tx.Rollback()
	state, meta, err := tx.Snapshot(table, -1)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := tx.Morsels(context.Background(), state, meta, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := exec.NewMorselScan(ms.Morsels[0], nil, nil, ms.Tel)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	return rows.NumRows()
}

// blobSize reads a blob back from the store and returns its size.
func blobSize(t *testing.T, e *core.Engine, path string) int64 {
	t.Helper()
	data, err := e.Store.Get(path)
	if err != nil {
		t.Fatal(err)
	}
	return int64(len(data))
}

// TestCheckpointWhenReplayOutweighsCheckpoint works the STO's rule out by
// hand from the manifest and checkpoint sizes on the store: a table is
// checkpointed on exactly the commit whose manifests since its newest
// checkpoint (until it has one, since its first manifest) reach that
// checkpoint's bytes.
func TestCheckpointWhenReplayOutweighsCheckpoint(t *testing.T) {
	e := testEngine(t)
	cfg := DefaultConfig()
	cfg.AutoCompact = false
	cfg.PublishDelta = false
	s := New(e, cfg)
	var manifests []string
	e.Subscribe(func(ev core.CommitEvent) { manifests = append(manifests, ev.Manifest) })
	createTable(t, e, "u") // keeps its one manifest throughout
	insertRows(t, e, "u", 0, 10)
	createTable(t, e, "t")
	insertRows(t, e, "t", 0, 1000)
	if cps := s.Checkpoints(); len(cps) != 0 {
		t.Fatalf("a table with one manifest was checkpointed: %+v", cps)
	}

	base := blobSize(t, e, manifests[1])
	var tail int64
	var folded int
	// commit runs f, which commits one manifest, and reports whether the STO
	// checkpointed on it, failing unless that is exactly when the manifests
	// since the base reached it.
	commit := func(what string, f func()) bool {
		t.Helper()
		before := len(s.Checkpoints())
		f()
		m := blobSize(t, e, manifests[len(manifests)-1])
		tail += m
		folded++
		cps := s.Checkpoints()
		due := tail >= base
		if made := len(cps) - before; made > 1 || (made == 1) != due {
			t.Fatalf("%s: %d manifest bytes since a %d-byte base made %d checkpoints (errs %v)", what, tail, base, made, s.Errors())
		}
		if !due {
			return false
		}
		cp := cps[len(cps)-1]
		if cp.Bytes != blobSize(t, e, cp.Path) || cp.Manifest != folded || cp.ManifestBytes != tail || cp.LastManifest != m {
			t.Fatalf("%s: checkpoint %+v, want %d manifests of %d bytes, the newest %d", what, cp, folded, tail, m)
		}
		base, tail, folded = cp.Bytes, 0, 0
		return true
	}
	next := 1000
	insert := func() bool {
		return commit("insert", func() {
			insertRows(t, e, "t", next, next+10)
			next += 10
		})
	}
	for phase := 0; phase < 2; phase++ {
		n := 1
		for !insert() {
			n++
		}
		if n < 3 {
			t.Fatalf("checkpoint %d came after %d small inserts: the base is not what it weighs", phase+1, n)
		}
	}
	cps := s.Checkpoints()
	if len(cps) != 2 || cps[0].EndSeq != cps[1].Seq || cps[1].EndSeq != 0 {
		t.Fatalf("lifetimes = %+v", cps)
	}

	// A COMPACT's manifest rewrites the table's small files: it closes, on
	// its own commit, a gap several more small inserts would have needed.
	last := blobSize(t, e, manifests[len(manifests)-1])
	for base-tail > 3*last {
		insert()
	}
	if !commit("compact", func() { s.Compact("t") }) || len(s.Compactions()) != 1 {
		t.Fatalf("the compaction did not call for a checkpoint (compactions %+v)", s.Compactions())
	}
	for _, cp := range s.Checkpoints() {
		if cp.TableID != 2 {
			t.Fatalf("a table with one manifest was checkpointed: %+v", cp)
		}
	}
	if got := countRows(t, e, "t"); got != next {
		t.Fatalf("rows = %d, want %d: data corrupted by checkpointing", got, next)
	}
	e.Cache.Invalidate(2)
	if got := countRows(t, e, "t"); got != next {
		t.Fatalf("cold rows = %d, want %d", got, next)
	}
}

// TestSTOAttachedAfterLoadWeighsTheCatalog: an STO attached to an engine
// whose tables already hold manifests takes a table's replay from the
// catalog when it first sees the table, as one attached before would have
// kept it. Table t was loaded in one large INSERT, so its base is that
// manifest, not the first small INSERT the STO sees: small INSERTs call for
// a checkpoint only once they weigh as much as the load. Table u was
// checkpointed by hand and had two small INSERTs since, so its base is the
// checkpoint and those INSERTs count towards it.
func TestSTOAttachedAfterLoadWeighsTheCatalog(t *testing.T) {
	e := testEngine(t)
	var manifests []string
	e.Subscribe(func(ev core.CommitEvent) { manifests = append(manifests, ev.Manifest) })
	createTable(t, e, "t")
	insertRows(t, e, "t", 0, 1000)
	createTable(t, e, "u")
	insertRows(t, e, "u", 0, 1000)
	var cpBytes int64
	if err := e.AutoCommit(func(tx *core.Txn) error {
		cp, err := tx.CheckpointTable("u")
		cpBytes = cp.Bytes
		return err
	}); err != nil {
		t.Fatal(err)
	}
	insertRows(t, e, "u", 1000, 1010)
	insertRows(t, e, "u", 1010, 1020)
	cfg := DefaultConfig()
	cfg.AutoCompact = false
	cfg.PublishDelta = false
	s := New(e, cfg)

	for _, tc := range []struct {
		table string
		base  int64
		tail  int64
	}{
		{"t", blobSize(t, e, manifests[0]), 0},
		{"u", cpBytes, blobSize(t, e, manifests[2]) + blobSize(t, e, manifests[3])},
	} {
		made := len(s.Checkpoints())
		tail, inserts := tc.tail, 0
		for next := 2000; tail < tc.base; next += 10 {
			if made != len(s.Checkpoints()) {
				t.Fatalf("%s: checkpointed after %d small inserts, %d of %d bytes (errs %v)", tc.table, inserts, tail, tc.base, s.Errors())
			}
			insertRows(t, e, tc.table, next, next+10)
			tail += blobSize(t, e, manifests[len(manifests)-1])
			inserts++
		}
		if made+1 != len(s.Checkpoints()) {
			t.Fatalf("%s: %d small inserts reached the %d-byte base, made %d checkpoints (errs %v)", tc.table, inserts, tc.base, len(s.Checkpoints())-made, s.Errors())
		}
		if tc.table == "t" && inserts < 3 {
			t.Fatalf("t: checkpointed after %d small inserts: the load is not the base", inserts)
		}
	}
	if errs := s.Errors(); len(errs) > 0 {
		t.Fatal(errs)
	}
}

func TestCheckpointSpeedsReplayAndMatchesFullReplay(t *testing.T) {
	e := testEngine(t)
	cfg := DefaultConfig()
	cfg.AutoCompact = false
	cfg.PublishDelta = false
	s := New(e, cfg)
	createTable(t, e, "t")
	for i := 0; i < 9; i++ {
		insertRows(t, e, "t", i*5, i*5+5)
	}
	cps := s.Checkpoints()
	if len(cps) == 0 {
		t.Fatalf("nine manifests wrote no checkpoint (errs %v)", s.Errors())
	}
	// Fresh engine cache: reconstruct must use checkpoint + tail.
	e.Cache.Invalidate(1)
	if got := countRows(t, e, "t"); got != 45 {
		t.Fatalf("rows = %d", got)
	}
}

func TestAutoCompactRestoresHealth(t *testing.T) {
	e := testEngine(t)
	cfg := DefaultConfig()
	cfg.PublishDelta = false
	s := New(e, cfg)
	createTable(t, e, "t")
	insertRows(t, e, "t", 0, 200)
	// delete 60% of rows -> fragmentation beyond threshold
	if err := e.AutoCommit(func(tx *core.Txn) error {
		_, err := tx.Delete(context.Background(), "t", exec.Bin{Kind: exec.OpLt, L: exec.ColRef{Idx: 1}, R: exec.Const{Val: int64(120)}})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	samples := s.SampleHealth()
	if len(samples) != 1 || samples[0].Healthy {
		t.Fatalf("samples = %+v, want unhealthy", samples)
	}
	if len(s.Compactions()) == 0 {
		t.Fatalf("no compaction ran; errors: %v", s.Errors())
	}
	// after compaction the table is healthy again and data is intact
	samples = s.SampleHealth()
	if !samples[0].Healthy {
		t.Fatalf("still unhealthy after compaction: %+v (errs %v)", samples, s.Errors())
	}
	if got := countRows(t, e, "t"); got != 80 {
		t.Fatalf("rows after compaction = %d", got)
	}
	log := s.HealthLog()
	if len(log) != 2 || log[0].Healthy || !log[1].Healthy {
		t.Fatalf("health log = %+v", log)
	}
}

func TestCompactionPhysicallyDropsDeletedRows(t *testing.T) {
	e := testEngine(t)
	cfg := DefaultConfig()
	cfg.PublishDelta = false
	s := New(e, cfg)
	createTable(t, e, "t")
	insertRows(t, e, "t", 0, 100)
	_ = e.AutoCommit(func(tx *core.Txn) error {
		_, err := tx.Delete(context.Background(), "t", exec.Bin{Kind: exec.OpLt, L: exec.ColRef{Idx: 1}, R: exec.Const{Val: int64(50)}})
		return err
	})
	s.Compact("t")
	if len(s.Compactions()) != 1 {
		t.Fatalf("compactions = %+v errs=%v", s.Compactions(), s.Errors())
	}
	c := s.Compactions()[0]
	if c.RowsDropped != 50 || c.RowsKept != 50 {
		t.Fatalf("compaction = %+v", c)
	}
	tx := e.Begin()
	defer tx.Rollback()
	st, err := tx.Stats("t")
	if err != nil {
		t.Fatal(err)
	}
	if st.Deleted != 0 {
		t.Fatalf("deleted rows survived compaction: %+v", st)
	}
}

func TestCompactionConflictsWithConcurrentUserTxnAndRetries(t *testing.T) {
	e := testEngine(t)
	cfg := DefaultConfig()
	cfg.PublishDelta = false
	s := New(e, cfg)
	createTable(t, e, "t")
	insertRows(t, e, "t", 0, 100)
	_ = e.AutoCommit(func(tx *core.Txn) error {
		_, err := tx.Delete(context.Background(), "t", exec.Bin{Kind: exec.OpLt, L: exec.ColRef{Idx: 1}, R: exec.Const{Val: int64(60)}})
		return err
	})
	// A user transaction commits an update between compaction's snapshot and
	// its commit — forcing the SI conflict the paper describes. We simulate
	// by interleaving manually: start compaction txn, commit a user delete,
	// then try to commit compaction.
	compactTx := e.Begin()
	if _, err := compactTx.CompactTable("t"); err != nil {
		t.Fatal(err)
	}
	if err := e.AutoCommit(func(tx *core.Txn) error {
		_, err := tx.Delete(context.Background(), "t", exec.Bin{Kind: exec.OpEq, L: exec.ColRef{Idx: 1}, R: exec.Const{Val: int64(70)}})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := compactTx.Commit(); !catalog.IsWriteConflict(err) {
		t.Fatalf("compaction commit: %v, want conflict", err)
	}
	// The orchestrator's retry path succeeds afterwards.
	s.Compact("t")
	if len(s.Compactions()) != 1 {
		t.Fatalf("retry failed: %v", s.Errors())
	}
	if got := countRows(t, e, "t"); got != 39 {
		t.Fatalf("rows = %d", got)
	}
}

func TestGarbageCollectionAbortedTxnFiles(t *testing.T) {
	e := testEngine(t)
	cfg := DefaultConfig()
	cfg.PublishDelta = false
	s := New(e, cfg)
	createTable(t, e, "t")
	insertRows(t, e, "t", 0, 10)
	before := e.Store.Count()
	// aborted transaction leaves dangling data files + manifest blob
	tx := e.Begin()
	b := colfile.NewBatch(schema())
	_ = b.AppendRow("zz", int64(999))
	if _, err := tx.Insert("t", b); err != nil {
		t.Fatal(err)
	}
	tx.Rollback()
	if e.Store.Count() <= before {
		t.Fatal("no dangling files to collect")
	}
	res, err := s.GarbageCollect()
	if err != nil {
		t.Fatal(err)
	}
	if res.DeletedOrphans == 0 {
		t.Fatalf("gc = %+v", res)
	}
	if got := countRows(t, e, "t"); got != 10 {
		t.Fatal("gc deleted live data")
	}
}

func TestGarbageCollectionRetention(t *testing.T) {
	e := testEngine(t)
	cfg := DefaultConfig()
	cfg.PublishDelta = false
	s := New(e, cfg)
	createTable(t, e, "t")
	insertRows(t, e, "t", 0, 100)
	// retention 0: removed files are collectible immediately after the
	// removing commit.
	setRetention(t, e, "t", 0)
	_ = e.AutoCommit(func(tx *core.Txn) error {
		_, err := tx.Delete(context.Background(), "t", exec.Bin{Kind: exec.OpLt, L: exec.ColRef{Idx: 1}, R: exec.Const{Val: int64(60)}})
		return err
	})
	s.Compact("t") // logically removes the fragmented originals
	// one more commit so currentSeq - removedSeq > 0
	insertRows(t, e, "t", 1000, 1001)
	res, err := s.GarbageCollect()
	if err != nil {
		t.Fatal(err)
	}
	if res.DeletedData == 0 {
		t.Fatalf("gc did not reclaim removed files: %+v", res)
	}
	if got := countRows(t, e, "t"); got != 41 {
		t.Fatalf("rows = %d", got)
	}
	// with huge retention nothing else is collected
	setRetention(t, e, "t", 1<<40)
	res2, _ := s.GarbageCollect()
	if res2.DeletedData != 0 {
		t.Fatalf("gc ignored retention: %+v", res2)
	}
}

func setRetention(t *testing.T, e *core.Engine, table string, seqs int64) {
	t.Helper()
	if err := e.AutoCommit(func(tx *core.Txn) error {
		return tx.SetRetention(table, seqs)
	}); err != nil {
		t.Fatal(err)
	}
}

func TestGCCloneSharedLineage(t *testing.T) {
	e := testEngine(t)
	cfg := DefaultConfig()
	cfg.PublishDelta = false
	s := New(e, cfg)
	createTable(t, e, "src")
	insertRows(t, e, "src", 0, 50)
	setRetention(t, e, "src", 0)
	if err := e.AutoCommit(func(tx *core.Txn) error {
		_, err := tx.CloneTable("src", "clone", -1)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// src compacts away its original files; the clone still references them.
	_ = e.AutoCommit(func(tx *core.Txn) error {
		_, err := tx.Delete(context.Background(), "src", exec.Bin{Kind: exec.OpLt, L: exec.ColRef{Idx: 1}, R: exec.Const{Val: int64(40)}})
		return err
	})
	s.Compact("src")
	insertRows(t, e, "src", 1000, 1001)
	res, err := s.GarbageCollect()
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	// the clone must still read all 50 original rows
	if got := countRows(t, e, "clone"); got != 50 {
		t.Fatalf("clone rows = %d after GC; shared-lineage file deleted", got)
	}
	if got := countRows(t, e, "src"); got != 11 {
		t.Fatalf("src rows = %d", got)
	}
}

func TestDeltaPublishing(t *testing.T) {
	e := testEngine(t)
	cfg := DefaultConfig()
	cfg.AutoCompact = false
	s := New(e, cfg)
	createTable(t, e, "t")
	insertRows(t, e, "t", 0, 10)
	insertRows(t, e, "t", 10, 20)
	pubs := s.Published()
	if len(pubs) != 2 {
		t.Fatalf("published = %v", pubs)
	}
	if !strings.Contains(pubs[0], "_delta_log/00000000000000000000.json") {
		t.Fatalf("first version path = %s", pubs[0])
	}
	data, err := e.Store.Get(pubs[1])
	if err != nil {
		t.Fatal(err)
	}
	adds, _, info, err := manifest.ParseDeltaLog(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(adds) == 0 || info == nil {
		t.Fatalf("delta log empty: adds=%d", len(adds))
	}
	var rows int64
	for _, a := range adds {
		rows += a.NumRecords
	}
	if rows != 10 {
		t.Fatalf("published rows = %d", rows)
	}
}

func TestIcebergPublishingThroughSTO(t *testing.T) {
	e := testEngine(t)
	cfg := DefaultConfig()
	cfg.AutoCompact = false
	cfg.PublishDelta = false
	cfg.PublishIceberg = true
	s := New(e, cfg)
	createTable(t, e, "t")
	insertRows(t, e, "t", 0, 10)
	insertRows(t, e, "t", 10, 20)
	pubs := s.Published()
	if len(pubs) != 2 {
		t.Fatalf("published = %v (errs %v)", pubs, s.Errors())
	}
	data, err := e.Store.Get(pubs[1])
	if err != nil {
		t.Fatal(err)
	}
	md, err := manifest.ParseIcebergMetadata(data)
	if err != nil {
		t.Fatal(err)
	}
	if md.FormatVersion != 2 || len(md.Snapshots) != 2 {
		t.Fatalf("metadata = %+v", md)
	}
	// snapshot chain sequence numbers are strictly increasing
	if md.Snapshots[0].SequenceNumber >= md.Snapshots[1].SequenceNumber {
		t.Fatalf("snapshots out of order: %+v", md.Snapshots)
	}
	// manifest list of the latest snapshot covers all 20 rows
	listData, err := e.Store.Get(md.Snapshots[1].ManifestListPath)
	if err != nil {
		t.Fatal(err)
	}
	files, err := manifest.ParseIcebergManifestList(listData)
	if err != nil {
		t.Fatal(err)
	}
	var rows int64
	for _, f := range files {
		if f.Content == 0 {
			rows += f.RecordCount
		}
	}
	if rows != 20 {
		t.Fatalf("published rows = %d", rows)
	}
}

func TestSTOErrorsSurface(t *testing.T) {
	e := testEngine(t)
	s := New(e, DefaultConfig())
	s.Compact("missing-table")
	if len(s.Errors()) == 0 {
		t.Fatal("missing table error swallowed")
	}
}

// TestColdReplayMatchesWarmStateAcrossCheckpoints: over data-maintenance
// phases with compaction, after every commit (and the checkpoint it may call
// for) a snapshot replayed cold — newest checkpoint plus the manifests since
// — equals the state the snapshot cache advanced to: the same files with
// their deletion vectors and deleted rows, and folded sketches bit for bit. Per table, the checkpoints written decode to no more
// than the manifests committed plus the newest checkpoint.
func TestColdReplayMatchesWarmStateAcrossCheckpoints(t *testing.T) {
	e := testEngine(t)
	s := New(e, Config{})
	manifestBytes := map[int64]int64{}
	warmed, checked := false, 0
	e.Subscribe(func(ev core.CommitEvent) {
		manifestBytes[ev.TableID] += ev.Bytes
		if !warmed {
			return // the load: no reader has replayed a table yet
		}
		warm := e.Cache.Get(ev.TableID, ev.Seq)
		if warm == nil {
			t.Errorf("seq %d: the cache lost table %d", ev.Seq, ev.TableID)
			return
		}
		e.Cache.Invalidate(ev.TableID)
		tx := e.Begin()
		defer tx.Rollback()
		meta, err := lookupByID(tx, ev.TableID)
		if err != nil {
			t.Error(err)
			return
		}
		cold, _, err := tx.Snapshot(meta.Name, ev.Seq)
		if err != nil {
			t.Error(err)
			return
		}
		if diff := stateDiff(warm, cold, len(meta.Schema)); diff != "" {
			t.Errorf("seq %d, %s: cold replay differs from the warm state: %s", ev.Seq, meta.Name, diff)
		}
		checked++
	})
	if err := workload.LoadDS(e, 300); err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	for _, name := range workload.DSTableNames() {
		if _, _, err := tx.Snapshot(name, -1); err != nil {
			t.Fatal(err)
		}
	}
	tx.Rollback()
	warmed = true
	next := int64(10_000)
	for phase := 0; phase < 3; phase++ {
		if _, err := workload.RunDM(e, workload.DMConfig{
			Tables:     workload.DSTableNames()[:3],
			InsertRows: 40, DeleteEvery: 3, NextSK: &next,
			Compact: s.Compact,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if errs := s.Errors(); len(errs) > 0 {
		t.Fatal(errs)
	}
	cps := s.Checkpoints()
	if len(s.Compactions()) == 0 || len(cps) == 0 || checked < 70 {
		t.Fatalf("%d commits checked, %d compactions, %d checkpoints: the history does not cover the relation",
			checked, len(s.Compactions()), len(cps))
	}
	// The rule bounds the bytes checkpoints write.
	written, newest := map[int64]int64{}, map[int64]int64{}
	for _, cp := range cps {
		written[cp.TableID] += cp.Bytes
		newest[cp.TableID] = cp.Bytes
	}
	for id, w := range written {
		if w > manifestBytes[id]+newest[id] {
			t.Errorf("table %d: %d checkpoint bytes over %d manifest bytes and a %d-byte newest checkpoint",
				id, w, manifestBytes[id], newest[id])
		}
	}
}

// stateDiff describes how two states of one table differ, or returns "".
func stateDiff(a, b *manifest.TableState, ncols int) string {
	fa, _ := json.Marshal(a.LiveFiles())
	fb, _ := json.Marshal(b.LiveFiles())
	if !bytes.Equal(fa, fb) {
		return fmt.Sprintf("files\n%s\n%s", fa, fb)
	}
	ska, oka := a.Sketches(ncols)
	skb, okb := b.Sketches(ncols)
	ja, _ := json.Marshal(ska)
	jb, _ := json.Marshal(skb)
	if oka != okb || !bytes.Equal(ja, jb) {
		return fmt.Sprintf("sketches %v %s, %v %s", oka, ja, okb, jb)
	}
	return ""
}
