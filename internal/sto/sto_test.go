package sto

import (
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
	ms, err := tx.Morsels(state, meta, 0)
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

func TestCheckpointTriggeredByThreshold(t *testing.T) {
	e := testEngine(t)
	cfg := DefaultConfig()
	cfg.CheckpointEvery = 5
	cfg.AutoCompact = false
	s := New(e, cfg)
	createTable(t, e, "t")
	for i := 0; i < 5; i++ {
		insertRows(t, e, "t", i*10, i*10+10)
	}
	cps := s.Checkpoints()
	if len(cps) != 1 {
		t.Fatalf("checkpoints = %+v", cps)
	}
	if cps[0].Manifest != 5 {
		t.Fatalf("folded %d manifests", cps[0].Manifest)
	}
	// 5 more commits: second checkpoint; first gets its EndSeq closed.
	for i := 5; i < 10; i++ {
		insertRows(t, e, "t", i*10, i*10+10)
	}
	cps = s.Checkpoints()
	if len(cps) != 2 {
		t.Fatalf("checkpoints = %d", len(cps))
	}
	if cps[0].EndSeq == 0 || cps[1].EndSeq != 0 {
		t.Fatalf("lifetimes = %+v", cps)
	}
	if countRows(t, e, "t") != 100 {
		t.Fatal("data corrupted by checkpointing")
	}
}

func TestCheckpointSpeedsReplayAndMatchesFullReplay(t *testing.T) {
	e := testEngine(t)
	cfg := DefaultConfig()
	cfg.CheckpointEvery = 4
	cfg.AutoCompact = false
	cfg.PublishDelta = false
	_ = New(e, cfg)
	createTable(t, e, "t")
	for i := 0; i < 9; i++ {
		insertRows(t, e, "t", i*5, i*5+5)
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
	cfg.CheckpointEvery = 0
	s := New(e, cfg)
	createTable(t, e, "t")
	insertRows(t, e, "t", 0, 200)
	// delete 60% of rows -> fragmentation beyond threshold
	if err := e.AutoCommit(func(tx *core.Txn) error {
		_, err := tx.Delete("t", exec.Bin{Kind: exec.OpLt, L: exec.ColRef{Idx: 1}, R: exec.Const{Val: int64(120)}})
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
		_, err := tx.Delete("t", exec.Bin{Kind: exec.OpLt, L: exec.ColRef{Idx: 1}, R: exec.Const{Val: int64(50)}})
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
		_, err := tx.Delete("t", exec.Bin{Kind: exec.OpLt, L: exec.ColRef{Idx: 1}, R: exec.Const{Val: int64(60)}})
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
		_, err := tx.Delete("t", exec.Bin{Kind: exec.OpEq, L: exec.ColRef{Idx: 1}, R: exec.Const{Val: int64(70)}})
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
		_, err := tx.Delete("t", exec.Bin{Kind: exec.OpLt, L: exec.ColRef{Idx: 1}, R: exec.Const{Val: int64(60)}})
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
		_, err := tx.Delete("src", exec.Bin{Kind: exec.OpLt, L: exec.ColRef{Idx: 1}, R: exec.Const{Val: int64(40)}})
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
