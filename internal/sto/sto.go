// Package sto implements the System Task Orchestrator (paper Section 5): the
// dedicated micro-service that watches commit notifications and storage
// statistics, then triggers data compaction, manifest checkpointing, garbage
// collection and lake-snapshot publishing — all without user intervention.
// Commit notifications arrive synchronously, inside Txn.Commit, so what the
// STO does on a commit (publishing, a checkpoint) is in that commit's
// latency. The mechanisms live in internal/core (they are ordinary
// transactions); this package provides the triggers, bookkeeping and the
// timelines the Section 7.3 figures are drawn from.
package sto

import (
	"sync"
	"time"

	"polaris/internal/catalog"
	"polaris/internal/core"
	"polaris/internal/manifest"
)

// Config tunes the orchestrator's triggers. Checkpointing (5.2) has no knob:
// a table is checkpointed once the manifests committed since its newest
// checkpoint weigh as much as that checkpoint (see replayLog).
type Config struct {
	// AutoCompact triggers compaction when a health sample reports a table
	// unhealthy (5.1).
	AutoCompact bool
	// PublishDelta publishes every committed manifest as a Delta log (5.4).
	PublishDelta bool
	// PublishIceberg additionally publishes Iceberg-shaped metadata (the
	// multi-format converter path of footnote 1).
	PublishIceberg bool
}

// compactRetries bounds conflict retries of the compaction txn.
const compactRetries = 3

// DefaultConfig matches the engine's defaults.
func DefaultConfig() Config {
	return Config{AutoCompact: true, PublishDelta: true}
}

// HealthSample is one point of a table's storage-health timeline (Fig. 10).
type HealthSample struct {
	Table   string
	TableID int64
	When    time.Time
	Seq     int64
	Healthy bool
	Small   int
	Frag    int
}

// CheckpointRecord is one checkpoint's lifetime entry (Fig. 11): it is
// superseded (EndSeq set) when the next checkpoint for the table is created.
type CheckpointRecord struct {
	TableID int64
	Path    string
	Seq     int64
	EndSeq  int64 // 0 while the checkpoint is the newest
	Created time.Time
	Bytes   int64 // the checkpoint file's size
	// Manifest and ManifestBytes count the manifests committed since the
	// previous checkpoint (or the table's first manifest) that this one
	// folds; LastManifest is the size of the newest of them.
	Manifest      int
	ManifestBytes int64
	LastManifest  int64
}

// replayLog is what a cold snapshot of one table replays: a base (its newest
// checkpoint, or until it has one its first manifest) and the manifests
// committed since. The table is due for a checkpoint once the tail weighs as
// much as the base, so the bytes checkpoints write stay within one
// checkpoint of the manifests' and a cold snapshot decodes at most about
// twice one checkpoint. Manifests and checkpoints share one binary encoding
// and are stored as they decode, so a blob's size is what it costs to read.
type replayLog struct {
	base      int64 // stored bytes
	baseSeq   int64
	tail      []committedManifest // sequence order is not guaranteed
	tailBytes int64
	// checkpointing is set while a checkpoint the log called for runs, so
	// commits racing it do not start a second one.
	checkpointing bool
}

type committedManifest struct{ seq, bytes int64 }

// note records a committed manifest and reports whether the table is now
// due for a checkpoint.
func (l *replayLog) note(seq, bytes int64) bool {
	if seq <= l.baseSeq {
		return false // already folded into the base
	}
	l.tail = append(l.tail, committedManifest{seq, bytes})
	l.tailBytes += bytes
	if l.checkpointing || l.tailBytes < l.base {
		return false
	}
	l.checkpointing = true
	return true
}

// fold makes cp the base and drops the tail manifests it covers, returning
// their count, bytes and the size of the newest of them.
func (l *replayLog) fold(cp core.Checkpoint) (n int, bytes, last int64) {
	var lastSeq int64
	kept := l.tail[:0]
	for _, m := range l.tail {
		if m.seq > cp.Seq {
			kept = append(kept, m)
			continue
		}
		n++
		bytes += m.bytes
		if m.seq > lastSeq {
			lastSeq, last = m.seq, m.bytes
		}
	}
	l.tail = kept
	l.tailBytes -= bytes
	l.base, l.baseSeq = cp.Bytes, cp.Seq
	return n, bytes, last
}

// STO is the orchestrator. Create with New and attach to an engine.
type STO struct {
	eng *core.Engine
	cfg Config

	mu            sync.Mutex
	replay        map[int64]*replayLog
	deltaVersions map[int64]int64
	icebergChains map[int64][]manifest.IcebergSnapshot
	healthLog     []HealthSample
	checkpoints   []CheckpointRecord
	compactions   []core.CompactionResult
	published     []string
	errs          []error
}

// New attaches an orchestrator to the engine's commit notifications.
func New(eng *core.Engine, cfg Config) *STO {
	s := &STO{
		eng: eng, cfg: cfg,
		replay:        make(map[int64]*replayLog),
		deltaVersions: make(map[int64]int64),
		icebergChains: make(map[int64][]manifest.IcebergSnapshot),
	}
	eng.Subscribe(s.onCommit)
	return s
}

// onCommit is the SQL FE's "notify STO on every transaction commit" (5.2,
// 5.4). It publishes the manifest and, once the table's replay outweighs its
// checkpoint, checkpoints.
func (s *STO) onCommit(ev core.CommitEvent) {
	s.mu.Lock()
	if s.replay[ev.TableID] == nil {
		s.mu.Unlock()
		seeded, err := s.seed(ev.TableID, ev.Seq)
		s.mu.Lock()
		if err != nil {
			s.errs = append(s.errs, err)
		}
		if s.replay[ev.TableID] == nil {
			s.replay[ev.TableID] = seeded
		}
	}
	due := false
	if log := s.replay[ev.TableID]; log != nil {
		due = log.note(ev.Seq, ev.Bytes)
	} else {
		s.replay[ev.TableID] = &replayLog{base: ev.Bytes, baseSeq: ev.Seq}
	}
	var version int64
	if s.cfg.PublishDelta || s.cfg.PublishIceberg {
		version = s.deltaVersions[ev.TableID]
		s.deltaVersions[ev.TableID]++
	}
	chain := s.icebergChains[ev.TableID]
	s.mu.Unlock()

	if s.cfg.PublishDelta {
		path, err := s.eng.PublishDelta(ev, version, s.stateFor(ev))
		s.mu.Lock()
		if err != nil {
			s.errs = append(s.errs, err)
		} else {
			s.published = append(s.published, path)
		}
		s.mu.Unlock()
	}
	if s.cfg.PublishIceberg {
		path, newChain, err := s.eng.PublishIceberg(ev, version, s.stateFor(ev), chain)
		s.mu.Lock()
		if err != nil {
			s.errs = append(s.errs, err)
		} else {
			s.published = append(s.published, path)
			s.icebergChains[ev.TableID] = newChain
		}
		s.mu.Unlock()
	}
	if due {
		s.CheckpointTable(ev.TableID)
	}
}

// seed rebuilds the replay log of a table the STO first meets at a commit of
// sequence seq from the catalog: the base is the table's newest checkpoint
// before seq or, without one, its first manifest, and the tail the
// manifests committed after the base and before seq. An STO attached after
// a table was loaded so weighs what a cold snapshot of the table replays, as
// one attached before the load would, instead of taking the first small
// manifest it sees as the base. It returns nil when the table has no
// manifest before seq.
func (s *STO) seed(tableID, seq int64) (*replayLog, error) {
	tx := s.eng.Catalog.Begin(catalog.Snapshot)
	defer tx.Rollback()
	rows, err := catalog.ScanManifests(tx, tableID, seq-1)
	if err != nil || len(rows) == 0 {
		return nil, err
	}
	cp, ok, err := catalog.LatestCheckpoint(tx, tableID, seq-1)
	if err != nil {
		return nil, err
	}
	size := func(path string) (int64, error) {
		info, err := s.eng.Store.Head(path)
		return info.Size, err
	}
	base, baseSeq := rows[0].ManifestFile, rows[0].Seq
	if ok {
		base, baseSeq = cp.Path, cp.Seq
	}
	log := &replayLog{baseSeq: baseSeq}
	if log.base, err = size(base); err != nil {
		return nil, err
	}
	for _, row := range rows {
		if row.Seq <= log.baseSeq {
			continue
		}
		bytes, err := size(row.ManifestFile)
		if err != nil {
			return nil, err
		}
		log.tail = append(log.tail, committedManifest{row.Seq, bytes})
		log.tailBytes += bytes
	}
	return log, nil
}

// stateFor returns the post-commit snapshot of the event's table: from the
// snapshot cache when warm, otherwise by reconstructing in a fresh
// transaction (the STO reads the committed manifest like any other reader).
func (s *STO) stateFor(ev core.CommitEvent) *manifest.TableState {
	if st := s.eng.Cache.Get(ev.TableID, ev.Seq); st != nil {
		return st
	}
	tx := s.eng.Begin()
	defer tx.Rollback()
	meta, err := lookupByID(tx, ev.TableID)
	if err != nil {
		s.recordErr(err)
		return nil
	}
	st, _, err := tx.Snapshot(meta.Name, ev.Seq)
	if err != nil {
		s.recordErr(err)
		return nil
	}
	return st
}

// CheckpointTable checkpoints one table now and records its lifetime.
func (s *STO) CheckpointTable(tableID int64) {
	cp, err := s.checkpoint(tableID)
	s.mu.Lock()
	defer s.mu.Unlock()
	log := s.replay[tableID]
	if log == nil {
		log = &replayLog{}
		s.replay[tableID] = log
	}
	log.checkpointing = false
	if err != nil {
		s.errs = append(s.errs, err)
		return
	}
	if cp.Path == "" {
		return
	}
	n, bytes, last := log.fold(cp)
	now := time.Now()
	// close the lifetime of the previous newest checkpoint for this table
	for i := len(s.checkpoints) - 1; i >= 0; i-- {
		if s.checkpoints[i].TableID == tableID && s.checkpoints[i].EndSeq == 0 {
			s.checkpoints[i].EndSeq = s.eng.Catalog.CurrentSeq()
			break
		}
	}
	s.checkpoints = append(s.checkpoints, CheckpointRecord{
		TableID: tableID, Path: cp.Path, Seq: s.eng.Catalog.CurrentSeq(),
		Created: now, Bytes: cp.Bytes,
		Manifest: n, ManifestBytes: bytes, LastManifest: last,
	})
}

// checkpoint writes and commits one checkpoint of the table.
func (s *STO) checkpoint(tableID int64) (core.Checkpoint, error) {
	tx := s.eng.Begin()
	defer tx.Rollback()
	meta, err := lookupByID(tx, tableID)
	if err != nil {
		return core.Checkpoint{}, err
	}
	cp, err := tx.CheckpointTable(meta.Name)
	if err != nil || cp.Path == "" {
		return core.Checkpoint{}, err
	}
	return cp, tx.Commit()
}

func lookupByID(tx *core.Txn, tableID int64) (catalog.TableMeta, error) {
	tables, err := tx.ListTables()
	if err != nil {
		return catalog.TableMeta{}, err
	}
	for _, m := range tables {
		if m.ID == tableID {
			return m, nil
		}
	}
	return catalog.TableMeta{}, catalog.ErrTableNotFound
}

// SampleHealth gathers one storage-health sample per table (the coarse
// statistics SELECTs push to the STO, 5.1) and, with AutoCompact, schedules
// compaction for unhealthy tables. It returns the samples.
func (s *STO) SampleHealth() []HealthSample {
	tx := s.eng.Begin()
	defer tx.Rollback()
	tables, err := tx.ListTables()
	if err != nil {
		s.recordErr(err)
		return nil
	}
	var out []HealthSample
	var toCompact []string
	for _, m := range tables {
		st, err := tx.Stats(m.Name)
		if err != nil {
			s.recordErr(err)
			continue
		}
		sample := HealthSample{
			Table: m.Name, TableID: m.ID, When: time.Now(), Seq: st.LastSeq,
			Healthy: st.Health.Healthy(),
			Small:   st.Health.SmallFiles, Frag: st.Health.FragmentedFiles,
		}
		out = append(out, sample)
		if !sample.Healthy && s.cfg.AutoCompact {
			toCompact = append(toCompact, m.Name)
		}
	}
	s.mu.Lock()
	s.healthLog = append(s.healthLog, out...)
	s.mu.Unlock()
	for _, name := range toCompact {
		s.Compact(name)
	}
	return out
}

// Compact compacts one table now, retrying on SI conflicts with concurrent
// user transactions (the downside called out in 5.1).
func (s *STO) Compact(table string) {
	var result core.CompactionResult
	err := s.eng.RunWithRetries(compactRetries, func(tx *core.Txn) error {
		res, err := tx.CompactTable(table)
		result = res
		return err
	})
	if err != nil {
		s.recordErr(err)
		return
	}
	if result.InputFiles > 0 {
		s.mu.Lock()
		s.compactions = append(s.compactions, result)
		s.mu.Unlock()
	}
}

// GarbageCollect runs one GC pass (5.3).
func (s *STO) GarbageCollect() (core.GCResult, error) {
	res, err := s.eng.GarbageCollect()
	if err != nil {
		s.recordErr(err)
	}
	return res, err
}

func (s *STO) recordErr(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.errs = append(s.errs, err)
}

// HealthLog returns the recorded health timeline (Fig. 10's bars).
func (s *STO) HealthLog() []HealthSample {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]HealthSample(nil), s.healthLog...)
}

// Checkpoints returns the checkpoint lifetime records (Fig. 11's bars).
func (s *STO) Checkpoints() []CheckpointRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]CheckpointRecord(nil), s.checkpoints...)
}

// Compactions returns completed compaction results.
func (s *STO) Compactions() []core.CompactionResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]core.CompactionResult(nil), s.compactions...)
}

// Published returns the Delta log paths written so far (5.4).
func (s *STO) Published() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.published...)
}

// Errors returns background errors the orchestrator swallowed.
func (s *STO) Errors() []error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]error(nil), s.errs...)
}
