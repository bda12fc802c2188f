// Package sto implements the System Task Orchestrator (paper Section 5): the
// dedicated micro-service that watches commit notifications and storage
// statistics, then triggers data compaction, manifest checkpointing, garbage
// collection and async lake-snapshot publishing — all without user
// intervention. The mechanisms live in internal/core (they are ordinary
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

// Config tunes the orchestrator's triggers.
type Config struct {
	// CheckpointEvery creates a manifest checkpoint once a table accumulates
	// this many manifests since the last checkpoint (5.2). Zero disables.
	CheckpointEvery int
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
	return Config{CheckpointEvery: 10, AutoCompact: true, PublishDelta: true}
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
	TableID  int64
	Path     string
	Seq      int64
	EndSeq   int64 // 0 while the checkpoint is the newest
	Created  time.Time
	Manifest int // manifests folded into this checkpoint
}

// STO is the orchestrator. Create with New and attach to an engine.
type STO struct {
	eng *core.Engine
	cfg Config

	mu sync.Mutex
	// manifestsSince counts manifests per table since the last checkpoint.
	manifestsSince map[int64]int
	deltaVersions  map[int64]int64
	icebergChains  map[int64][]manifest.IcebergSnapshot
	healthLog      []HealthSample
	checkpoints    []CheckpointRecord
	compactions    []core.CompactionResult
	published      []string
	errs           []error
}

// New attaches an orchestrator to the engine's commit notifications.
func New(eng *core.Engine, cfg Config) *STO {
	s := &STO{
		eng: eng, cfg: cfg,
		manifestsSince: make(map[int64]int),
		deltaVersions:  make(map[int64]int64),
		icebergChains:  make(map[int64][]manifest.IcebergSnapshot),
	}
	eng.Subscribe(s.onCommit)
	return s
}

// onCommit is the SQL FE's "notify STO on every transaction commit" (5.2,
// 5.4). It publishes the manifest and, past the threshold, checkpoints.
func (s *STO) onCommit(ev core.CommitEvent) {
	s.mu.Lock()
	s.manifestsSince[ev.TableID]++
	due := s.cfg.CheckpointEvery > 0 && s.manifestsSince[ev.TableID] >= s.cfg.CheckpointEvery
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
	tx := s.eng.Begin()
	meta, err := lookupByID(tx, tableID)
	if err != nil {
		tx.Rollback()
		s.recordErr(err)
		return
	}
	path, err := tx.CheckpointTable(meta.Name)
	if err != nil {
		tx.Rollback()
		s.recordErr(err)
		return
	}
	if path == "" {
		tx.Rollback()
		return
	}
	if err := tx.Commit(); err != nil {
		s.recordErr(err)
		return
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	folded := s.manifestsSince[tableID]
	s.manifestsSince[tableID] = 0
	now := time.Now()
	// close the lifetime of the previous newest checkpoint for this table
	for i := len(s.checkpoints) - 1; i >= 0; i-- {
		if s.checkpoints[i].TableID == tableID && s.checkpoints[i].EndSeq == 0 {
			s.checkpoints[i].EndSeq = s.eng.Catalog.CurrentSeq()
			break
		}
	}
	s.checkpoints = append(s.checkpoints, CheckpointRecord{
		TableID: tableID, Path: path, Seq: s.eng.Catalog.CurrentSeq(),
		Created: now, Manifest: folded,
	})
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
