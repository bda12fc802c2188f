// Package manifest implements Polaris's physical metadata layer (paper
// Sections 2.2, 3.2): transaction manifest files that record the changes a
// committed transaction made to a log-structured table, snapshot
// reconstruction by incremental replay, manifest checkpoints, and the
// Delta-log-style publishing transform used for lake snapshots.
//
// A manifest file is a sequence of binary action blocks (codec.go). Each BE
// task serializes its actions as one block of the shared transaction
// manifest blob; the SQL FE commits the aggregated block list (see
// objectstore). Because every block starts with its own header and action
// count and front-codes its paths from scratch, concatenation of blocks in
// any task order yields a valid manifest. Checkpoints use the same action
// encoding for their file entries (checkpoint.go). Manifests and
// checkpoints are durable metadata only this engine reads; the Delta and
// Iceberg publishers (publish.go, iceberg.go) write JSON for other engines.
package manifest

import (
	"fmt"
	"maps"
	"sort"
	"sync/atomic"

	"polaris/internal/colfile"
)

// Op is the kind of change an action records.
type Op string

// Action operations.
const (
	OpAdd    Op = "add"
	OpRemove Op = "remove"
)

// Kind is the kind of file an action refers to.
type Kind string

// File kinds.
const (
	KindData Kind = "data"
	KindDV   Kind = "dv"
)

// MixedCells is the Partition of a data file whose rows span distribution
// cells: a write below the small-file threshold lands as such a file, and
// compaction spreads its rows over per-cell files.
const MixedCells = -1

// Action is one entry of a transaction manifest: add or remove one data file
// or deletion-vector file.
type Action struct {
	Op   Op
	Kind Kind
	Path string
	// Rows and Size describe a data file (KindData).
	Rows int64
	Size int64
	// Target is the data file a deletion vector applies to (KindDV).
	Target string
	// DeletedRows is the cardinality of a deletion vector (KindDV).
	DeletedRows int64
	// Partition is the distribution bucket the data file belongs to, d(r) in
	// the paper's cell model, or MixedCells for a file whose rows span cells
	// (KindData; a deletion vector's cell is its target's).
	Partition int
	// Sketches carries the sealed file's per-column statistics sketches
	// (KindData; schema-aligned). Optional: actions from before the stats
	// layer, or writers that skip them, simply leave the planner blind to
	// this file's NDV/min-max (row counts still come from Rows).
	Sketches []colfile.ColSketch
}

// Validate checks structural invariants of a single action.
func (a Action) Validate() error {
	if a.Op != OpAdd && a.Op != OpRemove {
		return fmt.Errorf("manifest: bad op %q", a.Op)
	}
	if a.Kind != KindData && a.Kind != KindDV {
		return fmt.Errorf("manifest: bad kind %q", a.Kind)
	}
	if a.Path == "" {
		return fmt.Errorf("manifest: empty path")
	}
	if a.Kind == KindDV && a.Target == "" {
		return fmt.Errorf("manifest: dv action %s missing target", a.Path)
	}
	return nil
}

// FileEntry is the live state of one data file within a table snapshot.
type FileEntry struct {
	Path        string
	Rows        int64
	Size        int64
	Partition   int    // a cell, or MixedCells
	DV          string // current deletion-vector file, if any
	DeletedRows int64  // cardinality of DV
	// Sketches are the file's per-column statistics sketches, copied from the
	// Add action (nil for files added before the stats layer existed).
	Sketches []colfile.ColSketch
}

// LiveRows returns the visible row count of the file.
func (f *FileEntry) LiveRows() int64 { return f.Rows - f.DeletedRows }

// TableState is a reconstructed snapshot of a log-structured table.
//
// A state is read-only once it is published: once the snapshot cache holds
// it or a transaction's Snapshot returns it, any number of readers share the
// pointer, and nothing writes it again. A change yields a successor (next)
// instead. Only the state a replay is still building is written, by Apply.
// File entries are never written once they are in a state's Files, so a
// successor shares every entry its actions leave alone. What is derived from
// a published state — its live files in path order and their sketch fold —
// is computed once, on first use, and shared like the state.
//
// A state holds the live files only. What a table removed is in the Remove
// actions of its manifests, where garbage collection reads it.
type TableState struct {
	Files   map[string]*FileEntry
	LastSeq int64 // highest sequence replayed

	live   atomic.Pointer[[]*FileEntry] // LiveFiles, once computed
	sketch atomic.Pointer[sketchFold]   // Sketches, once computed
}

// sketchFold is the per-column fold of the live files' sketches for a
// schema of ncols columns; ok is false when a live file has none.
type sketchFold struct {
	ncols  int
	merged []colfile.ColSketch
	ok     bool
}

// NewTableState returns an empty state.
func NewTableState() *TableState {
	return &TableState{Files: make(map[string]*FileEntry)}
}

// next returns the successor of s with actions applied at seq, leaving s as
// it was: the copy-and-apply of the snapshot cache's Advance and of Overlay.
func (s *TableState) next(seq int64, actions []Action) (*TableState, error) {
	out := &TableState{Files: maps.Clone(s.Files), LastSeq: s.LastSeq}
	if err := out.Apply(seq, actions); err != nil {
		return nil, err
	}
	return out, nil
}

// Apply replays one committed manifest (its actions) at the given commit
// sequence onto the state. Replay is how the SQL BE physical metadata layer
// reconstructs a snapshot (paper 3.2.1). A deletion-vector change replaces
// its data file's entry rather than writing it. Apply is only for a state
// nobody else holds yet; it drops what was derived from the state before.
func (s *TableState) Apply(seq int64, actions []Action) error {
	s.live.Store(nil)
	s.sketch.Store(nil)
	for _, a := range actions {
		switch {
		case a.Kind == KindData && a.Op == OpAdd:
			s.Files[a.Path] = &FileEntry{
				Path: a.Path, Rows: a.Rows, Size: a.Size,
				Partition: a.Partition, Sketches: a.Sketches,
			}
		case a.Kind == KindData && a.Op == OpRemove:
			if _, ok := s.Files[a.Path]; !ok {
				return fmt.Errorf("manifest: remove of unknown data file %s at seq %d", a.Path, seq)
			}
			delete(s.Files, a.Path)
		case a.Kind == KindDV && a.Op == OpAdd:
			f, ok := s.Files[a.Target]
			if !ok {
				return fmt.Errorf("manifest: dv %s targets unknown data file %s at seq %d", a.Path, a.Target, seq)
			}
			cp := *f
			cp.DV, cp.DeletedRows = a.Path, a.DeletedRows
			s.Files[a.Target] = &cp
		case a.Kind == KindDV && a.Op == OpRemove:
			if f, ok := s.Files[a.Target]; ok && f.DV == a.Path {
				cp := *f
				cp.DV, cp.DeletedRows = "", 0
				s.Files[a.Target] = &cp
			}
		}
	}
	if seq > s.LastSeq {
		s.LastSeq = seq
	}
	return nil
}

// LiveFiles returns the live file entries sorted by path. The slice is
// computed once per state and shared: callers must not write it.
func (s *TableState) LiveFiles() []*FileEntry {
	if p := s.live.Load(); p != nil {
		return *p
	}
	out := make([]*FileEntry, 0, len(s.Files))
	for _, f := range s.Files {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	s.live.Store(&out)
	return out
}

// Sketches folds the live files' per-column sketches for a table of ncols
// columns, in path order. ok is false, and the fold nil, when a live file
// carries no sketches for that many columns: partial statistics would
// misestimate, so the fold is all or nothing. It is computed once per state
// and shared: callers must not write it.
func (s *TableState) Sketches(ncols int) (merged []colfile.ColSketch, ok bool) {
	if f := s.sketch.Load(); f != nil && f.ncols == ncols {
		return f.merged, f.ok
	}
	f := &sketchFold{ncols: ncols, merged: make([]colfile.ColSketch, ncols), ok: true}
	for _, fe := range s.LiveFiles() {
		if len(fe.Sketches) != ncols {
			f.merged, f.ok = nil, false
			break
		}
		for i := range f.merged {
			f.merged[i].Merge(fe.Sketches[i])
		}
	}
	s.sketch.Store(f)
	return f.merged, f.ok
}

// TotalRows returns the number of visible rows across live files.
func (s *TableState) TotalRows() int64 {
	var n int64
	//polaris:nondet LiveRows is a pure accessor and integer addition commutes, so file order cannot change the sum
	for _, f := range s.Files {
		n += f.LiveRows()
	}
	return n
}

// TotalSize returns the byte footprint of live data files.
func (s *TableState) TotalSize() int64 {
	var n int64
	for _, f := range s.Files {
		n += f.Size
	}
	return n
}

// Overlay applies an uncommitted transaction manifest on top of a committed
// snapshot, producing the view a subsequent statement of the same transaction
// must see (paper 3.2.3). The committed state is not modified.
func (s *TableState) Overlay(actions []Action) (*TableState, error) {
	return s.next(s.LastSeq, actions)
}

// Health summarizes storage quality for compaction decisions (paper 5.1).
// Its victim counts split CompactionVictims, so a table is healthy exactly
// when COMPACT would rewrite nothing.
type Health struct {
	NumFiles        int
	SmallFiles      int // unfragmented victims: files of mixed cells and small files
	FragmentedFiles int // files whose deleted-row ratio exceeds the threshold
	TotalRows       int64
	DeletedRows     int64
}

// Healthy reports whether no file needs compaction.
func (h Health) Healthy() bool { return h.SmallFiles == 0 && h.FragmentedFiles == 0 }

// AssessHealth sums the live files and counts the compaction victims
// CompactionVictims picks under the same thresholds.
func (s *TableState) AssessHealth(smallRows int64, maxDeletedFrac float64, rowsPerFile int) Health {
	var h Health
	for _, f := range s.LiveFiles() {
		h.NumFiles++
		h.TotalRows += f.Rows
		h.DeletedRows += f.DeletedRows
	}
	for _, f := range s.CompactionVictims(smallRows, maxDeletedFrac, rowsPerFile) {
		if f.fragmented(maxDeletedFrac) {
			h.FragmentedFiles++
		} else {
			h.SmallFiles++
		}
	}
	return h
}

// CompactionVictims returns, in path order, the live files a compaction
// rewrites (paper 5.1). It merges only where that lowers the file count —
// level 0 of a log-structured merge:
//
//   - every file of mixed cells and every fragmented file (more than
//     maxDeletedFrac of its rows deleted) is a victim;
//   - a cell's small files (fewer than smallRows rows) are victims when
//     their live rows and those of the cell's fragmented files pack into
//     fewer rowsPerFile-row files (0: one file) than the small files plus
//     the fragmented files' rows alone would make;
//   - while a file of mixed cells is a victim, every small file is one too,
//     since its rows may reach any cell.
//
// A large, unfragmented file is never a victim. Compaction writes each
// cell's victims as full files and at most one partial one, so the rule
// finds no victim right after it: a table converges.
func (s *TableState) CompactionVictims(smallRows int64, maxDeletedFrac float64, rowsPerFile int) []*FileEntry {
	type cell struct {
		small               int64 // small, unfragmented files
		smallRows, fragRows int64 // live rows of those and of fragmented files
	}
	cells := make(map[int]*cell)
	mixed := false
	for _, f := range s.LiveFiles() {
		if f.Partition == MixedCells {
			mixed = true
			continue
		}
		c := cells[f.Partition]
		if c == nil {
			c = new(cell)
			cells[f.Partition] = c
		}
		switch {
		case f.fragmented(maxDeletedFrac):
			c.fragRows += f.LiveRows()
		case f.Rows < smallRows:
			c.small++
			c.smallRows += f.LiveRows()
		}
	}
	files := func(rows int64) int64 {
		if rows == 0 || rowsPerFile <= 0 {
			return min(rows, 1)
		}
		return (rows + int64(rowsPerFile) - 1) / int64(rowsPerFile)
	}
	var victims []*FileEntry
	for _, f := range s.LiveFiles() {
		switch c := cells[f.Partition]; {
		case f.Partition == MixedCells, f.fragmented(maxDeletedFrac):
		case f.Rows < smallRows && (mixed || files(c.smallRows+c.fragRows) < c.small+files(c.fragRows)):
		default:
			continue
		}
		victims = append(victims, f)
	}
	return victims
}

// fragmented reports whether more than maxDeletedFrac of f's rows are
// deleted.
func (f *FileEntry) fragmented(maxDeletedFrac float64) bool {
	return f.Rows > 0 && float64(f.DeletedRows)/float64(f.Rows) > maxDeletedFrac
}
