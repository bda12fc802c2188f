package exec

import (
	"context"
	"fmt"
	"sync/atomic"

	"polaris/internal/colfile"
	"polaris/internal/deletevector"
)

// Telemetry counts work done by operators; the transaction layer converts
// these into simulated CPU time via the compute cost model.
type Telemetry struct {
	RowsScanned   atomic.Int64
	RowsProcessed atomic.Int64
	BytesScanned  atomic.Int64
	GroupsPruned  atomic.Int64
}

// Operator is a pull-based batch iterator. Next returns nil at end of stream.
type Operator interface {
	Schema() colfile.Schema
	Next() (*colfile.Batch, error)
}

// DefaultBatchSize is the row-count target per batch.
const DefaultBatchSize = 4096

// ScanFile is one input to a Scan: a sealed colfile, opened, plus its deletion
// vector. The reader is usually shared — the compute cache hands every
// statement the one it parsed beside the file's cached bytes — so building
// morsels and scans over a file opens nothing, and so are the column vectors
// it decodes: a batch a Scan emits carries vectors other statements are
// reading, which no operator may write (docs/VECTORIZATION.md).
type ScanFile struct {
	R  *colfile.Reader
	DV *deletevector.Vector // nil when no rows are deleted
}

// PruneHint lets the scan skip row groups using zone maps: row groups whose
// [min,max] for column Col cannot intersect [Lo,Hi] are skipped.
type PruneHint struct {
	Col    string
	Lo, Hi int64
}

// Scan reads a set of immutable columnar files, filters deleted rows via the
// deletion vector (merge-on-read, paper Section 2.1), prunes row groups via
// zone maps, and projects the requested columns.
type Scan struct {
	files   []ScanFile
	cols    []string // nil = all
	hint    *PruneHint
	tel     *Telemetry
	schema  colfile.Schema
	colIdxs []int

	// groupLo/groupHi bound the row-group window read from each file;
	// groupHi == 0 means all groups. Morsel scans use the window to split a
	// single large file across workers (the window then applies to the
	// morsel's only file).
	groupLo, groupHi int

	// pred is a compiled predicate pushed into the scan by the planner
	// (shared immutable Prog, per-scan EvalCtx). Per row group, the DV-live
	// selection is computed first, then only the predicate's columns are
	// decoded and evaluated; the remaining projected columns are decoded
	// only for groups with at least one qualifying row. See PushPredicate.
	pred     *Prog
	predCols []int // projected-schema positions the predicate reads
	predCtx  *EvalCtx

	fileIdx  int
	reader   *colfile.Reader
	groupIdx int
	rowBase  uint32 // global row ordinal of current group within current file

	// Where the batch Next last returned came from, for Ordinals.
	lastFile, lastRows int
	lastBase           uint32
	lastSel            []int // the pushed predicate's survivors; nil = every live row of the group
}

// NewScan builds a scan operator. The schema is taken from the first file;
// all files must share it. An empty file list yields an empty stream with a
// nil schema unless SetSchema is called.
func NewScan(files []ScanFile, cols []string, hint *PruneHint, tel *Telemetry) (*Scan, error) {
	s := &Scan{files: files, cols: cols, hint: hint, tel: tel}
	if len(files) > 0 {
		if err := s.project(files[0].R.Schema()); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// SetSchema supplies the schema for an empty scan.
func (s *Scan) SetSchema(schema colfile.Schema) error {
	if s.schema != nil {
		return nil
	}
	return s.project(schema)
}

func (s *Scan) project(full colfile.Schema) error {
	if s.cols == nil {
		s.schema = full
		s.colIdxs = nil
		return nil
	}
	s.colIdxs = make([]int, len(s.cols))
	s.schema = make(colfile.Schema, len(s.cols))
	for i, name := range s.cols {
		idx := full.ColIndex(name)
		if idx < 0 {
			return fmt.Errorf("exec: unknown column %q", name)
		}
		s.colIdxs[i] = idx
		s.schema[i] = full[idx]
	}
	return nil
}

// Schema implements Operator.
func (s *Scan) Schema() colfile.Schema { return s.schema }

// PushPredicate attaches a compiled predicate evaluated inside the scan.
// The Prog must be compiled against the scan's projected schema and return
// Bool: a row the predicate rejects is dropped before downstream operators —
// or the remaining columns — ever see it. Deleted rows are excluded before
// evaluation, so a pushed predicate cannot observe them, and a runtime error
// on a live row is the scan's error, exactly as from a Filter above it. (The
// planner pushes only conjuncts that cannot raise one, but that is its own
// rule for reordering conjuncts of a WHERE, not something the scan needs.)
// Reports whether the predicate was attached (a program reading no columns
// is refused — constant predicates stay in the Filter above the scan).
func (s *Scan) PushPredicate(p *Prog) bool {
	cols := p.Cols()
	if len(cols) == 0 || p.OutType() != colfile.Bool {
		return false
	}
	s.pred, s.predCols, s.predCtx = p, cols, p.NewCtx()
	return true
}

// fileCol maps a projected-schema column position to its file column index.
func (s *Scan) fileCol(c int) int {
	if s.colIdxs == nil {
		return c
	}
	return s.colIdxs[c]
}

// Next implements Operator.
func (s *Scan) Next() (*colfile.Batch, error) {
	for {
		if s.reader == nil {
			if s.fileIdx >= len(s.files) {
				return nil, nil
			}
			r := s.files[s.fileIdx].R
			if s.schema == nil {
				if err := s.project(r.Schema()); err != nil {
					return nil, err
				}
			} else if !s.fullSchemaMatches(r.Schema()) {
				return nil, fmt.Errorf("exec: file %d schema mismatch", s.fileIdx)
			}
			s.reader = r
			s.groupIdx = s.groupLo
			s.rowBase = 0
			for g := 0; g < s.groupLo && g < r.NumRowGroups(); g++ {
				s.rowBase += uint32(r.RowGroupRows(g))
			}
			// When a file is split into windowed morsels, only the first
			// window accounts the file's bytes, keeping totals stable across
			// degrees of parallelism.
			if s.tel != nil && s.groupLo == 0 {
				s.tel.BytesScanned.Add(r.Size())
			}
		}
		end := s.reader.NumRowGroups()
		if s.groupHi > 0 && s.groupHi < end {
			end = s.groupHi
		}
		if s.groupIdx >= end {
			s.reader = nil
			s.fileIdx++
			continue
		}
		g := s.groupIdx
		s.groupIdx++
		groupRows := s.reader.RowGroupRows(g)
		base := s.rowBase
		s.rowBase += uint32(groupRows)

		if s.hint != nil {
			c := s.reader.Schema().ColIndex(s.hint.Col)
			if c >= 0 && s.reader.PruneInt(g, c, s.hint.Lo, s.hint.Hi) {
				if s.tel != nil {
					s.tel.GroupsPruned.Add(1)
				}
				continue
			}
		}

		if s.pred != nil {
			batch, err := s.readGroupPushdown(g, groupRows, base)
			if err != nil {
				return nil, err
			}
			if s.tel != nil {
				s.tel.RowsScanned.Add(int64(groupRows))
			}
			if batch == nil {
				continue
			}
			s.lastFile, s.lastBase, s.lastRows, s.lastSel = s.fileIdx, base, groupRows, batch.Sel
			return batch, nil
		}

		batch, err := s.reader.ReadRowGroup(g, s.colIdxs)
		if err != nil {
			return nil, err
		}
		if s.tel != nil {
			s.tel.RowsScanned.Add(int64(groupRows))
		}
		dv := s.files[s.fileIdx].DV
		if dv != nil && !dv.IsEmpty() {
			keep := make([]bool, groupRows)
			kept := 0
			for i := range keep {
				if !dv.Contains(base + uint32(i)) {
					keep[i] = true
					kept++
				}
			}
			if kept == 0 {
				continue
			}
			if kept < groupRows {
				batch = batch.Filter(keep)
			}
		}
		if batch.NumRows() == 0 {
			continue
		}
		s.lastFile, s.lastBase, s.lastRows, s.lastSel = s.fileIdx, base, groupRows, nil
		return batch, nil
	}
}

// Ordinals reports where the batch Next last returned came from: the index of
// its file in the scan's file list and the file-global ordinal of each of its
// logical rows, in row order — what UPDATE and DELETE record in a deletion
// vector. A batch never spans row groups, so its rows are one group's live
// rows, or the pushed predicate's survivors among them.
func (s *Scan) Ordinals() (file int, ords []uint32) {
	if s.lastSel != nil {
		ords = make([]uint32, len(s.lastSel))
		for i, p := range s.lastSel {
			ords[i] = s.lastBase + uint32(p)
		}
		return s.lastFile, ords
	}
	dv := s.files[s.lastFile].DV
	ords = make([]uint32, 0, s.lastRows)
	for i := 0; i < s.lastRows; i++ {
		if o := s.lastBase + uint32(i); dv == nil || !dv.Contains(o) {
			ords = append(ords, o)
		}
	}
	return s.lastFile, ords
}

// readGroupPushdown reads row group g under the pushed predicate. Order
// matters for correctness: (1) the deletion vector produces the live
// selection, so the predicate never evaluates deleted rows; (2) only the
// predicate's columns are decoded and the program runs over that selection;
// (3) the remaining projected columns are decoded only when at least one row
// qualifies. Returns nil (no batch) when the whole group is filtered out.
//
//polaris:kernel the predicate program is position-aligned with its inputs, so pv lanes are read at the same physical positions the selection enumerates
func (s *Scan) readGroupPushdown(g, groupRows int, base uint32) (*colfile.Batch, error) {
	var sel []int
	dv := s.files[s.fileIdx].DV
	if dv != nil && !dv.IsEmpty() {
		sel = make([]int, 0, groupRows)
		for i := 0; i < groupRows; i++ {
			if !dv.Contains(base + uint32(i)) {
				sel = append(sel, i)
			}
		}
		if len(sel) == 0 {
			return nil, nil
		}
		if len(sel) == groupRows {
			sel = nil // dense
		}
	}

	cols := make([]*colfile.Vec, len(s.schema))
	for _, c := range s.predCols {
		v, err := s.reader.ReadColumn(g, s.fileCol(c))
		if err != nil {
			return nil, err
		}
		cols[c] = v
	}
	pb := &colfile.Batch{Schema: s.schema, Cols: cols, Sel: sel}
	if cols[0] == nil {
		// PhysRows reads Cols[0].Len(); alias a decoded predicate column
		// there purely for its length — the program only dereferences the
		// slots it reads, and the alias is overwritten below.
		pb.Cols[0] = cols[s.predCols[0]]
	}
	pv, err := s.pred.Run(s.predCtx, pb)
	if err != nil {
		return nil, err
	}
	out := make([]int, 0, pb.NumRows())
	if sel == nil {
		for i := 0; i < groupRows; i++ {
			if !pv.IsNull(i) && pv.Bools[i] {
				out = append(out, i)
			}
		}
	} else {
		for _, i := range sel {
			if !pv.IsNull(i) && pv.Bools[i] {
				out = append(out, i)
			}
		}
	}
	if len(out) == 0 {
		return nil, nil
	}

	have := make([]bool, len(s.schema))
	for _, c := range s.predCols {
		have[c] = true
	}
	for c := range s.schema {
		if have[c] {
			continue
		}
		v, err := s.reader.ReadColumn(g, s.fileCol(c))
		if err != nil {
			return nil, err
		}
		cols[c] = v
	}
	return &colfile.Batch{Schema: s.schema, Cols: cols, Sel: out}, nil
}

func (s *Scan) fullSchemaMatches(other colfile.Schema) bool {
	if s.colIdxs == nil {
		return s.schema.Equal(other)
	}
	for i, idx := range s.colIdxs {
		if idx >= len(other) || other[idx] != s.schema[i] {
			return false
		}
	}
	return true
}

// BatchSource exposes a pre-materialized batch as an operator (exchange input
// or VALUES clause).
type BatchSource struct {
	batch *colfile.Batch
	done  bool
}

// NewBatchSource wraps a batch.
func NewBatchSource(b *colfile.Batch) *BatchSource { return &BatchSource{batch: b} }

// Schema implements Operator.
func (s *BatchSource) Schema() colfile.Schema { return s.batch.Schema }

// Next implements Operator.
func (s *BatchSource) Next() (*colfile.Batch, error) {
	if s.done || s.batch.NumRows() == 0 {
		return nil, nil
	}
	s.done = true
	return s.batch, nil
}

// Filter passes through rows where the predicate evaluates to true
// (NULL is not true). Rows are passed through as a selection vector over the
// input's physical columns — no copies. The emitted batch aliases the
// filter's internal selection buffer: it is valid until the next call to Next
// (the standard operator output contract, docs/VECTORIZATION.md).
type Filter struct {
	In Operator
	// Pred is the predicate, compiled against In's schema. The Prog is
	// immutable and may be shared by many Filter instances (one per morsel
	// worker); the evaluation scratch is per instance.
	Pred *Prog
	Tel  *Telemetry

	ctx    EvalCtx
	selBuf []int
	out    colfile.Batch
}

// Schema implements Operator.
func (f *Filter) Schema() colfile.Schema { return f.In.Schema() }

// Next implements Operator.
//
//polaris:kernel pv is position-aligned with the input batch, so its lanes are read at the physical positions Batch.Sel (or dense [0,n)) yields
func (f *Filter) Next() (*colfile.Batch, error) {
	// Checked before any input is pulled, so a non-boolean predicate is an
	// error whether or not the input has rows.
	if t := f.Pred.OutType(); t != colfile.Bool {
		return nil, fmt.Errorf("exec: predicate yields %s, not bool", t)
	}
	for {
		b, err := f.In.Next()
		if err != nil || b == nil {
			return nil, err
		}
		pv, err := f.Pred.Run(&f.ctx, b)
		if err != nil {
			return nil, err
		}
		if f.Tel != nil {
			f.Tel.RowsProcessed.Add(int64(b.NumRows()))
		}
		sel := f.selBuf[:0]
		if b.Sel == nil {
			n := b.PhysRows()
			for i := 0; i < n; i++ {
				if !pv.IsNull(i) && pv.Bools[i] {
					sel = append(sel, i)
				}
			}
		} else {
			for _, i := range b.Sel {
				if !pv.IsNull(i) && pv.Bools[i] {
					sel = append(sel, i)
				}
			}
		}
		f.selBuf = sel
		if len(sel) == 0 {
			continue
		}
		if len(sel) == b.NumRows() {
			return b, nil // every logical row passed; keep the input as-is
		}
		f.out = colfile.Batch{Schema: b.Schema, Cols: b.Cols, Sel: sel}
		return &f.out, nil
	}
}

// Project computes output expressions batch-at-a-time through compiled
// kernel programs. Output batches are always dense: column references over
// dense input alias the input vector, computed columns are bulk-copied out of
// the per-operator scratch.
type Project struct {
	In Operator
	// Exprs are the output expressions, compiled against In's schema.
	Exprs []*Prog
	// Names are the output column names; an empty or missing entry defaults
	// to the expression's source rendering.
	Names []string
	Tel   *Telemetry

	schema colfile.Schema
	ctxs   []EvalCtx
}

// Schema implements Operator: names from Names, types from the programs.
func (p *Project) Schema() colfile.Schema {
	if p.schema == nil {
		p.schema = make(colfile.Schema, len(p.Exprs))
		for i, prog := range p.Exprs {
			name := ""
			if i < len(p.Names) {
				name = p.Names[i]
			}
			if name == "" {
				name = prog.String()
			}
			p.schema[i] = colfile.Field{Name: name, Type: prog.OutType()}
		}
	}
	return p.schema
}

// Next implements Operator.
func (p *Project) Next() (*colfile.Batch, error) {
	b, err := p.In.Next()
	if err != nil || b == nil {
		return nil, err
	}
	if p.Tel != nil {
		p.Tel.RowsProcessed.Add(int64(b.NumRows()))
	}
	if p.ctxs == nil {
		p.ctxs = make([]EvalCtx, len(p.Exprs))
	}
	out := &colfile.Batch{Schema: p.Schema(), Cols: make([]*colfile.Vec, len(p.Exprs))}
	for i, prog := range p.Exprs {
		v, err := prog.Run(&p.ctxs[i], b)
		if err != nil {
			return nil, err
		}
		switch {
		case b.Sel != nil:
			out.Cols[i] = v.Take(b.Sel) // gather selected lanes densely
		default:
			if col, ok := prog.ColRef(); ok {
				out.Cols[i] = b.Cols[col] // alias the input column
				continue
			}
			// copy out of reusable scratch (broadcast constants may be
			// longer than the batch, hence the explicit bound)
			out.Cols[i] = v.Slice(0, b.PhysRows())
		}
	}
	return out, nil
}

// Limit stops after N rows (with optional offset).
type Limit struct {
	In     Operator
	N      int64
	Offset int64

	skipped, emitted int64
}

// Schema implements Operator.
func (l *Limit) Schema() colfile.Schema { return l.In.Schema() }

// Next implements Operator.
func (l *Limit) Next() (*colfile.Batch, error) {
	for {
		if l.emitted >= l.N {
			return nil, nil
		}
		b, err := l.In.Next()
		if err != nil || b == nil {
			return nil, err
		}
		b = b.Materialize() // sliceBatch addresses physical positions
		n := int64(b.NumRows())
		if l.skipped < l.Offset {
			toSkip := l.Offset - l.skipped
			if n <= toSkip {
				l.skipped += n
				continue
			}
			b = sliceBatch(b, int(toSkip), int(n))
			l.skipped = l.Offset
			n = int64(b.NumRows())
		}
		if l.emitted+n > l.N {
			b = sliceBatch(b, 0, int(l.N-l.emitted))
		}
		l.emitted += int64(b.NumRows())
		return b, nil
	}
}

func sliceBatch(b *colfile.Batch, lo, hi int) *colfile.Batch {
	out := &colfile.Batch{Schema: b.Schema, Cols: make([]*colfile.Vec, len(b.Cols))}
	for i, v := range b.Cols {
		out.Cols[i] = v.Slice(lo, hi)
	}
	return out
}

// UnionAll concatenates child streams (the exchange/gather operator: BE task
// outputs are unioned at the FE or at repartition boundaries).
type UnionAll struct {
	Ins []Operator
	idx int
}

// Schema implements Operator.
func (u *UnionAll) Schema() colfile.Schema {
	if len(u.Ins) == 0 {
		return nil
	}
	return u.Ins[0].Schema()
}

// Next implements Operator.
func (u *UnionAll) Next() (*colfile.Batch, error) {
	for u.idx < len(u.Ins) {
		b, err := u.Ins[u.idx].Next()
		if err != nil {
			return nil, err
		}
		if b != nil {
			return b, nil
		}
		u.idx++
	}
	return nil, nil
}

// Collect drains an operator into a single batch, for callers with no
// statement context: the storage engine's DML scans, benchmarks and tests.
// SELECT execution uses CollectCtx.
func Collect(op Operator) (*colfile.Batch, error) {
	//polaris:ctx entry point for callers outside statement execution (core DML, harnesses)
	return CollectCtx(context.Background(), op)
}

// CollectCtx drains an operator into a single batch, checking ctx between
// batches: when a sibling unit of a ForEachIndexed pool fails (or the caller
// cancels), the drain stops at the next batch boundary instead of paying the
// remaining scan/probe/spill cost of a doomed plan fragment.
func CollectCtx(ctx context.Context, op Operator) (*colfile.Batch, error) {
	out := colfile.NewBatch(op.Schema())
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		b, err := op.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return out, nil
		}
		if out.Schema == nil {
			out = colfile.NewBatch(b.Schema)
		}
		out.AppendBatch(b)
	}
}

// Sort, SortRuns, TopN and MergeRuns — the ORDER BY operator family — live
// in sort.go.
