package exec

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"polaris/internal/colfile"
	"polaris/internal/deletevector"
)

// Telemetry is a Scan's sink: the rows and bytes it read and the row groups
// its zone maps pruned. Scan is the only operator that writes one, and nothing
// turns it into simulated CPU time; its readers are the callers that build
// a MorselScan over core.Txn.Morsels themselves (the benchmark, ablations).
type Telemetry struct {
	RowsScanned  atomic.Int64
	BytesScanned atomic.Int64
	GroupsPruned atomic.Int64
}

// Operator is a pull-based batch iterator. Next returns nil at end of stream.
// A batch Next returns is read-only. A dense one stays valid after the next
// call; a selected one only until it, because an operator may reuse its
// selection and header (Filter does).
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

// Scan reads a set of immutable columnar files, evaluates its predicate,
// skipping the row groups whose zone maps rule it out, filters deleted rows
// via the deletion vector (merge-on-read, paper Section 2.1), and projects
// the requested columns.
type Scan struct {
	files   []ScanFile
	cols    []string // nil = all
	tel     *Telemetry
	schema  colfile.Schema
	colIdxs []int

	// groupLo/groupHi bound the row-group window read from each file;
	// groupHi == 0 means all groups. Morsel scans use the window to split a
	// single large file across workers (the window then applies to the
	// morsel's only file).
	groupLo, groupHi int

	// pred is the scan's predicate (shared immutable Prog; nil = none). A
	// row group outside one of its Ranges is skipped unread. Otherwise only
	// the predicate's columns are decoded and evaluated, densely over the
	// whole group; the deletion vector is consulted only for a group with a
	// passing row, to drop the deleted ones (and the predicate runs again
	// over the live rows if the dense run fails); the remaining projected
	// columns are decoded only for groups with at least one live qualifying
	// row. See readGroupPushdown.
	pred     *Prog
	predCols []int // projected-schema positions decoded to evaluate pred
	// push is pred's evaluation scratch. It comes from pushPool on the first
	// pushed group and goes back at end of stream; nothing in it leaves
	// readGroupPushdown.
	push *pushScratch

	fileIdx  int
	reader   *colfile.Reader
	groupIdx int
	rowBase  uint32 // global row ordinal of current group within current file

	// Where the batch Next last returned came from, for Ordinals.
	lastFile, lastRows int
	lastBase           uint32
	lastSel            []int // the pushed predicate's survivors; nil = every live row of the group

	// live holds a row group's live offsets under its deletion vector: an
	// unpushed scan's, or a pushed scan's whose dense predicate run failed.
	// It comes from liveSelPool on first use and goes back at end of stream;
	// it never reaches an emitted batch (Take copies, and a pushed
	// predicate's survivors are a selection of their own, sized to their
	// count, or none when every row of the group passes).
	live *[]int
}

var (
	liveSelPool = sync.Pool{New: func() any { return new([]int) }}
	pushPool    = sync.Pool{New: func() any { return new(pushScratch) }}
)

// pushScratch is what a pushed predicate runs with: its evaluation context
// and the batch of the current group's predicate columns it runs over. Both
// are reused group to group — an emitted batch gets columns of its own — so
// a group without survivors allocates nothing.
type pushScratch struct {
	ctx   EvalCtx
	batch colfile.Batch
}

// release readies the scratch for the pool: the context is released from
// pred and the batch keeps no column of the scan's files alive.
func (p *pushScratch) release(pred *Prog) {
	p.ctx.release(pred)
	clear(p.batch.Cols)
	p.batch.Schema, p.batch.Sel = nil, nil
}

// liveRows returns the offsets of the live rows among a group's n rows at
// file ordinal base, in the scan's pooled selection; valid until the next
// call.
func (s *Scan) liveRows(dv *deletevector.Vector, base uint32, n int) []int {
	if s.live == nil {
		s.live = liveSelPool.Get().(*[]int)
	}
	*s.live = dv.AppendLive((*s.live)[:0], base, n)
	return *s.live
}

// NewScan builds a scan operator. The schema is taken from the first file;
// all files must share it. An empty file list yields an empty stream with a
// nil schema unless SetSchema is called.
//
// pred (nil = none) is compiled against the projected schema and must
// return Bool: a row it does not map to TRUE is dropped before downstream
// operators — or the remaining columns — ever see it. The predicate runs
// first, over every row of a group, and the deletion vector then drops the
// deleted rows among its survivors; a group no row of which passes never
// consults the deletion vector. A deleted row still cannot affect the
// result: kernels are lane-local, and when a run fails on a group with
// deleted rows the predicate runs again over the live rows alone, so a
// runtime error on a live row is the scan's error, exactly as from a Filter
// above it, and one on a deleted row is none. (The planner pushes only
// conjuncts that cannot raise one, but that is its own rule for reordering
// conjuncts of a WHERE, not something the scan needs.)
func NewScan(files []ScanFile, cols []string, pred *Prog, tel *Telemetry) (*Scan, error) {
	s := &Scan{files: files, cols: cols, tel: tel}
	if pred != nil {
		if err := CheckPredicate(pred); err != nil {
			return nil, err
		}
		s.pred, s.predCols = pred, pred.Cols()
		if len(s.predCols) == 0 {
			s.predCols = []int{0} // a constant predicate still needs the row count
		}
	}
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
				if s.live != nil {
					liveSelPool.Put(s.live)
					s.live = nil
				}
				if s.push != nil {
					s.push.release(s.pred)
					pushPool.Put(s.push)
					s.push = nil
				}
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

		if s.pred != nil {
			if s.pruned(g) {
				if s.tel != nil {
					s.tel.GroupsPruned.Add(1)
				}
				continue
			}
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
		if dv := s.files[s.fileIdx].DV; dv != nil && !dv.IsEmpty() {
			live := s.liveRows(dv, base, groupRows)
			if len(live) == 0 {
				continue
			}
			if len(live) < groupRows {
				batch = batch.Take(live)
			}
		}
		if batch.NumRows() == 0 {
			continue
		}
		s.lastFile, s.lastBase, s.lastRows, s.lastSel = s.fileIdx, base, groupRows, nil
		return batch, nil
	}
}

// pruned reports whether row group g's zone maps prove that the predicate
// maps none of its rows to TRUE: a range of the predicate excludes them all.
func (s *Scan) pruned(g int) bool {
	for _, r := range s.pred.Ranges() {
		if s.reader.PruneInt(g, s.fileCol(r.Col), r.Lo, r.Hi) {
			return true
		}
	}
	return false
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
	if dv == nil {
		ords = make([]uint32, s.lastRows)
		for i := range ords {
			ords[i] = s.lastBase + uint32(i)
		}
		return s.lastFile, ords
	}
	live := s.liveRows(dv, s.lastBase, s.lastRows)
	ords = make([]uint32, len(live))
	for i, p := range live {
		ords[i] = s.lastBase + uint32(p)
	}
	return s.lastFile, ords
}

// readGroupPushdown reads row group g under the pushed predicate, predicate
// first and deletion vector second: (1) only the predicate's columns are
// decoded and the program runs densely over every row of the group;
// (2) a group none of whose rows passes ends there, its deletion vector
// untouched; (3) otherwise the deletion vector's runs inside the group drop
// the deleted survivors; (4) the remaining projected columns are decoded
// only when a live row qualifies. Returns nil (no batch) when the whole
// group is filtered out. The survivors are counted before they are
// gathered, so the batch's selection holds exactly them; when every row of
// the group passes and none is deleted it has none.
//
// Kernels are lane-local, so a dense run gives every live lane the value it
// would have had alone. Only a runtime error can tell the orders apart, and
// a deleted row must never fail the statement: when the dense run fails and
// the group has deleted rows, the program runs again over the live rows
// alone, and that run's result or error is the group's.
//
//polaris:kernel the predicate program is position-aligned with its inputs, so pv lanes are read at the same physical positions the selection enumerates
func (s *Scan) readGroupPushdown(g, groupRows int, base uint32) (*colfile.Batch, error) {
	if s.push == nil {
		s.push = pushPool.Get().(*pushScratch)
		s.push.batch.Schema = s.schema
		s.push.batch.Cols = slices.Grow(s.push.batch.Cols[:0], len(s.schema))[:len(s.schema)]
	}
	pb := &s.push.batch
	for _, c := range s.predCols {
		v, err := s.reader.ReadColumn(g, s.fileCol(c))
		if err != nil {
			return nil, err
		}
		pb.Cols[c] = v
	}
	if s.predCols[0] != 0 {
		// PhysRows reads Cols[0].Len(); alias a decoded predicate column
		// there purely for its length — the program only dereferences the
		// slots it reads.
		pb.Cols[0] = pb.Cols[s.predCols[0]]
	}
	pb.Sel = nil
	pv, err := s.pred.Run(&s.push.ctx, pb)
	dv := s.files[s.fileIdx].DV
	if err != nil {
		if dv == nil {
			return nil, err
		}
		switch live := s.liveRows(dv, base, groupRows); len(live) {
		case groupRows: // no deleted row to have raised it
			return nil, err
		case 0:
			return nil, nil
		default:
			pb.Sel = live
		}
		// Lanes outside the live rows are unspecified from here on; every
		// read below either counts them out again or skips them.
		if pv, err = s.pred.Run(&s.push.ctx, pb); err != nil {
			return nil, err
		}
	}
	n := countPassing(pv, groupRows)
	if n == 0 {
		return nil, nil
	}
	// Drop the deleted survivors: uncount the passing lanes inside the
	// group's deleted runs, then gather the passing lanes between them. A
	// group without a deleted run walks no run and gathers in one loop.
	var dead deletevector.Runs // the deleted runs inside the group
	if dv != nil {
		dead = dv.Runs(base, groupRows)
	}
	runs := dead
	for lo, hi, ok := runs.Next(); ok; lo, hi, ok = runs.Next() {
		for i := lo; i < hi; i++ {
			if passes(pv, i) {
				n--
			}
		}
	}
	if n == 0 {
		return nil, nil
	}
	var sel []int // nil = every row of the group
	if n < groupRows {
		sel = make([]int, 0, n)
		next := 0 // the first lane not yet known deleted or gathered
		runs = dead
		for lo, hi, ok := runs.Next(); ok; lo, hi, ok = runs.Next() {
			for i := next; i < lo; i++ {
				if passes(pv, i) {
					sel = append(sel, i)
				}
			}
			next = hi
		}
		for i := next; i < groupRows; i++ {
			if passes(pv, i) {
				sel = append(sel, i)
			}
		}
	}

	cols := make([]*colfile.Vec, len(s.schema))
	for _, c := range s.predCols {
		cols[c] = pb.Cols[c]
	}
	for c := range cols {
		if cols[c] != nil {
			continue
		}
		v, err := s.reader.ReadColumn(g, s.fileCol(c))
		if err != nil {
			return nil, err
		}
		cols[c] = v
	}
	return &colfile.Batch{Schema: s.schema, Cols: cols, Sel: sel}, nil
}

// countPassing returns how many of the first n lanes of a predicate's result
// are TRUE: the scan's test of every row group, so it reads the lanes as
// plain slices, with one loop for a result without NULLs.
//
//polaris:kernel the lanes counted are the physical lanes of a dense predicate run
func countPassing(pv *colfile.Vec, n int) int {
	c := 0
	bools := pv.Bools[:n]
	if pv.Nulls == nil {
		for _, b := range bools {
			if b {
				c++
			}
		}
		return c
	}
	nulls := pv.Nulls[:n]
	for i, b := range bools {
		if b && !nulls[i] {
			c++
		}
	}
	return c
}

// passes reports whether lane i of a predicate's result is TRUE.
//
//polaris:kernel i is a physical lane: readGroupPushdown passes the positions its selection enumerates
func passes(pv *colfile.Vec, i int) bool { return pv.Bools[i] && !pv.IsNull(i) }

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

// CheckPredicate reports a WHERE program that does not yield a boolean. The
// planners call it before any scan, so the error does not depend on the data.
func CheckPredicate(p *Prog) error {
	if t := p.OutType(); t != colfile.Bool {
		return fmt.Errorf("exec: predicate yields %s, not bool", t)
	}
	return nil
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
	if err := CheckPredicate(f.Pred); err != nil {
		return nil, err
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

// Next implements Operator. A batch OFFSET skips whole is dropped by its row
// count, and of the rest only the rows kept are gathered.
func (l *Limit) Next() (*colfile.Batch, error) {
	for l.emitted < l.N {
		b, err := l.In.Next()
		if err != nil || b == nil {
			return nil, err
		}
		n := int64(b.NumRows())
		lo := min(n, max(l.Offset-l.skipped, 0))
		l.skipped += lo
		hi := lo + min(n-lo, l.N-l.emitted) // cannot overflow, unlike lo+l.N
		if lo == hi {
			continue
		}
		l.emitted += hi - lo
		return cutBatch(b, int(lo), int(hi)), nil
	}
	return nil, nil
}

// cutBatch returns logical rows [lo, hi) of b as a dense batch: b itself when
// that is all of a dense b, otherwise a gather of those rows only.
func cutBatch(b *colfile.Batch, lo, hi int) *colfile.Batch {
	switch {
	case b.Sel != nil:
		return (&colfile.Batch{Schema: b.Schema, Cols: b.Cols, Sel: b.Sel[lo:hi]}).Materialize()
	case lo == 0 && hi == b.NumRows():
		return b
	default:
		return sliceBatch(b, lo, hi)
	}
}

func sliceBatch(b *colfile.Batch, lo, hi int) *colfile.Batch {
	out := &colfile.Batch{Schema: b.Schema, Cols: make([]*colfile.Vec, len(b.Cols))}
	for i, v := range b.Cols {
		out.Cols[i] = v.Slice(lo, hi)
	}
	return out
}

// Collect drains an operator into a single batch, for callers with no
// statement context: the storage engine's DML scans, benchmarks and tests.
// SELECT execution uses CollectCtx. Its result is read-only, as CollectCtx's.
func Collect(op Operator) (*colfile.Batch, error) {
	//polaris:ctx entry point for callers outside statement execution (core DML, harnesses)
	return CollectCtx(context.Background(), op)
}

// CollectCtx drains an operator into a single dense batch, checking ctx
// between batches: when a sibling unit of a ForEachIndexed pool fails (or the
// caller cancels), the drain stops at the next batch boundary instead of
// paying the remaining scan/probe/spill cost of a doomed plan fragment.
//
// A stream of one dense batch is passed through uncopied, under a header of
// the caller's own (op's schema, the batch's columns): a sorted run, a lone
// morsel's output, a single row group. So the result is read-only — its
// vectors may be a scan's, shared with every statement reading the file — and
// only its Schema and Cols fields may be changed (resliced, never written
// through). Any other stream is concatenated into new vectors. A dense batch
// may be held across the next Next (see Operator); a selected one is copied
// before it, because Filter reuses its selection and header.
func CollectCtx(ctx context.Context, op Operator) (*colfile.Batch, error) {
	schema := op.Schema()
	var lone, out *colfile.Batch // lone: the stream's only batch so far, dense and uncopied
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		b, err := op.Next()
		if err != nil {
			return nil, err
		}
		if schema == nil && b != nil {
			schema = b.Schema // op was built without one
		}
		switch {
		case b == nil && out != nil:
			return out, nil
		case b == nil && lone != nil:
			return &colfile.Batch{Schema: schema, Cols: lone.Cols}, nil
		case b == nil:
			return colfile.NewBatch(schema), nil
		case out == nil && lone == nil && b.Sel == nil:
			lone = b
			continue
		case out == nil:
			out = colfile.NewBatch(schema)
			if lone != nil {
				out.AppendBatch(lone)
			}
		}
		out.AppendBatch(b)
	}
}

// Sort, TopN and MergeRuns — the ORDER BY operator family — live in
// sort.go.
