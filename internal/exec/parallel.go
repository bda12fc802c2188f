// Morsel-driven parallel execution (in the spirit of modern analytic
// engines): a table scan is split into morsels — per-file, or per-row-group
// windows of a large file — which a pool of workers pulls from a shared
// queue. Each worker runs the embarrassingly parallel fragment of the plan
// (scan, filter, project, partial aggregation) over its morsels; a final
// merge stage combines the per-morsel outputs deterministically. Because the
// morsel decomposition is fixed by configuration (not by how many workers
// the fabric grants), results are byte-stable for a given Parallelism
// setting; across different settings float SUM/AVG may differ in the last
// ulp because summation order changes — and nothing else does: a DOP of 1
// is this same plan run by one worker, there is no separate serial executor.
//
// Hash-join probes are morsel-parallel too, with a stronger determinism
// contract: the JoinTable built from the build side is immutable and shared
// by every probe worker, each worker probes its morsels in morsel order, and
// within a morsel the output order is fixed by probe-row order then
// build-row order (partitioned parallel builds insert rows in build-row
// order, so match lists are identical to a single-threaded build's).
// RunIndexed returns per-morsel outputs in morsel order and BatchList
// concatenates them in that order, so join results are byte-identical across
// every degree of parallelism — joins carry none of the float-summation
// caveat because the probe never reorders or recombines values.
//
// ORDER BY is morsel-parallel as well (sort.go): workers stable-sort their
// morsels into runs (SortRuns) — or keep only the LIMIT+OFFSET smallest rows
// (TopN) — and a loser-tree k-way merge (MergeRuns) combines the runs,
// breaking ties by lowest morsel index. Stable runs plus that tie-break
// reproduce one stable sort of the whole input byte-for-byte at every DOP:
// NULLs first ascending / last descending, DESC keys, and ties by input
// order.
//
// Every fan-out above runs on one worker-pool primitive, ForEachIndexed:
// workers claim indexes from a shared queue, and the first failure — or the
// caller's context, which for a SELECT is the statement's — cancels a context
// the in-flight units observe (CollectCtx checks it between batches), so a
// failed unit stops its siblings at their next batch boundary instead of
// letting them drain doomed scans, probes and spill writes to completion.
// RunIndexed is the operator-per-index form the SQL layer calls;
// RunIndexedPrefix is its early-stopping variant for a bare LIMIT.
// Spilled joins (spill.go) reuse the same primitive to fan the partition-wise
// grace join out over depth-0 partitions, with the nested hash-join build
// parallelism capped so the partition tasks and their inner builds together
// stay within the configured Parallelism.
//
// The full cross-DOP determinism contract — what is byte-identical, what is
// merely deterministic per Parallelism setting, and the float caveats — is
// specified normatively in docs/ARCHITECTURE.md; this comment and that file
// must be kept in sync.
package exec

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"polaris/internal/colfile"
)

// Morsel is the unit of parallel scan work: one or more immutable data files,
// optionally restricted to a row-group window (only meaningful when the
// morsel holds a single file).
type Morsel struct {
	Files []ScanFile
	// GroupLo/GroupHi bound the row groups read; GroupHi == 0 means all.
	GroupLo, GroupHi int
}

// SplitMorsels slices a flat scan-file list into morsels: one per file, with
// large files further split by row group so at least `want` morsels exist
// when the data allows. The concatenation of all morsels in order preserves
// the input's global row order exactly.
func SplitMorsels(files []ScanFile, want int) []Morsel {
	if want < 1 {
		want = 1
	}
	if len(files) == 0 {
		return nil
	}
	var morsels []Morsel
	if len(files) >= want {
		for _, f := range files {
			morsels = append(morsels, Morsel{Files: []ScanFile{f}})
		}
		return morsels
	}
	// Fewer files than wanted workers: split each file into up to
	// ceil(want/len(files)) row-group windows.
	per := (want + len(files) - 1) / len(files)
	for _, f := range files {
		groups := f.R.NumRowGroups()
		parts := per
		if parts > groups {
			parts = groups
		}
		if parts <= 1 {
			morsels = append(morsels, Morsel{Files: []ScanFile{f}})
			continue
		}
		chunk := (groups + parts - 1) / parts
		for lo := 0; lo < groups; lo += chunk {
			hi := lo + chunk
			if hi > groups {
				hi = groups
			}
			morsels = append(morsels, Morsel{Files: []ScanFile{f}, GroupLo: lo, GroupHi: hi})
		}
	}
	return morsels
}

// NewMorselScan builds a scan over one morsel.
func NewMorselScan(m Morsel, cols []string, hint *PruneHint, tel *Telemetry) (*Scan, error) {
	s, err := NewScan(m.Files, cols, hint, tel)
	if err != nil {
		return nil, err
	}
	s.groupLo, s.groupHi = m.GroupLo, m.GroupHi
	return s, nil
}

// DefaultDOP returns the default degree of parallelism: GOMAXPROCS.
func DefaultDOP() int { return runtime.GOMAXPROCS(0) }

// ForEachIndexed is the engine's single worker-pool primitive: it fans the
// indexes [0, n) out over a pool of min(dop, n) workers, each worker claiming
// the next unclaimed index until the range is exhausted. Cancellation is
// context-based and flows both ways: the caller's ctx cancels the pool, and
// the first failing unit cancels a derived context handed to every work
// function — so in-flight units can stop at their next check (CollectCtx does
// this between batches) instead of draining a doomed scan, probe or spill
// write to completion. Workers also re-check the context before claiming the
// next index. Returns the first error (unit failure or ctx cancellation).
func ForEachIndexed(ctx context.Context, n, dop int, work func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if dop < 1 {
		dop = 1
	}
	if dop > n {
		dop = n
	}
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next  atomic.Int64
		mu    sync.Mutex
		first error
		wg    sync.WaitGroup
	)
	fail := func(err error) {
		mu.Lock()
		if first == nil {
			first = err
		}
		mu.Unlock()
		cancel()
	}
	for w := 0; w < dop; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || wctx.Err() != nil {
					return
				}
				if err := work(wctx, i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if first != nil {
		return first
	}
	return ctx.Err()
}

// RunIndexed runs one operator per index over the ForEachIndexed pool and
// collects each operator's output into results[i] — the engine's indexed
// fan-out. A (nil, nil) return from build skips the index (its result stays
// nil); an index that produces no rows also yields nil. Results are indexed by
// input position, never completion order, which is what makes the downstream
// merges deterministic. Operator execution observes ctx (and the pool's
// first-failure cancellation) between batches via CollectCtx.
func RunIndexed(ctx context.Context, n, dop int, build func(i int) (Operator, error)) ([]*colfile.Batch, error) {
	results := make([]*colfile.Batch, n)
	err := ForEachIndexed(ctx, n, dop, func(ctx context.Context, i int) error {
		b, err := runUnit(ctx, i, build)
		results[i] = b
		return err
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// runUnit builds and drains one unit of an indexed fan-out; nil for a skipped
// index or one that produced no rows.
func runUnit(ctx context.Context, i int, build func(i int) (Operator, error)) (*colfile.Batch, error) {
	op, err := build(i)
	if err != nil || op == nil {
		return nil, err
	}
	b, err := CollectCtx(ctx, op)
	if err != nil || b.NumRows() == 0 {
		return nil, err
	}
	return b, nil
}

// RunIndexedPrefix is RunIndexed for a consumer that reads only the first
// limit rows of the results' in-order concatenation (a bare LIMIT): once the
// completed prefix of units holds limit rows it cancels the pool, and the
// units that cancellation stops — whose output the consumer never reaches —
// are not errors. Workers run at most dop units ahead of the completed
// prefix, so a small limit builds O(dop) units however many there are and
// whichever worker is slowest. Entries past the prefix that filled the limit
// may or may not be present. A unit failure before the prefix fills, and a
// cancellation of ctx itself, are returned as by RunIndexed.
func RunIndexedPrefix(ctx context.Context, n, dop int, limit int64, build func(i int) (Operator, error)) ([]*colfile.Batch, error) {
	results := make([]*colfile.Batch, n)
	if limit <= 0 {
		return results, ctx.Err()
	}
	if dop < 1 {
		dop = 1
	}
	// pctx is the one context the window is built on: the caller's cancel,
	// the early stop and a unit failure all cancel it, its error is set
	// before Done closes, and the watcher below turns Done into a wake-up.
	pctx, stop := context.WithCancel(ctx)
	defer stop()
	var (
		mu     sync.Mutex
		moved  = sync.NewCond(&mu) // prefix advanced, or pctx was cancelled
		done   = make([]bool, n)
		prefix int   // units [0, prefix) have completed
		rows   int64 // rows they produced
	)
	go func() {
		<-pctx.Done()
		mu.Lock()
		moved.Broadcast()
		mu.Unlock()
	}()
	err := ForEachIndexed(pctx, n, dop, func(ctx context.Context, i int) error {
		mu.Lock()
		for i >= prefix+dop && pctx.Err() == nil {
			moved.Wait()
		}
		mu.Unlock()
		if pctx.Err() != nil {
			return nil // stopped or cancelled; the checks below report which
		}
		b, err := runUnit(ctx, i, build)
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			if rows >= limit {
				return nil // the stop cancelled this unit
			}
			stop()
			return err
		}
		results[i], done[i] = b, true
		for prefix < n && done[prefix] {
			if results[prefix] != nil {
				rows += int64(results[prefix].NumRows())
			}
			prefix++
		}
		moved.Broadcast()
		if rows >= limit {
			stop()
		}
		return nil
	})
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	if err != nil && rows < limit {
		return nil, err
	}
	return results, nil
}

// RunMorsels fans the morsels out over a pool of dop workers: RunIndexed over
// a morsel list with no caller context. It is the entry point of the operator
// benchmarks and harnesses (bench/, internal/bench, the exec tests); the SQL
// layer calls RunIndexed with the statement's context.
func RunMorsels(morsels []Morsel, dop int, build func(m Morsel) (Operator, error)) ([]*colfile.Batch, error) {
	//polaris:ctx harness entry point: benchmarks and tests have no statement context to pass
	return RunIndexed(context.Background(), len(morsels), dop, func(i int) (Operator, error) {
		return build(morsels[i])
	})
}

// BatchList replays a sequence of pre-materialized batches in order: the
// gather side of a parallel exchange.
type BatchList struct {
	schema  colfile.Schema
	batches []*colfile.Batch
	idx     int
}

// NewBatchList builds the exchange-gather operator over per-morsel outputs
// (nil entries are skipped). The schema parameter covers the all-empty case.
func NewBatchList(schema colfile.Schema, batches []*colfile.Batch) *BatchList {
	out := &BatchList{schema: schema}
	for _, b := range batches {
		if b != nil && b.NumRows() > 0 {
			out.batches = append(out.batches, b)
		}
	}
	return out
}

// Schema implements Operator.
func (l *BatchList) Schema() colfile.Schema { return l.schema }

// Next implements Operator.
func (l *BatchList) Next() (*colfile.Batch, error) {
	if l.idx >= len(l.batches) {
		return nil, nil
	}
	b := l.batches[l.idx]
	l.idx++
	return b, nil
}

// MergeAgg is the final stage of two-phase parallel aggregation: it consumes
// the partial-state batches emitted by HashAgg{Partial: true} workers and
// folds them into final aggregate values. Output rows are ordered by encoded
// group key, so the result is identical for every degree of parallelism.
type MergeAgg struct {
	In     Operator // stream of partial batches (groups + partial agg states)
	Groups int      // number of leading group-key columns
	Aggs   []AggSpec
	// MergeFree asserts that no group key appears in more than one partial
	// input row: distribution-aware aggregation. When the GROUP BY key set
	// covers the table's distribution column, cells are disjoint by d(r) and
	// cell-aligned morsels make every per-morsel partial already complete
	// for its groups, so the merge degenerates to finalizing each partial
	// row directly — no hash table, no state folding. Output remains ordered
	// by encoded group key, identical to the merging path's order.
	MergeFree bool
	Tel       *Telemetry

	schema colfile.Schema
	done   bool
}

// partialWidth returns how many partial-state columns an aggregate carries.
func partialWidth(k AggKind) int {
	switch k {
	case AggSum, AggAvg:
		return 2 // running sum + non-NULL count
	default:
		return 1
	}
}

// Schema implements Operator: the final schema, derived from the partial
// layout (groups..., then per aggregate its value column first).
func (m *MergeAgg) Schema() colfile.Schema {
	if m.schema != nil {
		return m.schema
	}
	in := m.In.Schema()
	m.schema = append(m.schema, in[:m.Groups]...)
	col := m.Groups
	for _, a := range m.Aggs {
		t := colfile.Int64
		switch a.Kind {
		case AggAvg:
			t = colfile.Float64
		case AggSum, AggMin, AggMax:
			if col < len(in) {
				t = in[col].Type
			}
		}
		m.schema = append(m.schema, colfile.Field{Name: a.Name, Type: t})
		col += partialWidth(a.Kind)
	}
	return m.schema
}

// Next implements Operator.
//
//polaris:kernel partial-state batches are produced dense by HashAgg (no Sel), so row index == physical lane
func (m *MergeAgg) Next() (*colfile.Batch, error) {
	if m.done {
		return nil, nil
	}
	m.done = true
	if m.MergeFree {
		return m.concat()
	}
	groups := make(map[string]*aggState)
	var keyBuf []byte
	for {
		b, err := m.In.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		if m.Tel != nil {
			m.Tel.RowsProcessed.Add(int64(b.NumRows()))
		}
		for r := 0; r < b.NumRows(); r++ {
			keyBuf = appendGroupKey(keyBuf[:0], b.Cols[:m.Groups], r)
			st, ok := groups[string(keyBuf)]
			if !ok {
				st = newAggState(groupVals(b.Cols[:m.Groups], r), len(m.Aggs))
				groups[string(keyBuf)] = st
			}
			col := m.Groups
			for i, a := range m.Aggs {
				v := b.Cols[col]
				switch a.Kind {
				case AggCount, AggCountStar:
					st.count[i] += v.Ints[r]
				case AggSum:
					cnt := b.Cols[col+1].Ints[r]
					st.count[i] += cnt
					if cnt > 0 {
						switch v.Type {
						case colfile.Int64:
							st.sumI[i] += v.Ints[r]
							st.sumF[i] += float64(v.Ints[r])
						case colfile.Float64:
							st.isFloat[i] = true
							st.sumF[i] += v.Floats[r]
						}
					}
				case AggAvg:
					cnt := b.Cols[col+1].Ints[r]
					st.count[i] += cnt
					if cnt > 0 {
						st.sumF[i] += v.Floats[r]
					}
				case AggMin, AggMax:
					if v.IsNull(r) {
						break // this worker saw no values for the group
					}
					st.observeMinMax(a.Kind, v, r, i)
				}
				col += partialWidth(a.Kind)
			}
		}
	}

	// A global aggregate over zero partial rows still yields one row.
	if m.Groups == 0 && len(groups) == 0 {
		groups[""] = newAggState(nil, len(m.Aggs))
	}

	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := colfile.NewBatch(m.Schema())
	for _, key := range keys {
		st := groups[key]
		row := make([]any, 0, m.Groups+len(m.Aggs))
		row = append(row, st.groupVals...)
		for i, a := range m.Aggs {
			row = append(row, finalAggValue(a.Kind, st, i, m.schema[m.Groups+i].Type))
		}
		if err := out.AppendRow(row...); err != nil {
			return nil, err
		}
	}
	if out.NumRows() == 0 {
		return nil, nil
	}
	return out, nil
}

// concat is the merge-free path: every partial input row is a complete group
// (disjoint by d(r)), so each row is finalized directly and the rows are
// ordered by encoded group key — the same output order the merging path
// produces.
func (m *MergeAgg) concat() (*colfile.Batch, error) {
	type keyedRow struct {
		key  string
		vals []any
	}
	var rows []keyedRow
	var keyBuf []byte
	for {
		b, err := m.In.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		if m.Tel != nil {
			m.Tel.RowsProcessed.Add(int64(b.NumRows()))
		}
		for r := 0; r < b.NumRows(); r++ {
			keyBuf = appendGroupKey(keyBuf[:0], b.Cols[:m.Groups], r)
			vals := make([]any, 0, m.Groups+len(m.Aggs))
			vals = append(vals, groupVals(b.Cols[:m.Groups], r)...)
			col := m.Groups
			for _, a := range m.Aggs {
				vals = append(vals, finalizePartial(a.Kind, b, col, r))
				col += partialWidth(a.Kind)
			}
			rows = append(rows, keyedRow{key: string(keyBuf), vals: vals})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].key < rows[j].key })
	out := colfile.NewBatch(m.Schema())
	for _, kr := range rows {
		if err := out.AppendRow(kr.vals...); err != nil {
			return nil, err
		}
	}
	if out.NumRows() == 0 {
		return nil, nil
	}
	return out, nil
}

// finalizePartial renders one aggregate's final value directly from its
// partial-state columns at row r (value column at col; SUM/AVG carry a
// non-NULL count at col+1).
//
//polaris:kernel partial-state batches are dense (no Sel), so r is already a physical lane
func finalizePartial(k AggKind, b *colfile.Batch, col, r int) any {
	v := b.Cols[col]
	switch k {
	case AggCount, AggCountStar:
		return v.Ints[r]
	case AggSum:
		if b.Cols[col+1].Ints[r] == 0 {
			return nil
		}
		if v.Type == colfile.Float64 {
			return v.Floats[r]
		}
		return v.Ints[r]
	case AggAvg:
		cnt := b.Cols[col+1].Ints[r]
		if cnt == 0 {
			return nil
		}
		return v.Floats[r] / float64(cnt)
	case AggMin, AggMax:
		return v.Value(r)
	}
	return nil
}

// newAggState builds an empty accumulator for nAggs aggregates.
func newAggState(groupVals []any, nAggs int) *aggState {
	return &aggState{
		groupVals: groupVals,
		count:     make([]int64, nAggs),
		sumF:      make([]float64, nAggs),
		sumI:      make([]int64, nAggs),
		isFloat:   make([]bool, nAggs),
		seen:      make([]bool, nAggs),
		mmT:       make([]colfile.DataType, nAggs),
		mmI:       make([]int64, nAggs),
		mmF:       make([]float64, nAggs),
		mmS:       make([]string, nAggs),
		mmB:       make([]bool, nAggs),
	}
}

// finalAggValue renders one aggregate's final value from its accumulator.
func finalAggValue(k AggKind, st *aggState, i int, outType colfile.DataType) any {
	switch k {
	case AggCount, AggCountStar:
		return st.count[i]
	case AggSum:
		if st.count[i] == 0 {
			return nil
		}
		if st.isFloat[i] || outType == colfile.Float64 {
			return st.sumF[i]
		}
		return st.sumI[i]
	case AggAvg:
		if st.count[i] == 0 {
			return nil
		}
		return st.sumF[i] / float64(st.count[i])
	case AggMin, AggMax:
		return st.minmaxValue(i)
	}
	return nil
}
