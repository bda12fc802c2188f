// Morsel-driven parallel execution (in the spirit of modern analytic
// engines): a table scan is split into morsels sized by rows — runs of
// consecutive small files, or row-group windows of a large file — which a
// pool of workers pulls from a shared queue. Each worker runs the
// embarrassingly parallel fragment of the plan (scan, join probes, filter,
// project, partial aggregation) over its morsels; a final merge stage
// combines the per-morsel outputs deterministically. Because the morsel
// decomposition is fixed by the snapshot and configuration (not by how many
// workers the fabric grants), results are byte-stable for a given
// Parallelism setting; across different settings float SUM/AVG may differ in
// the last ulp because the morsel boundaries, and so summation order, change
// — and nothing else does: a DOP of 1 is this same plan run by one worker,
// there is no separate serial executor.
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
// morsels into runs (Sort) — or keep only the LIMIT+OFFSET smallest rows
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
// stay within the configured Parallelism. Such a join is a barrier inside the
// per-morsel pipeline: the fragments before it are materialized per morsel,
// JoinBatches returns per-morsel outputs in morsel order, and the fragments
// after it read those; a morsel with no rows has none after the barrier.
//
// The full cross-DOP determinism contract — what is byte-identical, what is
// merely deterministic per Parallelism setting, and the float caveats — is
// specified normatively in docs/ARCHITECTURE.md; this comment and that file
// must be kept in sync.
package exec

import (
	"context"
	"runtime"
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

// SplitMorsels slices a flat scan-file list into morsels sized by rows, not
// by file count. With at least `want` files it packs runs of consecutive
// files into at most `want` morsels of about total/want rows each (row counts
// from the footers): a morsel closes at the file that brings the rows so far
// to the next multiple of total/want, so none holds more than total/want
// rows plus its last file's. With fewer files it splits each file into
// row-group windows so at least `want` morsels exist when the data allows.
// Either way the decomposition is a pure function of the files and want, and
// the concatenation of all morsels in order preserves the input's global row
// order exactly.
func SplitMorsels(files []ScanFile, want int) []Morsel {
	if want < 1 {
		want = 1
	}
	if len(files) == 0 {
		return nil
	}
	if len(files) >= want {
		return packMorsels(files, int64(want))
	}
	// Fewer files than wanted workers: split each file into up to
	// ceil(want/len(files)) row-group windows.
	var morsels []Morsel
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

// packMorsels packs consecutive files into at most want morsels. Morsel k
// (from 1) closes at the first file whose cumulative rows reach k·total/want;
// a file that crosses several thresholds closes one morsel and skips the rest,
// and only thresholds below want close, so the last morsel takes whatever
// files remain. When every footer reports zero rows nothing closes and the
// files form one morsel.
func packMorsels(files []ScanFile, want int64) []Morsel {
	var total int64
	for _, f := range files {
		total += f.R.NumRows()
	}
	morsels := make([]Morsel, 0, want)
	start, cum, k := 0, int64(0), int64(1)
	for i, f := range files[:len(files)-1] {
		cum += f.R.NumRows()
		if total > 0 && k < want && cum*want >= k*total {
			morsels = append(morsels, Morsel{Files: files[start : i+1 : i+1]})
			start, k = i+1, cum*want/total+1
		}
	}
	return append(morsels, Morsel{Files: files[start:len(files):len(files)]})
}

// NewMorselScan builds a scan over one morsel (see NewScan).
func NewMorselScan(m Morsel, cols []string, pred *Prog, tel *Telemetry) (*Scan, error) {
	s, err := NewScan(m.Files, cols, pred, tel)
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
// folds them into final aggregate values. It emits the groups in group-id
// order — the order their keys first arrive — and sorts nothing: a grouped
// statement's order is the one Sort or TopN the SQL layer stacks on it (the
// ORDER BY keys, then the group keys). It is the only final aggregation:
// every GROUP BY merges its partials here.
type MergeAgg struct {
	In     Operator // stream of partial batches (groups + partial agg states)
	Groups int      // number of leading group-key columns
	Aggs   []AggSpec

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

// Next implements Operator. It is HashAgg's loop over partial states: one
// group id per partial row, each aggregate's partial columns merged into its
// columnar state in arrival order — morsel order — and the groups emitted in
// group-id order.
func (m *MergeAgg) Next() (*colfile.Batch, error) {
	if m.done {
		return nil, nil
	}
	m.done = true
	in := m.In.Schema()
	cols := make([]aggCol, len(m.Aggs))
	col := m.Groups
	for i, a := range m.Aggs {
		cols[i].kind = a.Kind
		if col < len(in) {
			cols[i].typ = in[col].Type
		}
		col += partialWidth(a.Kind)
	}
	var groups groupTable
	for {
		b, err := m.In.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		ids, err := groups.resolve(b.Cols[:m.Groups], b.Sel, b.NumRows())
		if err != nil {
			return nil, err
		}
		col := m.Groups
		for i := range cols {
			cols[i].grow(groups.keys.len())
			var cnt *colfile.Vec
			if partialWidth(cols[i].kind) == 2 {
				cnt = b.Cols[col+1]
			}
			cols[i].merge(b.Cols[col], cnt, b.Sel, ids)
			col += partialWidth(cols[i].kind)
		}
	}

	// A global aggregate over zero partial rows still yields one row.
	n := groups.keys.len()
	if n == 0 && m.Groups == 0 {
		n = 1
	}
	if n == 0 {
		return nil, nil
	}
	out := &colfile.Batch{Schema: m.Schema(), Cols: append([]*colfile.Vec(nil), groups.vals...)}
	for i := range cols {
		cols[i].grow(n) // the synthesized row; every seen group is there already
		out.Cols = append(out.Cols, cols[i].finalCol())
	}
	return out, nil
}
