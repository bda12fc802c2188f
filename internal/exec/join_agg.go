package exec

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"polaris/internal/colfile"
)

// JoinType selects join semantics.
type JoinType int

// Supported joins.
const (
	InnerJoin JoinType = iota
	LeftOuterJoin
	SemiJoin // EXISTS-style: emit left rows with >=1 match, left schema only
)

// JoinTable is the immutable product of a hash-join build: the materialized
// build side plus hash-partitioned key tables. Once BuildHashJoin returns,
// a JoinTable is read-only, so any number of Probe workers may share it
// concurrently without synchronization — the foundation of the
// morsel-parallel probe.
type JoinTable struct {
	parts []map[string][]int // len is the build partition count
	build *colfile.Batch
	typ   JoinType
}

// BuildSchema returns the build side's schema.
func (jt *JoinTable) BuildSchema() colfile.Schema { return jt.build.Schema }

// lookup finds the build rows matching an encoded probe key (no allocation:
// the []byte→string map index is allocation-free in Go).
func (jt *JoinTable) lookup(k []byte) []int {
	return jt.parts[fnv32a(k)%uint32(len(jt.parts))][string(k)]
}

// buildParallelMinRows is the build-side size below which a partitioned
// parallel build is not worth the fan-out overhead.
const buildParallelMinRows = 4096

// BuildHashJoin drains the build operator and constructs the shared probe
// table. With parallelism > 1 and a large enough build side, the build is
// hash-partitioned and the partition tables are built concurrently; probe
// results are identical to a serial build because each partition inserts its
// rows in build-row order.
func BuildHashJoin(build Operator, keys []int, typ JoinType, parallelism int, tel *Telemetry) (*JoinTable, error) {
	all, err := Collect(build)
	if err != nil {
		return nil, err
	}
	n := all.NumRows()
	p := parallelism
	if p < 1 || n < buildParallelMinRows {
		p = 1
	}

	// Pass 1: typed key encoding and partition bucketing, parallel over row
	// ranges (NULL keys get no bucket and never match). Each range worker
	// appends its row indices to per-(range, partition) buckets in row
	// order, keeping total work O(n).
	rowKeys := make([]string, n)
	buckets := make([][][]int, p) // [range][partition] -> row indices
	chunk := (n + p - 1) / p
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		buckets[w] = make([][]int, p)
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			var scratch []byte
			for i := lo; i < hi; i++ {
				k, ok := appendRowKey(scratch[:0], all, keys, i)
				scratch = k
				if !ok {
					continue
				}
				rowKeys[i] = string(k)
				part := int(fnv32a(k) % uint32(p))
				buckets[w][part] = append(buckets[w][part], i)
			}
		}(w, lo, hi)
	}
	wg.Wait()

	// Pass 2: each worker owns one hash partition and inserts its buckets
	// in range order — row order overall — so lookups see matches in the
	// same order a serial build would produce.
	parts := make([]map[string][]int, p)
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			part := make(map[string][]int)
			for r := 0; r < p; r++ {
				for _, i := range buckets[r][w] {
					part[rowKeys[i]] = append(part[rowKeys[i]], i)
				}
			}
			parts[w] = part
		}(w)
	}
	wg.Wait()

	if tel != nil {
		tel.RowsProcessed.Add(int64(n))
	}
	return &JoinTable{parts: parts, build: all, typ: typ}, nil
}

// fnv32a is the FNV-1a hash used to assign encoded keys to build partitions.
func fnv32a(s []byte) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// appendRowKey encodes the key columns of row i into dst (see Vec.AppendKey);
// ok=false when any key column is NULL — a NULL key never matches.
func appendRowKey(dst []byte, b *colfile.Batch, keys []int, i int) ([]byte, bool) {
	for _, c := range keys {
		v := b.Cols[c]
		if v.IsNull(i) {
			return dst, false
		}
		dst = v.AppendKey(dst, i)
	}
	return dst, true
}

// Probe streams probe-side batches against a shared JoinTable. Each Probe
// owns its scratch buffers (key encoding plus the two-sided gather index
// lists), so one JoinTable feeds many concurrent Probe instances — one per
// morsel worker — race-free. Matched rows are emitted as a bulk two-sided
// gather (Vec.Take) instead of row-at-a-time appends.
type Probe struct {
	In       Operator
	Table    *JoinTable
	LeftKeys []int
	Tel      *Telemetry
	// Bloom, when set, short-circuits the hash-table walk for probe keys the
	// runtime filter proves absent. No false negatives, so results are
	// byte-identical with or without it (docs/PLANNER.md).
	Bloom *Bloom
	// Pruned, when set, accumulates the rows Bloom rejected (row-based, so
	// DOP-invariant; the planner points it at WorkStats.RuntimeFilterRows).
	Pruned *atomic.Int64

	schema colfile.Schema
	keyBuf []byte
	lIdx   []int // probe-row gather indexes
	rIdx   []int // build-row gather indexes; -1 pads outer-join misses
}

// Schema implements Operator.
func (p *Probe) Schema() colfile.Schema {
	if p.schema == nil {
		l := p.In.Schema()
		if p.Table.typ == SemiJoin {
			p.schema = l
		} else {
			p.schema = append(append(colfile.Schema{}, l...), p.Table.build.Schema...)
		}
	}
	return p.schema
}

// Next implements Operator.
func (p *Probe) Next() (*colfile.Batch, error) {
	for {
		lb, err := p.In.Next()
		if err != nil || lb == nil {
			return nil, err
		}
		if p.Tel != nil {
			p.Tel.RowsProcessed.Add(int64(lb.NumRows()))
		}
		if out := p.probeBatch(lb); out.NumRows() > 0 {
			return out, nil
		}
	}
}

// probeBatch joins one probe batch against the shared table. Output row
// order is fixed by probe-row order then build-row order, so results are
// deterministic for any decomposition of the probe stream into batches.
// Selected batches are probed through their selection vector (logical order
// equals ascending physical order), so a filtered probe side needs no
// materialization.
func (p *Probe) probeBatch(lb *colfile.Batch) *colfile.Batch {
	jt := p.Table
	p.lIdx, p.rIdx = p.lIdx[:0], p.rIdx[:0]
	var pruned int64
	for i := 0; i < lb.NumRows(); i++ {
		phys := lb.RowIdx(i)
		k, ok := appendRowKey(p.keyBuf[:0], lb, p.LeftKeys, phys)
		p.keyBuf = k[:0]
		var matches []int
		if ok {
			if p.Bloom != nil && !p.Bloom.MayContain(k) {
				pruned++ // provably no match: skip the hash-table walk
			} else {
				matches = jt.lookup(k)
			}
		}
		switch jt.typ {
		case SemiJoin:
			if len(matches) > 0 {
				p.lIdx = append(p.lIdx, phys)
			}
		case InnerJoin:
			for _, m := range matches {
				p.lIdx = append(p.lIdx, phys)
				p.rIdx = append(p.rIdx, m)
			}
		case LeftOuterJoin:
			if len(matches) == 0 {
				p.lIdx = append(p.lIdx, phys)
				p.rIdx = append(p.rIdx, -1)
			} else {
				for _, m := range matches {
					p.lIdx = append(p.lIdx, phys)
					p.rIdx = append(p.rIdx, m)
				}
			}
		}
	}
	countPruned(p.Pruned, pruned)
	schema := p.Schema()
	out := &colfile.Batch{Schema: schema, Cols: make([]*colfile.Vec, len(schema))}
	leftCols := len(lb.Cols)
	for c := 0; c < leftCols; c++ {
		out.Cols[c] = lb.Cols[c].Take(p.lIdx)
	}
	for c := leftCols; c < len(schema); c++ {
		out.Cols[c] = jt.build.Cols[c-leftCols].Take(p.rIdx)
	}
	return out
}

// HashJoin is a build/probe equi-join. The right child is the build side.
// With Parallelism > 1 the build side is hash-partitioned and the partition
// tables are built concurrently. Next runs the probe serially over Left.
//
// The SQL planner does NOT use this operator: it drains every build through
// BuildGraceJoin — which honors the join memory budget and may spill — and
// fans Probe (or, for a spilled build, JoinBatches) out itself. HashJoin is the always-in-memory
// reference composition of BuildHashJoin+Probe, kept as the oracle the join
// semantics tests compare against; new callers wanting budget-aware joins
// should go through BuildGraceJoin.
type HashJoin struct {
	Left, Right Operator
	// LeftKeys and RightKeys are column indexes into each child's schema.
	LeftKeys, RightKeys []int
	Type                JoinType
	Parallelism         int
	Tel                 *Telemetry

	probe  *Probe
	schema colfile.Schema
}

// Schema implements Operator.
func (j *HashJoin) Schema() colfile.Schema {
	if j.schema == nil {
		l := j.Left.Schema()
		if j.Type == SemiJoin {
			j.schema = l
		} else {
			j.schema = append(append(colfile.Schema{}, l...), j.Right.Schema()...)
		}
	}
	return j.schema
}

// Next implements Operator.
func (j *HashJoin) Next() (*colfile.Batch, error) {
	if j.probe == nil {
		jt, err := BuildHashJoin(j.Right, j.RightKeys, j.Type, j.Parallelism, j.Tel)
		if err != nil {
			return nil, err
		}
		j.probe = &Probe{In: j.Left, Table: jt, LeftKeys: j.LeftKeys, Tel: j.Tel}
	}
	return j.probe.Next()
}

// AggKind enumerates aggregate functions.
type AggKind int

// Aggregates.
const (
	AggCount AggKind = iota
	AggCountStar
	AggSum
	AggMin
	AggMax
	AggAvg
)

var aggNames = map[AggKind]string{
	AggCount: "count", AggCountStar: "count(*)", AggSum: "sum",
	AggMin: "min", AggMax: "max", AggAvg: "avg",
}

// AggSpec is one aggregate in a HashAgg.
type AggSpec struct {
	Kind AggKind
	Arg  *Prog // compiled against the HashAgg's input schema; nil for COUNT(*)
	Name string
}

// HashAgg groups by key expressions and computes aggregates. In Partial mode
// (the per-worker phase of two-phase parallel aggregation) it emits
// mergeable partial states — per aggregate a value column plus, for SUM/AVG,
// a non-NULL count column — which MergeAgg folds into final values.
// Group-by and aggregate-argument expressions are kernel programs compiled
// against In's schema (immutable, shareable across per-morsel instances),
// and the accumulation loop reads typed payload slices directly — per input
// row it boxes nothing.
type HashAgg struct {
	In      Operator
	GroupBy []*Prog
	Aggs    []AggSpec
	Partial bool
	Tel     *Telemetry

	schema colfile.Schema
	done   bool
}

// aggState accumulates one group. MIN/MAX state is typed (mmT selects the
// payload): values are compared and stored unboxed per row and boxed exactly
// once per group when the result row is rendered — the dominant allocation
// in the pre-vectorized profile.
type aggState struct {
	groupVals []any
	count     []int64
	sumF      []float64
	sumI      []int64
	isFloat   []bool
	seen      []bool
	mmT       []colfile.DataType
	mmI       []int64
	mmF       []float64
	mmS       []string
	mmB       []bool
}

// observeMinMax folds physical lane p of v into min/max slot i.
//
//polaris:kernel p is a physical position the caller already translated through the batch's selection
func (st *aggState) observeMinMax(k AggKind, v *colfile.Vec, p, i int) {
	if !st.seen[i] {
		st.seen[i] = true
		st.mmT[i] = v.Type
		switch v.Type {
		case colfile.Int64:
			st.mmI[i] = v.Ints[p]
		case colfile.Float64:
			st.mmF[i] = v.Floats[p]
		case colfile.String:
			st.mmS[i] = v.Strs[p]
		case colfile.Bool:
			st.mmB[i] = v.Bools[p]
		}
		return
	}
	var c int
	switch v.Type {
	case colfile.Int64:
		c = cmpOrd(v.Ints[p], st.mmI[i])
	case colfile.Float64:
		c = cmpOrd(v.Floats[p], st.mmF[i])
	case colfile.String:
		c = strings.Compare(v.Strs[p], st.mmS[i])
	case colfile.Bool:
		c = cmpOrd(b2i(v.Bools[p]), b2i(st.mmB[i]))
	}
	if (k == AggMin && c < 0) || (k == AggMax && c > 0) {
		switch v.Type {
		case colfile.Int64:
			st.mmI[i] = v.Ints[p]
		case colfile.Float64:
			st.mmF[i] = v.Floats[p]
		case colfile.String:
			st.mmS[i] = v.Strs[p]
		case colfile.Bool:
			st.mmB[i] = v.Bools[p]
		}
	}
}

// minmaxValue boxes min/max slot i's value for result rendering (nil when the
// group saw no non-NULL values).
func (st *aggState) minmaxValue(i int) any {
	if !st.seen[i] {
		return nil
	}
	switch st.mmT[i] {
	case colfile.Int64:
		return st.mmI[i]
	case colfile.Float64:
		return st.mmF[i]
	case colfile.String:
		return st.mmS[i]
	case colfile.Bool:
		return st.mmB[i]
	}
	return nil
}

// Schema implements Operator. The output schema is a function of the compiled
// programs alone (source rendering for names, OutType for types), so a
// HashAgg with no input attached still describes its output.
func (h *HashAgg) Schema() colfile.Schema {
	if h.schema != nil {
		return h.schema
	}
	for _, g := range h.GroupBy {
		h.schema = append(h.schema, colfile.Field{Name: g.String(), Type: g.OutType()})
	}
	for _, a := range h.Aggs {
		t := colfile.Int64
		switch a.Kind {
		case AggAvg:
			t = colfile.Float64
		case AggSum, AggMin, AggMax:
			if a.Arg != nil {
				t = a.Arg.OutType()
			}
			if a.Kind == AggSum && t == colfile.Bool {
				t = colfile.Int64
			}
		}
		name := a.Name
		if name == "" {
			if a.Arg != nil {
				name = fmt.Sprintf("%s(%s)", aggNames[a.Kind], a.Arg)
			} else {
				name = aggNames[a.Kind]
			}
		}
		h.schema = append(h.schema, colfile.Field{Name: name, Type: t})
		if h.Partial && partialWidth(a.Kind) == 2 {
			h.schema = append(h.schema, colfile.Field{Name: name + "$cnt", Type: colfile.Int64})
		}
	}
	return h.schema
}

// Next implements Operator.
//
//polaris:kernel the aggregation loop walks phys positions taken from Batch.Sel (or dense [0,n)) before touching lanes
func (h *HashAgg) Next() (*colfile.Batch, error) {
	if h.done {
		return nil, nil
	}
	h.done = true
	groups := make(map[string]*aggState)
	var order []string
	var keyBuf []byte

	keyCtxs := make([]EvalCtx, len(h.GroupBy))
	argCtxs := make([]EvalCtx, len(h.Aggs))
	keyVecs := make([]*colfile.Vec, len(h.GroupBy))
	argVecs := make([]*colfile.Vec, len(h.Aggs))

	for {
		b, err := h.In.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		if h.Tel != nil {
			h.Tel.RowsProcessed.Add(int64(b.NumRows()))
		}
		for i, g := range h.GroupBy {
			if keyVecs[i], err = g.Run(&keyCtxs[i], b); err != nil {
				return nil, err
			}
		}
		for i, a := range h.Aggs {
			if a.Arg == nil {
				continue
			}
			if argVecs[i], err = a.Arg.Run(&argCtxs[i], b); err != nil {
				return nil, err
			}
		}
		for r := 0; r < b.NumRows(); r++ {
			phys := b.RowIdx(r)
			keyBuf = appendGroupKey(keyBuf[:0], keyVecs, phys)
			st, ok := groups[string(keyBuf)]
			if !ok {
				st = newAggState(groupVals(keyVecs, phys), len(h.Aggs))
				key := string(keyBuf)
				groups[key] = st
				order = append(order, key)
			}
			for i, a := range h.Aggs {
				if a.Kind == AggCountStar {
					st.count[i]++
					continue
				}
				v := argVecs[i]
				if v.IsNull(phys) {
					continue // aggregates skip NULLs
				}
				st.count[i]++
				switch a.Kind {
				case AggSum, AggAvg:
					switch v.Type {
					case colfile.Int64:
						st.sumI[i] += v.Ints[phys]
						st.sumF[i] += float64(v.Ints[phys])
					case colfile.Float64:
						st.isFloat[i] = true
						st.sumF[i] += v.Floats[phys]
					default:
						return nil, fmt.Errorf("exec: SUM over %s", v.Type)
					}
				case AggMin, AggMax:
					st.observeMinMax(a.Kind, v, phys, i)
				}
			}
		}
	}

	// Global aggregate with no groups and no input still yields one row
	// (in partial mode MergeAgg synthesizes it, so workers stay silent).
	if len(h.GroupBy) == 0 && len(order) == 0 && !h.Partial {
		groups[""] = newAggState(nil, len(h.Aggs))
		order = append(order, "")
	}

	out := colfile.NewBatch(h.Schema())
	for _, key := range order {
		st := groups[key]
		row := make([]any, 0, len(h.Schema()))
		row = append(row, st.groupVals...)
		for i, a := range h.Aggs {
			if h.Partial {
				row = h.appendPartial(row, a.Kind, st, i)
				continue
			}
			row = append(row, finalAggValue(a.Kind, st, i, h.schema[len(h.GroupBy)+i].Type))
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

// appendPartial emits the mergeable state of one aggregate: its running
// value, plus the non-NULL count for SUM/AVG (needed so the merge can tell
// "all NULL" from zero).
func (h *HashAgg) appendPartial(row []any, k AggKind, st *aggState, i int) []any {
	switch k {
	case AggCount, AggCountStar:
		return append(row, st.count[i])
	case AggSum:
		var v any
		if st.count[i] > 0 {
			if st.isFloat[i] || h.partialSumType(i) == colfile.Float64 {
				v = st.sumF[i]
			} else {
				v = st.sumI[i]
			}
		}
		return append(append(row, v), st.count[i])
	case AggAvg:
		return append(append(row, st.sumF[i]), st.count[i])
	case AggMin, AggMax:
		return append(row, st.minmaxValue(i))
	}
	return append(row, nil)
}

// partialSumType returns the declared type of aggregate slot i's value column
// in the partial schema.
func (h *HashAgg) partialSumType(i int) colfile.DataType {
	col := len(h.GroupBy)
	for j := 0; j < i; j++ {
		col += partialWidth(h.Aggs[j].Kind)
	}
	return h.Schema()[col].Type
}

// appendGroupKey encodes row r's group-key columns into dst with the typed,
// self-delimiting Vec.AppendKey encoding (NULL is a distinct one-byte tag,
// so a NULL group can never collide with any value). Both aggregation phases
// — the partial HashAgg workers and the final MergeAgg — go through this one
// encoding: groups merge iff their keys are byte-identical, and a bytewise
// sort of keys orders numeric groups by value.
func appendGroupKey(dst []byte, vecs []*colfile.Vec, r int) []byte {
	for _, v := range vecs {
		dst = v.AppendKey(dst, r)
	}
	return dst
}

// groupVals materializes row r's group-key values (nil for NULL) for result
// rendering — called once per distinct group, not per row.
func groupVals(vecs []*colfile.Vec, r int) []any {
	vals := make([]any, len(vecs))
	for i, v := range vecs {
		vals[i] = v.Value(r)
	}
	return vals
}
