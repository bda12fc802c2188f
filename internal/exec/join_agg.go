package exec

import (
	"fmt"
	"math"
	"slices"
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
	parts []joinPart // len is the build partition count
	build *colfile.Batch
	keys  []*colfile.Vec // the build side's key columns
	typ   JoinType
	coded []codedCol // per build column, its coding once a probe asked for it
	// codeRoom, when set, is what the join memory budget has left after
	// admitting the build: a column's coding is charged to it, and a column
	// whose coding does not fit is gathered plain.
	codeRoom *atomic.Int64
}

// codedCol is one build column's coding, made at most once (codedCol).
type codedCol struct {
	once sync.Once
	vec  *colfile.Vec
}

// joinPart is one build partition: the distinct keys that hash to it and,
// per key id, its build rows in build-row order —
// rows[start[id]:start[id+1]].
type joinPart struct {
	keys  keyTable
	start []int32
	rows  []int32
}

// partOf assigns a key hash to one of n build partitions. It reads the high
// half of the hash; a partition's keyTable places by the low bits.
func partOf(h uint64, n int) int { return int((h >> 32) % uint64(n)) }

// lookup finds the build rows matching an encoded probe key with hash h, in
// build-row order; the result aliases the table.
func (jt *JoinTable) lookup(k []byte, h uint64) []int32 {
	p := &jt.parts[partOf(h, len(jt.parts))]
	return p.match(p.keys.find(k, h))
}

// lookupWord is lookup for a word key.
func (jt *JoinTable) lookupWord(w int64, h uint64) []int32 {
	p := &jt.parts[partOf(h, len(jt.parts))]
	return p.match(p.keys.findWord(w, h))
}

// match returns key id's build rows, none for -1.
func (p *joinPart) match(id int32) []int32 {
	if id < 0 {
		return nil
	}
	return p.rows[p.start[id]:p.start[id+1]]
}

// buildParallelMinRows is the build-side size below which a partitioned
// parallel build is not worth the fan-out overhead.
const buildParallelMinRows = 4096

// rangeKeys is what pass 1 of a build leaves for one range of build rows: the
// key and hash of every row whose key is not NULL, with its row number, and
// per build partition the keys that belong to it, in row order. A word key is
// not copied: it is the build column's value at that row.
type rangeKeys struct {
	keyList
	row   []int32   // build row of key j
	parts [][]int32 // [partition] -> key indexes j, ascending
}

// BuildHashJoin drains the build operator and constructs the shared probe
// table. With parallelism > 1 and a large enough build side, the build is
// hash-partitioned and the partition tables are built concurrently; probe
// results are identical to a serial build because each partition inserts its
// rows in build-row order.
func BuildHashJoin(build Operator, keys []int, typ JoinType, parallelism int) (*JoinTable, error) {
	all, err := Collect(build)
	if err != nil {
		return nil, err
	}
	n := all.NumRows()
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("exec: join build side of %d rows exceeds 2^31-1", n)
	}
	p := parallelism
	if p < 1 || n < buildParallelMinRows {
		p = 1
	}
	vecs := keyVecs(nil, all, keys)
	word := wordKey(vecs)

	// Pass 1: key hashing and partition bucketing, parallel over row ranges
	// (NULL keys get no entry and never match). Each range worker hashes its
	// rows column at a time, appends its keys to its own list and their
	// indexes to per-partition lists in row order, keeping total work O(n).
	ranges := make([]rangeKeys, p)
	chunk := (n + p - 1) / p
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		ranges[w].parts = make([][]int32, p)
		lo, hi := w*chunk, min((w+1)*chunk, n)
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(rk *rangeKeys, lo, hi int) {
			defer wg.Done()
			rk.hashes = make([]uint64, 0, hi-lo)
			rk.row = make([]int32, 0, hi-lo)
			if !word {
				rk.ends = make([]int, 0, hi-lo)
			}
			buf := make([]uint64, min(hashChunk, hi-lo))
			var scratch []byte
			for c := lo; c < hi; c += len(buf) {
				hs := buf[:min(len(buf), hi-c)]
				hashKeys(hs, vecs, nil, c)
				for j, h := range hs {
					i := c + j
					switch {
					case anyNull(vecs, i):
						continue
					case word:
						rk.hashes = append(rk.hashes, h)
					default:
						scratch = appendJoinKey(scratch[:0], vecs, i)
						rk.add(scratch, h)
					}
					part := partOf(h, p)
					rk.parts[part] = append(rk.parts[part], int32(rk.len()-1))
					rk.row = append(rk.row, int32(i))
				}
			}
		}(&ranges[w], lo, hi)
	}
	wg.Wait()

	// Pass 2: each worker owns one hash partition and inserts its keys in
	// range order — row order overall — so lookups see matches in the same
	// order a serial build would produce.
	parts := make([]joinPart, p)
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			parts[w] = buildJoinPart(ranges, w, vecs)
		}(w)
	}
	wg.Wait()

	return &JoinTable{parts: parts, build: all, keys: vecs, typ: typ, coded: make([]codedCol, len(all.Cols))}, nil
}

// codedCol is String build column c dictionary-coded (colfile.Vec.DictCoded):
// minted once, by the first probe that gathers the column coded, and then
// shared by every probe. The build's own vector is not changed: a collected
// batch may share its vectors with a scan. The coding — 8 bytes a code, plus
// the dictionary as MemSize meters strings — is charged to codeRoom; when it
// does not fit, codedCol is the plain column.
func (jt *JoinTable) codedCol(c int) *colfile.Vec {
	cc := &jt.coded[c]
	cc.once.Do(func() {
		plain := jt.build.Cols[c]
		cc.vec = plain
		codes := 8 * int64(plain.Len())
		if !jt.charge(codes) {
			return
		}
		coded := plain.DictCoded()
		if !jt.charge((&colfile.Vec{Type: colfile.String, Strs: coded.Strs}).MemSize()) {
			jt.codeRoom.Add(codes)
			return
		}
		cc.vec = coded
	})
	return cc.vec
}

// charge takes n bytes from codeRoom, reporting whether they fit.
func (jt *JoinTable) charge(n int64) bool {
	if jt.codeRoom == nil {
		return true
	}
	for {
		room := jt.codeRoom.Load()
		if room < n {
			return false
		}
		if jt.codeRoom.CompareAndSwap(room, room-n) {
			return true
		}
	}
}

// buildJoinPart builds partition w from every range's keys for it: one pass
// numbers the keys and counts their rows, a second lays the rows out per key.
// Both walk the ranges in order, so a key's rows stay in build-row order.
// keys are the build side's key columns.
//
//polaris:kernel the build side is collected dense, so a build row is a physical lane
func buildJoinPart(ranges []rangeKeys, w int, keys []*colfile.Vec) joinPart {
	word := wordKey(keys)
	total := 0
	for r := range ranges {
		total += len(ranges[r].parts[w])
	}
	var jp joinPart
	jp.keys.reserve(total, word) // at most one key per build row
	ids := make([]int32, 0, total)
	for r := range ranges {
		rk := &ranges[r]
		for _, j := range rk.parts[w] {
			var id int32
			if word {
				id, _ = jp.keys.insertWord(keys[0].Ints[rk.row[j]], rk.hashes[j])
			} else {
				id, _ = jp.keys.insert(rk.key(j), rk.hashes[j])
			}
			ids = append(ids, id)
		}
	}
	// start[id+1] counts key id's rows, then becomes the running offset.
	jp.start = make([]int32, jp.keys.len()+1)
	for _, id := range ids {
		jp.start[id+1]++
	}
	for id := 1; id < len(jp.start); id++ {
		jp.start[id] += jp.start[id-1]
	}
	jp.rows = make([]int32, total)
	next := append([]int32(nil), jp.start[:jp.keys.len()]...)
	k := 0
	for r := range ranges {
		rk := &ranges[r]
		for _, j := range rk.parts[w] {
			id := ids[k]
			k++
			jp.rows[next[id]] = rk.row[j]
			next[id]++
		}
	}
	return jp
}

// anyNull reports whether lane i of any key column is NULL: a NULL key never
// matches.
func anyNull(vecs []*colfile.Vec, i int) bool {
	for _, v := range vecs {
		if v.IsNull(i) {
			return true
		}
	}
	return false
}

// keyVecs returns batch b's key columns, reusing dst: plain, since a join
// key is hashed and encoded as strings.
func keyVecs(dst []*colfile.Vec, b *colfile.Batch, keys []int) []*colfile.Vec {
	dst = dst[:0]
	for _, c := range keys {
		dst = append(dst, b.Cols[c].Plain())
	}
	return dst
}

// Probe streams probe-side batches against a shared JoinTable. Each Probe
// holds its own scratch (key hashes and encoding plus the two-sided gather
// index lists), so one JoinTable feeds many concurrent Probe instances — one
// per morsel fragment — race-free. Matched rows are emitted as a bulk
// two-sided gather (Vec.Take) of the columns the probe keeps.
type Probe struct {
	In       Operator
	Table    *JoinTable
	LeftKeys []int
	// Cols, when set, lists the columns the probe gathers, in output order,
	// as positions in its full output: the probe side's columns, then the
	// build side's (a semi join's full output is the probe side's). The
	// planner keeps what something after the join reads (late
	// materialization, docs/ARCHITECTURE.md); nil gathers every column.
	Cols []int
	// Bloom, when set, short-circuits the hash-table walk for probe keys the
	// runtime filter proves absent. No false negatives, so results are
	// byte-identical with or without it (docs/PLANNER.md).
	Bloom *Bloom
	// Pruned, when set, accumulates the rows Bloom rejected (row-based, so
	// DOP-invariant; the planner points it at WorkStats.RuntimeFilterRows).
	Pruned *atomic.Int64
	// Coded lists output positions of build-side String columns that the
	// probe gathers dictionary-coded (see colfile.Vec): a code per row, not
	// a string, which a GROUP BY over the column resolves by the code. The
	// planner lists only columns that nothing reads before the aggregation
	// but its group key.
	Coded []int

	schema  colfile.Schema
	scratch *probeScratch // taken on the first batch, given back at end of stream
}

// probeScratch is a Probe's working memory. It outlives its morsel: a Probe
// takes one from probeScratchPool on its first batch and returns it at end of
// stream, so a statement's many short-lived probes share a few sets of
// buffers sized by the first batches they saw. Nothing in it escapes into an
// emitted batch: the gather copies.
type probeScratch struct {
	keyBuf []byte
	vecs   []*colfile.Vec
	hashes []uint64
	lIdx   []int // probe-row gather indexes
	rIdx   []int // build-row gather indexes; -1 pads outer-join misses
}

var probeScratchPool = sync.Pool{New: func() any { return new(probeScratch) }}

// Schema implements Operator.
func (p *Probe) Schema() colfile.Schema {
	if p.schema == nil {
		full := p.In.Schema()
		if p.Table.typ != SemiJoin {
			full = append(append(colfile.Schema{}, full...), p.Table.build.Schema...)
		}
		p.schema = full
		if p.Cols != nil {
			p.schema = make(colfile.Schema, len(p.Cols))
			for i, c := range p.Cols {
				p.schema[i] = full[c]
			}
		}
	}
	return p.schema
}

// Next implements Operator.
func (p *Probe) Next() (*colfile.Batch, error) {
	if p.scratch == nil {
		p.scratch = probeScratchPool.Get().(*probeScratch)
	}
	for {
		lb, err := p.In.Next()
		if err != nil || lb == nil {
			p.release()
			return nil, err
		}
		out, err := p.probeBatch(lb)
		if err != nil {
			p.release()
			return nil, err
		}
		if out.NumRows() > 0 {
			return out, nil
		}
	}
}

// release gives the scratch back to the pool, dropping its references to the
// last batch's key vectors.
func (p *Probe) release() {
	s := p.scratch
	p.scratch = nil
	clear(s.vecs)
	s.vecs = s.vecs[:0]
	probeScratchPool.Put(s)
}

// probeBatch joins one probe batch against the shared table. Output row
// order is fixed by probe-row order then build-row order, so results are
// deterministic for any decomposition of the probe stream into batches.
// Selected batches are probed through their selection vector (logical order
// equals ascending physical order), so a filtered probe side needs no
// materialization. Every row's key is hashed once, column at a time; the
// bloom filter and the table both read that hash.
//
//polaris:kernel lanes are addressed through lb.Sel (RowIdx), the translation the batch carries
func (p *Probe) probeBatch(lb *colfile.Batch) (*colfile.Batch, error) {
	jt, s := p.Table, p.scratch
	s.vecs = keyVecs(s.vecs, lb, p.LeftKeys)
	for i, v := range s.vecs {
		if bt := jt.keys[i].Type; v.Type != bt {
			return nil, fmt.Errorf("exec: join key %d compares %s with %s", i, v.Type, bt)
		}
	}
	n := lb.NumRows()
	// One row out per probe row is the common case; a fan-out join grows the
	// lists from there.
	if cap(s.lIdx) < n {
		s.lIdx = make([]int, 0, n)
	}
	if jt.typ != SemiJoin && cap(s.rIdx) < n {
		s.rIdx = make([]int, 0, n)
	}
	if m := min(n, hashChunk); cap(s.hashes) < m {
		s.hashes = make([]uint64, m)
	}
	word := wordKey(jt.keys)
	s.lIdx, s.rIdx = s.lIdx[:0], s.rIdx[:0]
	var pruned int64
	for lo := 0; lo < n; lo += hashChunk {
		hs := s.hashes[:min(hashChunk, n-lo)]
		hashKeys(hs, s.vecs, lb.Sel, lo)
		for j, h := range hs {
			phys := lb.RowIdx(lo + j)
			var matches []int32
			switch {
			case anyNull(s.vecs, phys):
			case p.Bloom != nil && !p.Bloom.MayContain(h):
				pruned++ // provably no match: skip the hash-table walk
			case word:
				matches = jt.lookupWord(s.vecs[0].Ints[phys], h)
			default:
				s.keyBuf = appendJoinKey(s.keyBuf[:0], s.vecs, phys)
				matches = jt.lookup(s.keyBuf, h)
			}
			switch jt.typ {
			case SemiJoin:
				if len(matches) > 0 {
					s.lIdx = append(s.lIdx, phys)
				}
			case InnerJoin:
				for _, m := range matches {
					s.lIdx = append(s.lIdx, phys)
					s.rIdx = append(s.rIdx, int(m))
				}
			case LeftOuterJoin:
				if len(matches) == 0 {
					s.lIdx = append(s.lIdx, phys)
					s.rIdx = append(s.rIdx, -1)
				} else {
					for _, m := range matches {
						s.lIdx = append(s.lIdx, phys)
						s.rIdx = append(s.rIdx, int(m))
					}
				}
			}
		}
	}
	if p.Pruned != nil && pruned > 0 {
		p.Pruned.Add(pruned)
	}
	schema := p.Schema()
	out := &colfile.Batch{Schema: schema, Cols: make([]*colfile.Vec, len(schema))}
	leftCols := len(lb.Cols)
	for i := range out.Cols {
		c := i
		if p.Cols != nil {
			c = p.Cols[i]
		}
		switch {
		case c < leftCols:
			out.Cols[i] = lb.Cols[c].Take(s.lIdx)
		case slices.Contains(p.Coded, i):
			out.Cols[i] = jt.codedCol(c - leftCols).Take(s.rIdx)
		default:
			out.Cols[i] = jt.build.Cols[c-leftCols].Take(s.rIdx)
		}
	}
	return out, nil
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
// against In's schema (immutable, shareable across per-morsel instances).
// Per batch it resolves one group id per row, then folds every aggregate into
// columnar state indexed by that id (aggCol); nothing is allocated per row or
// per group, and the output columns are the state.
type HashAgg struct {
	In      Operator
	GroupBy []*Prog
	Aggs    []AggSpec
	Partial bool

	schema colfile.Schema
	done   bool
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
		t, _ := a.OutType() // an ill-typed aggregate is Next's error; its column is never filled
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

// On returns a HashAgg like h over in that shares h's output schema, so the
// per-morsel copies of one aggregation name their columns once, not once
// per morsel. Schema builds h's schema on first use, so call it before
// workers make copies concurrently.
func (h *HashAgg) On(in Operator) *HashAgg {
	return &HashAgg{In: in, GroupBy: h.GroupBy, Aggs: h.Aggs, Partial: h.Partial, schema: slices.Clip(h.Schema())}
}

// Next implements Operator. Per batch it resolves one group id per row
// (groupTable), then folds each aggregate's argument into its columnar state
// with one typed loop; the result is the group-key columns and the state
// columns as they stand, groups in first-seen order.
func (h *HashAgg) Next() (*colfile.Batch, error) {
	if h.done {
		return nil, nil
	}
	h.done = true
	// Checked before any input is pulled, so an ill-typed aggregate is an
	// error whether or not the input has rows.
	cols := make([]aggCol, len(h.Aggs))
	for i, a := range h.Aggs {
		if _, err := a.OutType(); err != nil {
			return nil, err
		}
		cols[i].kind = a.Kind
		if a.Arg != nil {
			cols[i].typ = a.Arg.OutType()
		}
	}
	var groups groupTable
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
			argVecs[i] = argVecs[i].Plain() // the aggregates read strings as lanes
		}
		ids, err := groups.resolve(keyVecs, b.Sel, b.NumRows())
		if err != nil {
			return nil, err
		}
		for i := range cols {
			cols[i].grow(groups.len())
			cols[i].fold(argVecs[i], b.Sel, ids)
		}
	}

	// Global aggregate with no groups and no input still yields one row
	// (in partial mode MergeAgg synthesizes it, so workers stay silent).
	n := groups.len()
	if n == 0 && len(h.GroupBy) == 0 && !h.Partial {
		n = 1
	}
	if n == 0 {
		return nil, nil
	}
	keys := groups.plain()
	if h.Partial {
		keys = append([]*colfile.Vec(nil), groups.vals...)
	}
	out := &colfile.Batch{Schema: h.Schema(), Cols: keys}
	for i := range cols {
		cols[i].grow(n) // the synthesized row; every seen group is there already
		if h.Partial {
			out.Cols = append(out.Cols, cols[i].partialCols()...)
		} else {
			out.Cols = append(out.Cols, cols[i].finalCol())
		}
	}
	return out, nil
}

// appendJoinKey encodes row r's join key columns, off the word path, into
// dst with the typed, self-delimiting Vec.AppendKey encoding (NULL is a
// distinct one-byte tag, so it can never collide with any value), a Float64
// zero always as +0: -0 = +0 holds in a WHERE, so the two zeros are one join
// key, as they are one group (groupTable). Both join sides go through this
// one encoding: keys are the same key iff their bytes are identical.
//
//polaris:kernel r is a physical lane, which callers map through their batch's Sel
func appendJoinKey(dst []byte, vecs []*colfile.Vec, r int) []byte {
	for _, v := range vecs {
		if v.Type == colfile.Float64 && !v.IsNull(r) && v.Floats[r] == 0 {
			dst = append(dst, plusZeroKey...)
			continue
		}
		dst = v.AppendKey(dst, r)
	}
	return dst
}

// plusZeroKey is AppendKey's encoding of +0.
var plusZeroKey = (&colfile.Vec{Type: colfile.Float64, Floats: []float64{0}}).AppendKey(nil, 0)
