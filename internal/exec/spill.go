package exec

// Grace hash-join spilling: when a join's build side exceeds the configured
// memory budget, both sides are hash-partitioned into spill files written
// through the (simulated) object store and the join runs partition-wise with
// the ordinary in-memory JoinTable+Probe machinery. The depth-0 partitions
// are independent work units, so JoinBatches fans them out over the same
// ForEachIndexed worker pool that runs morsels, with the nested BuildHashJoin
// parallelism capped to parallelism/dop so partition tasks and their inner
// builds together stay within the configured Parallelism. Every depth
// partitions by one function of the row's key hash (spillPartition). Probe
// rows carry their global row ordinal through the spill files, and the
// partition outputs are placed back by that ordinal — a counting placement,
// one pass over the rows whatever partitions they came through — so a spilled
// join's output is byte-identical to the in-memory join's at every degree of
// parallelism and every budget setting (see docs/ARCHITECTURE.md,
// "Cross-DOP determinism contract"). Skewed partitions that still exceed the
// budget are recursively repartitioned by the next depth's remix of the
// rows' key hashes; a partition a recursion cannot shrink (a single hot key)
// is joined in memory as a last resort.
//
// Probe-side spill files are namespaced per JoinBatches call (l/cNNN/d0),
// so re-probing the same spilled build — or probing it from two goroutines
// concurrently — never lists a previous call's leaf files.

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"polaris/internal/colfile"
)

// SpillStore is the namespace a spilled join writes its partition files to.
// Names are relative to the namespace; List returns names with the given
// prefix in lexicographic order. internal/objectstore.SpillDir implements it
// over the simulated object store (latency and fault injection included);
// NewMemSpillStore provides an in-process implementation for tests and
// benchmarks.
type SpillStore interface {
	Put(name string, data []byte) error
	Get(name string) ([]byte, error)
	List(prefix string) []string
}

// Spill tuning constants.
const (
	// spillParts is the partition count per partitioning level.
	spillParts = 8
	// maxSpillDepth bounds recursive repartitioning of skewed partitions.
	maxSpillDepth = 3
	// minSpillFlushBytes floors the per-partition write buffer so tiny
	// budgets still produce sane file counts.
	minSpillFlushBytes = 4 << 10
)

// SpillConfig configures grace-join spilling for one build.
type SpillConfig struct {
	// Budget is the build-side memory budget in bytes; <= 0 disables
	// spilling (the build is always materialized in memory).
	Budget int64
	// Store receives the spill files; required when Budget > 0.
	Store SpillStore
}

// spillPartition is the partition of a row with key hash h (the one hash of
// the row every consumer shares; see hashKeys) at recursion depth depth. The
// remix is seeded by the depth, so each level redistributes the keys its
// parent level put together; the seeds are not bloomSeed, so partitions and
// filter bits are independent too. Both join sides use it, so matching rows
// land in the same partition.
func spillPartition(h uint64, depth int) int {
	return int(remix(h, uint64(depth)+2) % spillParts)
}

// batchHashes returns the key hash of every logical row of b (read through
// its selection vector), reusing dst, and b's key columns.
func batchHashes(dst []uint64, b *colfile.Batch, keys []int) ([]uint64, []*colfile.Vec) {
	n := b.NumRows()
	if cap(dst) < n {
		dst = make([]uint64, n)
	}
	vecs := keyVecs(nil, b, keys)
	hashKeys(dst[:n], vecs, b.Sel, 0)
	return dst[:n], vecs
}

// JoinSource is the product of a budget-aware hash-join build: exactly one of
// Table (the build fit in memory) or Spilled (the build overflowed to the
// spill store) is set.
type JoinSource struct {
	Table   *JoinTable
	Spilled *SpilledJoin
}

// SpilledJoin is the spilled counterpart of JoinTable: the build side lives
// in per-partition spill files, and JoinBatches runs the partition-wise join
// against a probe side it partitions the same way.
type SpilledJoin struct {
	store       SpillStore
	typ         JoinType
	buildKeys   []int
	buildSchema colfile.Schema
	budget      int64
	flushBytes  int64
	parallelism int

	// partMem is the in-memory byte estimate of each depth-0 build
	// partition, the quantity compared against the budget to decide
	// recursive repartitioning.
	partMem []int64

	// bloom is the runtime filter over every spilled build key, accumulated
	// while the build side is partitioned (nil for left outer joins, whose
	// unmatched probe rows must still be emitted). JoinBatches consults it to
	// drop provably matchless probe rows before they pay the spill round
	// trip. No false negatives, so output is unchanged; the filter is an
	// order-independent OR over the build keys, so it is deterministic.
	bloom *Bloom

	// probeCalls numbers JoinBatches calls so each call's probe-side spill
	// files live in their own namespace (l/cNNN/...): a second or concurrent
	// call must never list a previous call's leaf files.
	probeCalls atomic.Int64

	// buildReparts memoizes build-side recursive repartitions per directory.
	// The build namespace is shared across JoinBatches calls (unlike the
	// probe side, its contents are call-independent), so an over-budget
	// partition is split exactly once: later and concurrent calls reuse the
	// sub-partition files and their memory estimates instead of re-reading
	// and rewriting them — which also keeps SpillBytes from multi-counting
	// the same build bytes.
	repartMu     sync.Mutex
	buildReparts map[string]*buildRepart

	mu           sync.Mutex
	bytesWritten int64
	// written records every spill file name already accounted. Spill file
	// content is a deterministic function of its name, so a rewrite (a
	// repartition retried after a failed put) overwrites identical bytes —
	// counting only the first write keeps SpillBytes equal to the bytes
	// actually resident in the store.
	written map[string]struct{}
}

// buildRepart is one memoized build-side repartition: sem (a one-slot
// semaphore, waitable alongside ctx.Done) serializes the spill I/O, mem
// holds the resulting per-sub-partition memory estimates once done. Only
// success is memoized — a failed or cancelled attempt leaves the entry
// retryable, so one doomed call cannot poison a later one (retries rewrite
// the same deterministic bytes to the same names).
type buildRepart struct {
	sem  chan struct{}
	done bool
	mem  []int64
}

// repartitionBuild splits buildDir's leaf files into depth's
// sub-partitions at most once per SpilledJoin, however many (possibly
// concurrent) JoinBatches calls reach the same over-budget partition: later
// callers reuse the sub-partition files and memory estimates instead of
// re-reading and rewriting them. Waiting for a concurrent caller's
// repartition observes ctx, so a cancelled task unwinds instead of blocking
// behind a sibling call's latency-modeled I/O.
func (sj *SpilledJoin) repartitionBuild(ctx context.Context, buildDir string, depth int) ([]int64, error) {
	sj.repartMu.Lock()
	r, ok := sj.buildReparts[buildDir]
	if !ok {
		if sj.buildReparts == nil {
			sj.buildReparts = make(map[string]*buildRepart)
		}
		r = &buildRepart{sem: make(chan struct{}, 1)}
		sj.buildReparts[buildDir] = r
	}
	sj.repartMu.Unlock()
	select {
	case r.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-r.sem }()
	if r.done {
		return r.mem, nil
	}
	bw := newSpillWriter(sj, buildDir, sj.buildSchema)
	if err := sj.repartition(ctx, buildDir, sj.buildSchema, sj.buildKeys, depth, bw); err != nil {
		return nil, err
	}
	r.mem, r.done = bw.mem, true
	return r.mem, nil
}

// SpillBytes returns the total bytes written to the spill store so far
// (build and probe sides, recursion included), by every JoinBatches call:
// a retried call writes its probe side again, and those bytes are durable
// writes too.
func (sj *SpilledJoin) SpillBytes() int64 {
	sj.mu.Lock()
	defer sj.mu.Unlock()
	return sj.bytesWritten
}

// JoinCounts is what one JoinBatches call did. Both counts are row- or
// partition-based, so deterministic and DOP-invariant for a fixed build,
// probe and budget; a caller that retries a call counts only the call whose
// output it keeps.
type JoinCounts struct {
	// BloomPruned is the probe rows the build-side runtime bloom filter
	// dropped before spilling (WorkStats.RuntimeFilterRows).
	BloomPruned int64
	// Partitions is the (build, probe) partition pairs joined — the leaf
	// tasks of the partition-wise fan-out, recursion included
	// (WorkStats.JoinSpillPartitions).
	Partitions int64
}

// partJoin is what the leaf joins under one depth-0 partition produced:
// their probes' output batches, in leaf order, and how many leaf joins ran.
type partJoin struct {
	leaves []*colfile.Batch
	joins  int64
}

func (sj *SpilledJoin) put(name string, data []byte) error {
	if err := sj.store.Put(name, data); err != nil {
		return fmt.Errorf("exec: spill write %s: %w", name, err)
	}
	sj.mu.Lock()
	if _, dup := sj.written[name]; !dup {
		if sj.written == nil {
			sj.written = make(map[string]struct{})
		}
		sj.written[name] = struct{}{}
		sj.bytesWritten += int64(len(data))
	}
	sj.mu.Unlock()
	return nil
}

// spillWriter buffers rows per partition and flushes each buffer to a spill
// file when it reaches flushBytes. File names are "<dir>/p%03d/f%09d": the
// "f" segment keeps leaf files of one level disjoint from the "p" directories
// of the next recursion level under prefix listing, and the zero-padded
// sequence makes List order equal write order — which is what preserves row
// order across a partition's files.
//
// Rows move a column at a time: a caller routes each row of a batch to its
// partition (send), then scatter appends every partition's rows with one
// typed gather per column. The buffers are reused after every flush
// (MarshalBatch copies).
type spillWriter struct {
	sj     *SpilledJoin
	dir    string
	bufs   []*colfile.Batch
	bufMem []int64 // running in-memory estimate of each unflushed buffer
	seqs   []int
	mem    []int64 // cumulative in-memory bytes routed to each partition
	rows   []int64
	// to and ords are the routing scratch of the batch being scattered: the
	// physical rows sent to each partition and, on the probe side's first
	// level, their ordinals.
	to   [spillParts][]int
	ords [spillParts][]int64
}

func newSpillWriter(sj *SpilledJoin, dir string, schema colfile.Schema) *spillWriter {
	w := &spillWriter{
		sj: sj, dir: dir,
		bufs:   make([]*colfile.Batch, spillParts),
		bufMem: make([]int64, spillParts),
		seqs:   make([]int, spillParts),
		mem:    make([]int64, spillParts),
		rows:   make([]int64, spillParts),
	}
	for i := range w.bufs {
		w.bufs[i] = colfile.NewBatch(schema)
	}
	return w
}

// send routes physical row r of the batch being scattered to partition p.
func (w *spillWriter) send(p, r int) { w.to[p] = append(w.to[p], r) }

// sendOrd routes physical row r to partition p with its ordinal.
func (w *spillWriter) sendOrd(p, r int, ord int64) {
	w.send(p, r)
	w.ords[p] = append(w.ords[p], ord)
}

// scatter appends the rows routed since the last scatter, partition by
// partition, and clears the routes. srcCols is as in addRows.
func (w *spillWriter) scatter(src *colfile.Batch, srcCols []int) error {
	for p, rows := range w.to {
		if len(rows) == 0 {
			continue
		}
		var ords []int64
		if len(w.ords[p]) > 0 {
			ords = w.ords[p]
		}
		if err := w.addRows(p, src, srcCols, rows, ords); err != nil {
			return err
		}
		w.to[p], w.ords[p] = rows[:0], w.ords[p][:0]
	}
	return nil
}

// addRows appends physical rows rows of src to partition p: spill column c
// is src column srcCols[c] (nil: column c), and ords, when set, fills the
// ordinal column that closes the spill schema, one per row. Each column takes
// its rows in one Vec.AppendTake per run; a run ends at the row whose meter
// brings the buffer to flushBytes, where the buffer flushes — so each frame
// holds the rows, and the bytes, a row-at-a-time writer would give it.
func (w *spillWriter) addRows(p int, src *colfile.Batch, srcCols, rows []int, ords []int64) error {
	meter := src.Meter(srcCols)
	var ordMem int64
	if ords != nil {
		ordMem = 8 // an Int64 without NULLs
	}
	buf := w.bufs[p]
	for len(rows) > 0 {
		k := 0
		for k < len(rows) && w.bufMem[p] < w.sj.flushBytes {
			w.bufMem[p] += meter.Row(rows[k]) + ordMem
			k++
		}
		cols := buf.Cols
		if ords != nil {
			num := cols[len(cols)-1]
			num.Ints = append(num.Ints, ords[:k]...)
			cols, ords = cols[:len(cols)-1], ords[k:]
		}
		for c, dst := range cols {
			sc := c
			if srcCols != nil {
				sc = srcCols[c]
			}
			dst.AppendTake(src.Cols[sc], rows[:k])
		}
		w.rows[p] += int64(k)
		rows = rows[k:]
		if w.bufMem[p] >= w.sj.flushBytes {
			if err := w.flush(p); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *spillWriter) flush(p int) error {
	buf := w.bufs[p]
	if buf.NumRows() == 0 {
		return nil
	}
	data, err := colfile.MarshalBatch(buf)
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s/p%03d/f%09d", w.dir, p, w.seqs[p])
	w.seqs[p]++
	if err := w.sj.put(name, data); err != nil {
		return err
	}
	// Accounting strictly follows the durable write: a put that fails
	// mid-finish must leave mem[p] — like sj.put's SpillBytes, which feeds
	// WorkStats.JoinSpillBytes — reflecting only bytes actually in the store.
	w.mem[p] += w.bufMem[p]
	for _, v := range buf.Cols {
		v.ResetLen(v.Type, 0)
	}
	w.bufMem[p] = 0
	return nil
}

func (w *spillWriter) finish() error {
	for p := range w.bufs {
		if err := w.flush(p); err != nil {
			return err
		}
	}
	return nil
}

// partDir names partition p's directory under dir.
func partDir(dir string, p int) string { return fmt.Sprintf("%s/p%03d", dir, p) }

// BuildGraceJoin drains the build operator under cfg.Budget. While the
// materialized build side fits the budget it returns an ordinary in-memory
// JoinTable (identical to BuildHashJoin). The moment it exceeds the budget,
// the rows drained so far and the remainder of the stream are hash-
// partitioned into spill files and a SpilledJoin is returned instead; the
// caller then joins via JoinBatches. Build rows with NULL keys are dropped at
// partition time — they can never match, and no join type emits an unmatched
// build row.
func BuildGraceJoin(build Operator, keys []int, typ JoinType, parallelism int, cfg SpillConfig) (*JoinSource, error) {
	schema := build.Schema()
	var drained []*colfile.Batch
	var total int64
	for {
		b, err := build.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			// Everything fit: the ordinary in-memory build.
			jt, err := BuildHashJoin(NewBatchList(schema, drained), keys, typ, parallelism)
			if err != nil {
				return nil, err
			}
			return &JoinSource{Table: jt}, nil
		}
		drained = append(drained, b)
		total += b.MemSize()
		if cfg.Budget > 0 && total > cfg.Budget {
			break
		}
	}

	if cfg.Store == nil {
		return nil, fmt.Errorf("exec: join build exceeds budget (%d bytes) and no spill store is configured", cfg.Budget)
	}
	flush := cfg.Budget / spillParts
	if flush < minSpillFlushBytes {
		flush = minSpillFlushBytes
	}
	sj := &SpilledJoin{
		store: cfg.Store, typ: typ, buildKeys: keys, buildSchema: schema,
		budget: cfg.Budget, flushBytes: flush, parallelism: parallelism,
	}
	if typ != LeftOuterJoin {
		// The key count is unknown while streaming; size for the spill
		// regime (a build past the budget has many keys). Fixed hint keeps
		// the filter deterministic regardless of how the drain interleaved.
		sj.bloom = NewBloom(spillBloomKeyHint)
	}

	w := newSpillWriter(sj, "b/d0", schema)
	var hs []uint64
	spillBatch := func(b *colfile.Batch) error {
		var vecs []*colfile.Vec
		hs, vecs = batchHashes(hs, b, keys)
		for r, h := range hs {
			phys := b.RowIdx(r)
			if anyNull(vecs, phys) {
				continue // NULL build key: unmatched forever, drop
			}
			if sj.bloom != nil {
				sj.bloom.Add(h)
			}
			w.send(spillPartition(h, 0), phys)
		}
		return w.scatter(b, nil)
	}
	for _, b := range drained {
		if err := spillBatch(b); err != nil {
			return nil, err
		}
	}
	drained = nil // the spill files own the build side now
	for {
		b, err := build.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		if err := spillBatch(b); err != nil {
			return nil, err
		}
	}
	if err := w.finish(); err != nil {
		return nil, err
	}
	sj.partMem = w.mem
	return &JoinSource{Spilled: sj}, nil
}

// rowNumField is the synthetic column a spilled probe row carries through the
// partition files: its global ordinal in the probe stream, used to merge the
// partition outputs back into probe-row order. The name never reaches a user
// scope — it exists only inside the spill pipeline.
var rowNumField = colfile.Field{Name: "__rownum", Type: colfile.Int64}

// spillFileSource streams spill files back as batches, one file per Next.
type spillFileSource struct {
	store  SpillStore
	names  []string
	schema colfile.Schema
	idx    int
}

func (s *spillFileSource) Schema() colfile.Schema { return s.schema }

func (s *spillFileSource) Next() (*colfile.Batch, error) {
	if s.idx >= len(s.names) {
		return nil, nil
	}
	name := s.names[s.idx]
	s.idx++
	data, err := s.store.Get(name)
	if err != nil {
		return nil, fmt.Errorf("exec: spill read %s: %w", name, err)
	}
	return colfile.UnmarshalBatch(data)
}

// readSpillFiles materializes all leaf files under dir, in name order.
func (sj *SpilledJoin) readSpillFiles(dir string) ([]*colfile.Batch, error) {
	var out []*colfile.Batch
	for _, name := range sj.store.List(dir + "/f") {
		data, err := sj.store.Get(name)
		if err != nil {
			return nil, fmt.Errorf("exec: spill read %s: %w", name, err)
		}
		b, err := colfile.UnmarshalBatch(data)
		if err != nil {
			return nil, err
		}
		if b.NumRows() > 0 {
			out = append(out, b)
		}
	}
	return out, nil
}

// JoinBatches joins per-morsel probe batches (nil entries allowed) against
// the spilled build side and returns per-morsel outputs whose concatenation
// is byte-identical to probing an in-memory JoinTable morsel by morsel:
// probe-row order globally, matches in build-row order within a row. Probe
// rows are partitioned with the build side's partitioner into a namespace
// private to this call (so the build may be re-probed, even concurrently),
// then the depth-0 partitions — independent work units — are joined over a
// ForEachIndexed pool of dop workers (recursively repartitioned while a
// build side still exceeds the budget), each leaf join's inner BuildHashJoin
// capped to parallelism/dop workers so the fan-out as a whole stays within
// the configured Parallelism. The partition outputs are placed back into
// global row order by the row ordinal they carry. cols selects the output
// columns as Probe.Cols does (nil = all), so a barrier emits what an
// in-memory probe with the same Cols would; the probe side spills only its
// keys, the probe columns cols keeps, and the ordinal. ctx cancels the
// partitioning (observed per probe batch) and the partition fan-out
// (observed between spill files and batches). The counts are this call's
// alone.
func (sj *SpilledJoin) JoinBatches(ctx context.Context, probe []*colfile.Batch, leftKeys []int, leftSchema colfile.Schema, cols []int, dop int) ([]*colfile.Batch, JoinCounts, error) {
	// Global row ordinals: offsets[i] is the first ordinal of morsel i.
	offsets := make([]int64, len(probe)+1)
	for i, b := range probe {
		n := int64(0)
		if b != nil {
			n = int64(b.NumRows())
		}
		offsets[i+1] = offsets[i] + n
	}

	// The probe spill schema: the probe columns the join reads — its keys
	// and the ones cols keeps — in probe order, then the ordinal. keyCols
	// and leafCols re-address the keys and the output columns onto it; a
	// leaf's full output is spillSchema..., build..., and its probe gathers
	// the output columns, then the ordinal, so leaf column c < len(cols) is
	// output column c.
	full := leftSchema
	if sj.typ != SemiJoin {
		full = append(append(colfile.Schema{}, leftSchema...), sj.buildSchema...)
	}
	if cols == nil {
		cols = make([]int, len(full))
		for c := range cols {
			cols[c] = c
		}
	}
	read := make([]bool, len(leftSchema))
	for _, c := range leftKeys {
		read[c] = true
	}
	for _, c := range cols {
		if c < len(leftSchema) {
			read[c] = true
		}
	}
	pos := make([]int, len(leftSchema)) // the spill column of each probe column read
	var spillCols []int
	var spillSchema colfile.Schema
	for c, r := range read {
		if r {
			pos[c] = len(spillCols)
			spillCols = append(spillCols, c)
			spillSchema = append(spillSchema, leftSchema[c])
		}
	}
	rowNumIdx := len(spillCols)
	spillSchema = append(spillSchema, rowNumField)
	keyCols := make([]int, len(leftKeys))
	for i, c := range leftKeys {
		keyCols[i] = pos[c]
	}
	outSchema := make(colfile.Schema, len(cols))
	leafCols := make([]int, len(cols)+1)
	for i, c := range cols {
		outSchema[i] = full[c]
		if c < len(leftSchema) {
			leafCols[i] = pos[c]
		} else {
			leafCols[i] = len(spillSchema) + c - len(leftSchema)
		}
	}
	leafCols[len(cols)] = rowNumIdx
	leafNum := len(cols)

	// Partition the probe side, each row extended with its ordinal, into
	// this call's own namespace.
	probeRoot := fmt.Sprintf("l/c%03d/d0", sj.probeCalls.Add(1)-1)
	w := newSpillWriter(sj, probeRoot, spillSchema)
	var pruned int64
	var hs []uint64
	for i, b := range probe {
		if b == nil {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, JoinCounts{}, err
		}
		var vecs []*colfile.Vec
		hs, vecs = batchHashes(hs, b, leftKeys)
		for r, h := range hs {
			phys := b.RowIdx(r)
			p := 0
			if anyNull(vecs, phys) {
				// NULL probe keys never match. Only a left outer join emits
				// them (as a NULL-padded row, via partition 0's leaf probe);
				// inner and semi joins drop them here instead of paying the
				// spill round trip.
				if sj.typ != LeftOuterJoin {
					continue
				}
			} else {
				if sj.bloom != nil && !sj.bloom.MayContain(h) {
					// Runtime filter: provably no build match, so an inner or
					// semi join emits nothing for this row — skip the spill
					// round trip entirely.
					pruned++
					continue
				}
				p = spillPartition(h, 0)
			}
			w.sendOrd(p, phys, offsets[i]+int64(r))
		}
		if err := w.scatter(b, spillCols); err != nil {
			return nil, JoinCounts{}, err
		}
	}
	if err := w.finish(); err != nil {
		return nil, JoinCounts{}, err
	}

	// Join the depth-0 partitions — independent (build, probe) pairs — over
	// the shared worker pool, recursing while a build side exceeds budget.
	// Each partition collects its leaves privately, and the placement below
	// reads only the ordinals they carry, so the fan-out cannot perturb the
	// output. The inner hash-join builds are capped so partition tasks ×
	// build workers stays within the configured parallelism.
	// Partitions with no probe rows exit their task immediately, so size the
	// pool (and with it the nested-build share below) by the live partitions
	// only: a fully skewed probe (one hot partition) then gets the whole
	// Parallelism for its inner build instead of idling dop-1 workers.
	live := 0
	for p := 0; p < spillParts; p++ {
		if w.rows[p] > 0 {
			live++
		}
	}
	if live < 1 {
		live = 1
	}
	effDop := dop
	if effDop < 1 {
		effDop = 1
	}
	if effDop > live {
		effDop = live
	}
	// Never more partition tasks than the configured parallelism: the cap
	// effDop × buildPar ≤ Parallelism must hold even when the caller's dop
	// exceeds it.
	if sj.parallelism > 0 && effDop > sj.parallelism {
		effDop = sj.parallelism
	}
	buildPar := sj.parallelism / effDop
	if buildPar < 1 {
		buildPar = 1
	}

	parts := make([]partJoin, spillParts)
	err := ForEachIndexed(ctx, spillParts, effDop, func(ctx context.Context, p int) error {
		return sj.joinPartition(ctx, partDir("b/d0", p), partDir(probeRoot, p), sj.partMem[p], 0, buildPar, keyCols, spillSchema, leafCols, &parts[p])
	})
	if err != nil {
		return nil, JoinCounts{}, err
	}
	counts := JoinCounts{BloomPruned: pruned}
	var leaves []*colfile.Batch
	for _, pj := range parts {
		leaves = append(leaves, pj.leaves...)
		counts.Partitions += pj.joins
	}

	// Place the leaf rows in global probe-row order by counting, not
	// sorting: count the output rows of each probe ordinal, prefix-sum the
	// counts into each ordinal's first slot, then give every leaf row (by
	// its position in the leaves' concatenation) its ordinal's next slot of
	// the permutation perm — one pass over the rows, whatever partitions
	// they came through. Stable, because an ordinal's matches sit together
	// in one leaf, in build order.
	next := make([]int, offsets[len(probe)]+1)
	for _, lb := range leaves {
		//polaris:kernel leaf batches are fresh Take output, so lanes are rows
		for _, num := range lb.Cols[leafNum].Ints {
			next[num+1]++
		}
	}
	for i := 1; i < len(next); i++ {
		next[i] += next[i-1]
	}
	total := next[len(next)-1]
	perm := make([]int, total)
	all := colfile.NewBatch(outSchema)
	for _, v := range all.Cols {
		v.Grow(total)
	}
	base := 0
	for _, lb := range leaves {
		//polaris:kernel leaf batches are fresh Take output, so lanes are rows
		for r, num := range lb.Cols[leafNum].Ints {
			perm[next[num]] = base + r
			next[num]++
		}
		base += lb.NumRows()
		all.AppendBatch(&colfile.Batch{Schema: outSchema, Cols: lb.Cols[:leafNum]})
	}

	// Each morsel's output is one gather per column over its ordinals' run
	// of perm. The placement moved every ordinal's next slot to the next
	// ordinal's first, so ordinal o's first slot is now next[o-1].
	first := func(o int64) int {
		if o == 0 {
			return 0
		}
		return next[o-1]
	}
	outs := make([]*colfile.Batch, len(probe))
	for i := range probe {
		lo, hi := first(offsets[i]), first(offsets[i+1])
		if lo < hi {
			outs[i] = all.Take(perm[lo:hi])
		}
	}
	return outs, counts, nil
}

// joinPartition joins one (build, probe) partition pair as a unit of the
// partition-wise fan-out: buildPar caps the inner BuildHashJoin's worker
// count, and ctx (cancelled when a sibling partition fails) is observed
// between spill files and batches so a doomed partition stops paying
// object-store reads and writes early. While the build side's in-memory
// estimate exceeds the budget and depth remains, both sides are repartitioned
// with the next depth's partition and the sub-partitions recurse (serially,
// within this partition's task); otherwise the partition is joined in memory
// (for a single hot key recursion cannot split, this is the documented last
// resort).
func (sj *SpilledJoin) joinPartition(ctx context.Context, buildDir, probeDir string, buildMem int64, depth, buildPar int, leftKeys []int, probeSchema colfile.Schema, cols []int, out *partJoin) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	probeNames := sj.store.List(probeDir + "/f")
	if len(probeNames) == 0 {
		// No probe rows: nothing can match, so skip the build side entirely
		// — including an over-budget build's recursive repartition I/O.
		return nil
	}
	if buildMem > sj.budget && depth+1 < maxSpillDepth {
		subMem, err := sj.repartitionBuild(ctx, buildDir, depth+1)
		if err != nil {
			return err
		}
		lw := newSpillWriter(sj, probeDir, probeSchema)
		if err := sj.repartition(ctx, probeDir, probeSchema, leftKeys, depth+1, lw); err != nil {
			return err
		}
		for p := 0; p < spillParts; p++ {
			if err := sj.joinPartition(ctx, partDir(buildDir, p), partDir(probeDir, p), subMem[p], depth+1, buildPar, leftKeys, probeSchema, cols, out); err != nil {
				return err
			}
		}
		return nil
	}

	buildBatches, err := sj.readSpillFiles(buildDir)
	if err != nil {
		return err
	}
	jt, err := BuildHashJoin(NewBatchList(sj.buildSchema, buildBatches), sj.buildKeys, sj.typ, buildPar)
	if err != nil {
		return err
	}
	// The leaf's output batches are fresh gathers, kept as they come: the
	// placement concatenates every leaf once.
	leaf := &Probe{
		In:    &spillFileSource{store: sj.store, names: probeNames, schema: probeSchema},
		Table: jt, LeftKeys: leftKeys, Cols: cols,
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		b, err := leaf.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		out.leaves = append(out.leaves, b)
	}
	out.joins++
	return nil
}

// repartition redistributes a partition's leaf files into sub-partitions
// under the same directory by depth's partition, preserving
// row order within every sub-partition (files are read in name order — write
// order — and rows split stably). ctx is checked per input file, so a
// cancelled partition task stops its doomed spill reads and writes early.
func (sj *SpilledJoin) repartition(ctx context.Context, dir string, schema colfile.Schema, keys []int, depth int, w *spillWriter) error {
	var hs []uint64
	for _, name := range sj.store.List(dir + "/f") {
		if err := ctx.Err(); err != nil {
			return err
		}
		data, err := sj.store.Get(name)
		if err != nil {
			return fmt.Errorf("exec: spill read %s: %w", name, err)
		}
		b, err := colfile.UnmarshalBatch(data)
		if err != nil {
			return err
		}
		var vecs []*colfile.Vec
		hs, vecs = batchHashes(hs, b, keys)
		for r, h := range hs {
			p := 0
			if !anyNull(vecs, r) {
				p = spillPartition(h, depth)
			}
			w.send(p, r)
		}
		if err := w.scatter(b, nil); err != nil {
			return err
		}
	}
	return w.finish()
}

// MemSpillStore is an in-process SpillStore for tests and benchmarks.
type MemSpillStore struct {
	mu    sync.Mutex
	blobs map[string][]byte
	// FailPut, when non-zero, makes the Nth Put (1-based) fail, once — the
	// hook spill fault tests use to exercise the clean-error path (same
	// fire-exactly-once semantics as objectstore.FaultInjector.FailNth).
	FailPut int
	puts    int
}

// NewMemSpillStore returns an empty in-memory spill store.
func NewMemSpillStore() *MemSpillStore {
	return &MemSpillStore{blobs: make(map[string][]byte)}
}

// Put implements SpillStore.
func (m *MemSpillStore) Put(name string, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.puts++
	if m.FailPut > 0 && m.puts == m.FailPut {
		return fmt.Errorf("memspill: injected put failure")
	}
	m.blobs[name] = append([]byte(nil), data...)
	return nil
}

// Get implements SpillStore.
func (m *MemSpillStore) Get(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.blobs[name]
	if !ok {
		return nil, fmt.Errorf("memspill: %s not found", name)
	}
	return append([]byte(nil), b...), nil
}

// List implements SpillStore.
func (m *MemSpillStore) List(prefix string) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var names []string
	for name := range m.blobs {
		if len(name) >= len(prefix) && name[:len(prefix)] == prefix {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// Count returns the number of stored spill files.
func (m *MemSpillStore) Count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.blobs)
}

// TotalBytes returns the total size of all stored spill files — the durable
// bytes the fault tests reconcile SpillBytes against after a failed put.
func (m *MemSpillStore) TotalBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n int64
	for _, b := range m.blobs {
		n += int64(len(b))
	}
	return n
}
