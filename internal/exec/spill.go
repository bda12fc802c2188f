package exec

// Grace hash-join spilling: when a join's build side exceeds the configured
// memory budget, both sides are hash-partitioned into spill files written
// through the (simulated) object store and the join runs partition-wise with
// the ordinary in-memory JoinTable+Probe machinery. The depth-0 partitions
// are independent work units, so JoinBatches fans them out over the same
// ForEachIndexed worker pool that runs morsels, with the nested BuildHashJoin
// parallelism capped to parallelism/dop so partition tasks and their inner
// builds together stay within the configured Parallelism. Probe rows carry
// their global row ordinal through the spill files, and the partition outputs
// — concatenated in partition order, then merged by ordinal — restore global
// probe-row order, so a spilled join's output is byte-identical to the
// in-memory join's at every degree of parallelism and every budget setting
// (see docs/ARCHITECTURE.md, "Cross-DOP determinism contract"). Skewed
// partitions that still exceed the budget are recursively repartitioned by a
// depth-seeded remix of the rows' key hashes; a partition a recursion cannot
// shrink (a single hot key) is joined in memory as a last resort.
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

// PartitionFunc assigns a row to a spill partition given its batch, the key
// column indexes, the row index and the row's key hash (the one hash of the
// row every consumer shares; see hashKeys). Both join sides must use the same
// function so matching rows land in the same partition.
type PartitionFunc func(b *colfile.Batch, keyCols []int, row int, h uint64) int

// Spill tuning constants.
const (
	// defaultSpillFanout is the partition count per partitioning level.
	defaultSpillFanout = 8
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
	// Fanout is the partition count at depth 0; defaults to
	// defaultSpillFanout. Recursive levels always use the default.
	Fanout int
	// Partition overrides the depth-0 partitioner; defaults to a remix of
	// the row's key hash. The planner passes a d(r)-based partitioner
	// (core.DistHash over the key value) when the join key covers the build
	// table's distribution column, so spill partitions align with the
	// table's storage cells.
	Partition PartitionFunc
}

// hashPartitioner partitions by a depth-seeded remix of the row's key hash,
// so each recursion level redistributes the keys its parent level put
// together. The seeds are not bloomSeed, so partitions and filter bits are
// independent too.
func hashPartitioner(depth, fanout int) PartitionFunc {
	return func(_ *colfile.Batch, _ []int, _ int, h uint64) int {
		return int(remix(h, uint64(depth)+2) % uint64(fanout))
	}
}

// batchHashes returns the key hash of every row of dense batch b, reusing
// dst, and b's key columns.
func batchHashes(dst []uint64, b *colfile.Batch, keys []int) ([]uint64, []*colfile.Vec) {
	n := b.NumRows()
	if cap(dst) < n {
		dst = make([]uint64, n)
	}
	vecs := keyVecs(nil, b, keys)
	hashKeys(dst[:n], vecs, nil, 0)
	return dst[:n], vecs
}

// JoinSource is the product of a budget-aware hash-join build: exactly one of
// Table (the build fit in memory) or Spilled (the build overflowed to the
// spill store) is set.
type JoinSource struct {
	Table   *JoinTable
	Spilled *SpilledJoin
}

// BuildSchema returns the build side's schema.
func (s *JoinSource) BuildSchema() colfile.Schema {
	if s.Table != nil {
		return s.Table.BuildSchema()
	}
	return s.Spilled.buildSchema
}

// SpilledJoin is the spilled counterpart of JoinTable: the build side lives
// in per-partition spill files, and JoinBatches runs the partition-wise join
// against a probe side it partitions the same way.
type SpilledJoin struct {
	store       SpillStore
	typ         JoinType
	buildKeys   []int
	buildSchema colfile.Schema
	fanout      int
	budget      int64
	flushBytes  int64
	parallelism int
	partition   PartitionFunc
	tel         *Telemetry

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
	// bloomPruned counts probe rows the filter dropped (row-based, hence
	// DOP-invariant).
	bloomPruned atomic.Int64

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
	filesWritten int64
	partsJoined  int64
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

// repartitionBuild splits buildDir's leaf files into depth-seeded
// sub-partitions at most once per SpilledJoin, however many (possibly
// concurrent) JoinBatches calls reach the same over-budget partition: later
// callers reuse the sub-partition files and memory estimates instead of
// re-reading and rewriting them. Waiting for a concurrent caller's
// repartition observes ctx, so a cancelled task unwinds instead of blocking
// behind a sibling call's latency-modeled I/O.
func (sj *SpilledJoin) repartitionBuild(ctx context.Context, buildDir string, part PartitionFunc) ([]int64, error) {
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
	bw := newSpillWriter(sj, buildDir, sj.buildSchema, defaultSpillFanout)
	if err := sj.repartition(ctx, buildDir, sj.buildSchema, sj.buildKeys, part, bw); err != nil {
		return nil, err
	}
	r.mem, r.done = bw.mem, true
	return r.mem, nil
}

// SpillBytes returns the total bytes written to the spill store so far
// (build and probe sides, recursion included).
func (sj *SpilledJoin) SpillBytes() int64 {
	sj.mu.Lock()
	defer sj.mu.Unlock()
	return sj.bytesWritten
}

// SpillFiles returns the number of spill files written so far.
func (sj *SpilledJoin) SpillFiles() int64 {
	sj.mu.Lock()
	defer sj.mu.Unlock()
	return sj.filesWritten
}

// Partitions returns the depth-0 partition count.
func (sj *SpilledJoin) Partitions() int { return sj.fanout }

// BloomPrunedRows returns how many probe rows the build-side runtime bloom
// filter dropped before spilling, across all JoinBatches calls. Row-based, so
// deterministic and DOP-invariant; the planner folds it into
// WorkStats.RuntimeFilterRows.
func (sj *SpilledJoin) BloomPrunedRows() int64 { return sj.bloomPruned.Load() }

// PartitionsJoined returns how many (build, probe) partition pairs have been
// joined so far — the leaf tasks of the partition-wise fan-out, recursion
// included. Deterministic for a fixed build, probe and budget, so tests (and
// WorkStats.JoinSpillPartitions) assert on it.
func (sj *SpilledJoin) PartitionsJoined() int64 {
	sj.mu.Lock()
	defer sj.mu.Unlock()
	return sj.partsJoined
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
		sj.filesWritten++
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
type spillWriter struct {
	sj     *SpilledJoin
	dir    string
	schema colfile.Schema
	bufs   []*colfile.Batch
	bufMem []int64 // running in-memory estimate of each unflushed buffer
	seqs   []int
	mem    []int64 // cumulative in-memory bytes routed to each partition
	rows   []int64
}

func newSpillWriter(sj *SpilledJoin, dir string, schema colfile.Schema, fanout int) *spillWriter {
	w := &spillWriter{
		sj: sj, dir: dir, schema: schema,
		bufs:   make([]*colfile.Batch, fanout),
		bufMem: make([]int64, fanout),
		seqs:   make([]int, fanout),
		mem:    make([]int64, fanout),
		rows:   make([]int64, fanout),
	}
	for i := range w.bufs {
		w.bufs[i] = colfile.NewBatch(schema)
	}
	return w
}

func (w *spillWriter) add(p int, src *colfile.Batch, row int) error {
	buf := w.bufs[p]
	for c := range buf.Cols {
		buf.Cols[c].Append(src.Cols[c], row)
	}
	w.rows[p]++
	w.bufMem[p] += src.RowMemSize(row)
	if w.bufMem[p] >= w.sj.flushBytes {
		return w.flush(p)
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
	w.bufs[p] = colfile.NewBatch(w.schema)
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
func BuildGraceJoin(build Operator, keys []int, typ JoinType, parallelism int, cfg SpillConfig, tel *Telemetry) (*JoinSource, error) {
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
			jt, err := BuildHashJoin(NewBatchList(schema, drained), keys, typ, parallelism, tel)
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
	fanout := cfg.Fanout
	if fanout <= 0 {
		fanout = defaultSpillFanout
	}
	part := cfg.Partition
	if part == nil {
		part = hashPartitioner(0, fanout)
	}
	flush := cfg.Budget / int64(fanout)
	if flush < minSpillFlushBytes {
		flush = minSpillFlushBytes
	}
	sj := &SpilledJoin{
		store: cfg.Store, typ: typ, buildKeys: keys, buildSchema: schema,
		fanout: fanout, budget: cfg.Budget, flushBytes: flush,
		parallelism: parallelism, partition: part, tel: tel,
	}
	if typ != LeftOuterJoin {
		// The key count is unknown while streaming; size for the spill
		// regime (a build past the budget has many keys). Fixed hint keeps
		// the filter deterministic regardless of how the drain interleaved.
		sj.bloom = NewBloom(spillBloomKeyHint)
	}

	w := newSpillWriter(sj, "b/d0", schema, fanout)
	var hs []uint64
	spillBatch := func(b *colfile.Batch) error {
		if b.Sel != nil {
			// The partition loop below indexes rows physically; densify
			// selection-carrying batches (from pushed-down scan predicates)
			// before keying and spilling them.
			b = b.Materialize()
		}
		var vecs []*colfile.Vec
		hs, vecs = batchHashes(hs, b, keys)
		for r, h := range hs {
			if anyNull(vecs, r) {
				continue // NULL build key: unmatched forever, drop
			}
			if sj.bloom != nil {
				sj.bloom.Add(h)
			}
			if err := w.add(part(b, keys, r, h), b, r); err != nil {
				return err
			}
		}
		return nil
	}
	var buildRows int64
	for _, b := range drained {
		buildRows += int64(b.NumRows())
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
		buildRows += int64(b.NumRows())
		if err := spillBatch(b); err != nil {
			return nil, err
		}
	}
	if err := w.finish(); err != nil {
		return nil, err
	}
	sj.partMem = w.mem
	if tel != nil {
		tel.RowsProcessed.Add(buildRows)
	}
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
// the configured Parallelism. The partition outputs — each ascending in the
// carried row ordinal — are merged back into global row order. ctx cancels
// the partition fan-out (observed between spill files and batches).
func (sj *SpilledJoin) JoinBatches(ctx context.Context, probe []*colfile.Batch, leftKeys []int, leftSchema colfile.Schema, dop int) ([]*colfile.Batch, error) {
	// Global row ordinals: offsets[i] is the first ordinal of morsel i.
	offsets := make([]int64, len(probe)+1)
	for i, b := range probe {
		n := int64(0)
		if b != nil {
			n = int64(b.NumRows())
		}
		offsets[i+1] = offsets[i] + n
	}

	// Partition the probe side, each row extended with its ordinal, into
	// this call's own namespace.
	probeRoot := fmt.Sprintf("l/c%03d/d0", sj.probeCalls.Add(1)-1)
	spillSchema := append(append(colfile.Schema{}, leftSchema...), rowNumField)
	rowNumIdx := len(leftSchema)
	w := newSpillWriter(sj, probeRoot, spillSchema, sj.fanout)
	var pruned int64
	var hs []uint64
	for i, b := range probe {
		if b == nil {
			continue
		}
		if b.Sel != nil {
			// ext shares b's column vectors and is indexed physically below;
			// densify selection-carrying batches first so the ordinal column
			// and the key encoding line up row for row.
			b = b.Materialize()
		}
		ext := &colfile.Batch{Schema: spillSchema, Cols: make([]*colfile.Vec, len(spillSchema))}
		copy(ext.Cols, b.Cols)
		nums := colfile.NewVec(colfile.Int64)
		for r := 0; r < b.NumRows(); r++ {
			nums.AppendInt(offsets[i] + int64(r))
		}
		ext.Cols[rowNumIdx] = nums
		var vecs []*colfile.Vec
		hs, vecs = batchHashes(hs, ext, leftKeys)
		for r, h := range hs {
			p := 0
			if anyNull(vecs, r) {
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
				p = sj.partition(ext, leftKeys, r, h)
			}
			if err := w.add(p, ext, r); err != nil {
				return nil, err
			}
		}
	}
	if err := w.finish(); err != nil {
		return nil, err
	}
	countPruned(&sj.bloomPruned, pruned)

	// Join the depth-0 partitions — independent (build, probe) pairs — over
	// the shared worker pool, recursing while a build side exceeds budget.
	// Each partition collects its leaves privately; concatenating them in
	// partition order afterwards reproduces the serial depth-first leaf
	// order exactly, so the fan-out cannot perturb the merge below. The
	// inner hash-join builds are capped so partition tasks × build workers
	// stays within the configured parallelism.
	// Partitions with no probe rows exit their task immediately, so size the
	// pool (and with it the nested-build share below) by the live partitions
	// only: a fully skewed probe (one hot partition) then gets the whole
	// Parallelism for its inner build instead of idling dop-1 workers.
	live := 0
	for p := 0; p < sj.fanout; p++ {
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
	partLeaves := make([][]*colfile.Batch, sj.fanout)
	err := ForEachIndexed(ctx, sj.fanout, effDop, func(ctx context.Context, p int) error {
		return sj.joinPartition(ctx, partDir("b/d0", p), partDir(probeRoot, p), sj.partMem[p], 0, buildPar, leftKeys, spillSchema, &partLeaves[p])
	})
	if err != nil {
		return nil, err
	}
	var leaves []*colfile.Batch
	for _, pl := range partLeaves {
		leaves = append(leaves, pl...)
	}

	// Merge leaf outputs into global probe-row order. Every probe row lives
	// in exactly one leaf and each leaf is ascending by ordinal, so a stable
	// sort on the ordinal restores global order while keeping a row's
	// matches in build order.
	outSchema := leftSchema
	if sj.typ != SemiJoin {
		outSchema = append(append(colfile.Schema{}, leftSchema...), sj.buildSchema...)
	}
	type ref struct {
		leaf, row int
		num       int64
	}
	var refs []ref
	for li, lb := range leaves {
		nums := lb.Cols[rowNumIdx]
		for r := 0; r < lb.NumRows(); r++ {
			//polaris:kernel leaf batches come back dense from the spill reader, so r is a physical lane
			refs = append(refs, ref{leaf: li, row: r, num: nums.Ints[r]})
		}
	}
	sort.SliceStable(refs, func(i, j int) bool { return refs[i].num < refs[j].num })

	// Split back into per-morsel batches by ordinal range, dropping the
	// ordinal column (leaf columns are left..., __rownum, build...).
	outs := make([]*colfile.Batch, len(probe))
	k := 0
	for i := range probe {
		lo, hi := offsets[i], offsets[i+1]
		if lo == hi {
			continue
		}
		var out *colfile.Batch
		for k < len(refs) && refs[k].num < hi {
			if out == nil {
				out = colfile.NewBatch(outSchema)
			}
			lb := leaves[refs[k].leaf]
			for c := 0; c < rowNumIdx; c++ {
				out.Cols[c].Append(lb.Cols[c], refs[k].row)
			}
			for c := rowNumIdx; c < len(outSchema); c++ {
				out.Cols[c].Append(lb.Cols[c+1], refs[k].row)
			}
			k++
		}
		if out != nil && out.NumRows() > 0 {
			outs[i] = out
		}
	}
	return outs, nil
}

// joinPartition joins one (build, probe) partition pair as a unit of the
// partition-wise fan-out: buildPar caps the inner BuildHashJoin's worker
// count, and ctx (cancelled when a sibling partition fails) is observed
// between spill files and batches so a doomed partition stops paying
// object-store reads and writes early. While the build side's in-memory
// estimate exceeds the budget and depth remains, both sides are repartitioned
// with the next depth's seeded hash and the sub-partitions recurse (serially,
// within this partition's task); otherwise the partition is joined in memory
// (for a single hot key recursion cannot split, this is the documented last
// resort).
func (sj *SpilledJoin) joinPartition(ctx context.Context, buildDir, probeDir string, buildMem int64, depth, buildPar int, leftKeys []int, probeSchema colfile.Schema, leaves *[]*colfile.Batch) error {
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
		next := hashPartitioner(depth+1, defaultSpillFanout)
		subMem, err := sj.repartitionBuild(ctx, buildDir, next)
		if err != nil {
			return err
		}
		lw := newSpillWriter(sj, probeDir, probeSchema, defaultSpillFanout)
		if err := sj.repartition(ctx, probeDir, probeSchema, leftKeys, next, lw); err != nil {
			return err
		}
		for p := 0; p < defaultSpillFanout; p++ {
			if err := sj.joinPartition(ctx, partDir(buildDir, p), partDir(probeDir, p), subMem[p], depth+1, buildPar, leftKeys, probeSchema, leaves); err != nil {
				return err
			}
		}
		return nil
	}

	buildBatches, err := sj.readSpillFiles(buildDir)
	if err != nil {
		return err
	}
	jt, err := BuildHashJoin(NewBatchList(sj.buildSchema, buildBatches), sj.buildKeys, sj.typ, buildPar, nil)
	if err != nil {
		return err
	}
	out, err := CollectCtx(ctx, &Probe{
		In:    &spillFileSource{store: sj.store, names: probeNames, schema: probeSchema},
		Table: jt, LeftKeys: leftKeys, Tel: sj.tel,
	})
	if err != nil {
		return err
	}
	sj.mu.Lock()
	sj.partsJoined++
	sj.mu.Unlock()
	if out.NumRows() > 0 {
		*leaves = append(*leaves, out)
	}
	return nil
}

// repartition redistributes a partition's leaf files into sub-partitions
// under the same directory using the next level's partitioner, preserving
// row order within every sub-partition (files are read in name order — write
// order — and rows split stably). ctx is checked per input file, so a
// cancelled partition task stops its doomed spill reads and writes early.
func (sj *SpilledJoin) repartition(ctx context.Context, dir string, schema colfile.Schema, keys []int, part PartitionFunc, w *spillWriter) error {
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
				p = part(b, keys, r, h)
			}
			if err := w.add(p, b, r); err != nil {
				return err
			}
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
