package bench

// Wall-clock micro-benchmarks of the morsel-driven parallel executor, shared
// by the root-level testing.B benchmarks (bench_test.go) and cmd/benchrunner
// -json. Unlike the figure experiments these measure real time and real
// allocations, so their results feed the per-PR perf trajectory
// (BENCH_PR2.json) rather than paper-shape comparisons.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"polaris/internal/colfile"
	"polaris/internal/exec"
)

// microDataset lazily builds the micro-bench scan dataset: 16 immutable
// colfiles of 64Ki rows each (1M rows), 4Ki-row groups.
var microDataset struct {
	once  sync.Once
	files []exec.ScanFile
	rows  int64
	err   error
}

// MicroFiles returns the shared 1M-row columnar dataset (grp, val int64
// columns) used by the parallel scan and join micro-benchmarks, plus its row
// count.
func MicroFiles() ([]exec.ScanFile, int64, error) {
	d := &microDataset
	d.once.Do(func() {
		schema := colfile.Schema{
			{Name: "grp", Type: colfile.Int64},
			{Name: "val", Type: colfile.Int64},
		}
		const nFiles, rowsPerFile, rowsPerGroup = 16, 1 << 16, 1 << 12
		row := int64(0)
		for f := 0; f < nFiles; f++ {
			w := colfile.NewWriter(schema)
			for lo := 0; lo < rowsPerFile; lo += rowsPerGroup {
				batch := colfile.NewBatch(schema)
				for i := 0; i < rowsPerGroup; i++ {
					batch.Cols[0].AppendInt(row % 31)
					batch.Cols[1].AppendInt(row % 997)
					row++
				}
				if err := w.WriteBatch(batch); err != nil {
					d.err = err
					return
				}
			}
			data, err := w.Finish()
			if err != nil {
				d.err = err
				return
			}
			r, err := colfile.OpenReader(data)
			if err != nil {
				d.err = err
				return
			}
			d.files = append(d.files, exec.ScanFile{R: r})
		}
		d.rows = row
	})
	return d.files, d.rows, d.err
}

// compileFor compiles benchmark expressions once per run against the dataset's
// schema (read from the first file; all files share it). The programs are
// immutable, so every morsel's operators share them.
func compileFor(files []exec.ScanFile, exprs ...exec.Expr) (colfile.Schema, []*exec.Prog, error) {
	schema := files[0].R.Schema()
	progs := make([]*exec.Prog, len(exprs))
	for i, e := range exprs {
		var err error
		if progs[i], err = exec.Compile(e, schema); err != nil {
			return nil, nil, err
		}
	}
	return schema, progs, nil
}

// valBelow is the micro-benchmarks' scan predicate: val < limit.
func valBelow(limit int64) exec.Expr {
	return exec.Bin{Kind: exec.OpLt, L: exec.ColRef{Idx: 1}, R: exec.Const{Val: limit}}
}

// ParallelScanAggregate runs the scan micro-benchmark pipeline — scan →
// filter → grouped integer aggregation — at the given DOP through the
// morsel-driven executor, returning the merged result.
func ParallelScanAggregate(files []exec.ScanFile, dop int) (*colfile.Batch, error) {
	_, progs, err := compileFor(files, valBelow(900), exec.ColRef{Idx: 0, Name: "grp"}, exec.ColRef{Idx: 1})
	if err != nil {
		return nil, err
	}
	pred, groupBy, val := progs[0], progs[1:2], progs[2]
	aggs := []exec.AggSpec{
		{Kind: exec.AggCountStar, Name: "n"},
		{Kind: exec.AggSum, Arg: val, Name: "sv"},
		{Kind: exec.AggMin, Arg: val, Name: "mn"},
		{Kind: exec.AggMax, Arg: val, Name: "mx"},
	}
	morsels := exec.SplitMorsels(files, dop*4)
	batches, err := exec.RunMorsels(morsels, dop, func(m exec.Morsel) (exec.Operator, error) {
		s, err := exec.NewMorselScan(m, nil, nil, nil)
		if err != nil {
			return nil, err
		}
		return &exec.HashAgg{In: &exec.Filter{In: s, Pred: pred}, GroupBy: groupBy, Aggs: aggs, Partial: true}, nil
	})
	if err != nil {
		return nil, err
	}
	proto := &exec.HashAgg{GroupBy: groupBy, Aggs: aggs, Partial: true}
	merge := &exec.MergeAgg{In: exec.NewBatchList(proto.Schema(), batches), Groups: 1, Aggs: aggs}
	return exec.Collect(merge)
}

// sortKeys is the ORDER BY of the sort micro-benchmarks: val DESC (only 997
// distinct values over 1M rows, so ties are plentiful and the stable-by-
// morsel-order rule is on the hot path), then grp ascending.
func sortKeys() []exec.SortKey {
	return []exec.SortKey{{Col: 1, Desc: true}, {Col: 0}}
}

// ParallelSort runs the full-sort micro-benchmark at the given DOP: each
// morsel worker sorts its share of the 1M-row dataset into a run (SortRuns),
// and a loser-tree k-way merge (MergeRuns) combines the runs. Output is
// byte-identical at every DOP.
func ParallelSort(files []exec.ScanFile, dop int) (*colfile.Batch, error) {
	keys := sortKeys()
	morsels := exec.SplitMorsels(files, dop*4)
	batches, err := exec.RunMorsels(morsels, dop, func(m exec.Morsel) (exec.Operator, error) {
		s, err := exec.NewMorselScan(m, nil, nil, nil)
		if err != nil {
			return nil, err
		}
		return &exec.SortRuns{In: s, Keys: keys}, nil
	})
	if err != nil {
		return nil, err
	}
	return exec.Collect(exec.NewMergeRuns(files[0].R.Schema(), batches, keys, -1))
}

// ParallelTopNRows is the bound of the top-N micro-benchmark: the ORDER BY
// ... LIMIT shape where each worker ships at most this many rows.
const ParallelTopNRows = 100

// ParallelTopN runs the top-N pushdown micro-benchmark at the given DOP:
// per-morsel bounded TopN operators (each shipping at most ParallelTopNRows
// rows) merged with early cutoff — the distributed ORDER BY ... LIMIT plan.
func ParallelTopN(files []exec.ScanFile, dop int) (*colfile.Batch, error) {
	keys := sortKeys()
	morsels := exec.SplitMorsels(files, dop*4)
	batches, err := exec.RunMorsels(morsels, dop, func(m exec.Morsel) (exec.Operator, error) {
		s, err := exec.NewMorselScan(m, nil, nil, nil)
		if err != nil {
			return nil, err
		}
		return &exec.TopN{In: s, Keys: keys, N: ParallelTopNRows}, nil
	})
	if err != nil {
		return nil, err
	}
	return exec.Collect(exec.NewMergeRuns(files[0].R.Schema(), batches, keys, ParallelTopNRows))
}

// joinBuild lazily builds the join micro-benchmark's shared build side:
// 64Ki rows keyed 0..2^14, i.e. 4 matches per key.
var joinBuild struct {
	once  sync.Once
	table *exec.JoinTable
	err   error
}

// ParallelJoinTable returns the immutable build side of the join
// micro-benchmark, built once: probing grp∈[0,31) against keys hashed over
// [0, 16Ki) with duplicate matches.
func ParallelJoinTable() (*exec.JoinTable, error) {
	d := &joinBuild
	d.once.Do(func() {
		schema := colfile.Schema{
			{Name: "k", Type: colfile.Int64},
			{Name: "tag", Type: colfile.Int64},
		}
		b := colfile.NewBatch(schema)
		for i := int64(0); i < 1<<16; i++ {
			b.Cols[0].AppendInt(i % (1 << 14))
			b.Cols[1].AppendInt(i)
		}
		d.table, d.err = exec.BuildHashJoin(exec.NewBatchSource(b), []int{0}, exec.InnerJoin, 4, nil)
	})
	return d.table, d.err
}

// ParallelJoinProbe fans the probe side of the join micro-benchmark out over
// the morsel executor at the given DOP: scan → filter → probe against the
// shared JoinTable, merged in morsel order. Every surviving probe row
// (val < 64, ~6% of the dataset) finds 4 matches (grp < 31 < 2^14).
func ParallelJoinProbe(files []exec.ScanFile, table *exec.JoinTable, dop int) (*colfile.Batch, error) {
	schema, progs, err := compileFor(files, valBelow(64))
	if err != nil {
		return nil, err
	}
	morsels := exec.SplitMorsels(files, dop*4)
	batches, err := exec.RunMorsels(morsels, dop, func(m exec.Morsel) (exec.Operator, error) {
		s, err := exec.NewMorselScan(m, nil, nil, nil)
		if err != nil {
			return nil, err
		}
		return &exec.Probe{In: &exec.Filter{In: s, Pred: progs[0]}, Table: table, LeftKeys: []int{0}}, nil
	})
	if err != nil {
		return nil, err
	}
	proto := &exec.Probe{In: exec.NewBatchSource(colfile.NewBatch(schema)), Table: table, LeftKeys: []int{0}}
	return exec.Collect(exec.NewBatchList(proto.Schema(), batches))
}

// bloomBuild lazily builds the build side of the bloom-filter join
// micro-benchmark: 64Ki rows over 16Ki distinct keys, of which only 16 fall
// inside the probe key domain (val ∈ [0, 997)). The hash table is far too
// large to stay cache-resident, which is exactly the case the build-side
// bloom filter pays for: ~98% of probe rows are rejected by a couple of
// bitmap probes instead of a cold map lookup.
var bloomBuild struct {
	once  sync.Once
	table *exec.JoinTable
	err   error
}

// ParallelJoinBloomTable returns the immutable build side of the
// bloom-pruning join micro-benchmark, built once.
func ParallelJoinBloomTable() (*exec.JoinTable, error) {
	d := &bloomBuild
	d.once.Do(func() {
		schema := colfile.Schema{
			{Name: "k", Type: colfile.Int64},
			{Name: "tag", Type: colfile.Int64},
		}
		b := colfile.NewBatch(schema)
		for i := int64(0); i < 1<<16; i++ {
			k := 997 + i%(1<<14) // outside val's [0, 997): never matches
			if i < 16 {
				k = i * 61 // the 16 matchable keys, one build row each
			}
			b.Cols[0].AppendInt(k)
			b.Cols[1].AppendInt(i)
		}
		d.table, d.err = exec.BuildHashJoin(exec.NewBatchSource(b), []int{0}, exec.InnerJoin, 4, nil)
	})
	return d.table, d.err
}

// ParallelJoinBloom probes the 1M-row dataset's val column against the
// sparse build table at the given DOP, with the build-side bloom runtime
// filter attached when bloom is true. Only ~1.6% of probe rows carry one of
// the 16 build keys, so the filter rejects the rest before the hash-table
// walk; the returned count is the number of probe rows it pruned. Output is
// byte-identical with and without the filter at every DOP — the bloom is
// pure pruning, never semantics.
func ParallelJoinBloom(files []exec.ScanFile, table *exec.JoinTable, dop int, bloom bool) (*colfile.Batch, int64, error) {
	var pruned atomic.Int64
	var filter *exec.Bloom
	if bloom {
		filter = table.BloomFilter()
	}
	morsels := exec.SplitMorsels(files, dop*4)
	batches, err := exec.RunMorsels(morsels, dop, func(m exec.Morsel) (exec.Operator, error) {
		s, err := exec.NewMorselScan(m, nil, nil, nil)
		if err != nil {
			return nil, err
		}
		return &exec.Probe{In: s, Table: table, LeftKeys: []int{1}, Bloom: filter, Pruned: &pruned}, nil
	})
	if err != nil {
		return nil, 0, err
	}
	proto := &exec.Probe{In: exec.NewBatchSource(colfile.NewBatch(files[0].R.Schema())), Table: table, LeftKeys: []int{1}}
	out, err := exec.Collect(exec.NewBatchList(proto.Schema(), batches))
	if err != nil {
		return nil, 0, err
	}
	return out, pruned.Load(), nil
}

// joinBuildBatch lazily materializes the raw build-side batch of the join
// micro-benchmarks (the spill variant re-drains it per iteration, since a
// grace build consumes its input).
var joinBuildBatch struct {
	once  sync.Once
	batch *colfile.Batch
}

func buildSide() *colfile.Batch {
	d := &joinBuildBatch
	d.once.Do(func() {
		schema := colfile.Schema{
			{Name: "k", Type: colfile.Int64},
			{Name: "tag", Type: colfile.Int64},
		}
		b := colfile.NewBatch(schema)
		for i := int64(0); i < 1<<16; i++ {
			b.Cols[0].AppendInt(i % (1 << 14))
			b.Cols[1].AppendInt(i)
		}
		d.batch = b
	})
	return d.batch
}

// ParallelJoinSpillBudget forces the 1 MiB build side of the join
// micro-benchmark through the grace spill path (~8 partitions).
const ParallelJoinSpillBudget = 128 << 10

// ParallelJoinSpill runs the join micro-benchmark through the grace-join
// spill path: the build side overflows ParallelJoinSpillBudget, both sides
// are partitioned into an in-memory spill store, and the partition-wise join
// — fanned out over dop workers, one depth-0 partition per task — is merged
// back into probe-row order. Output is byte-identical to ParallelJoinProbe
// at every DOP; the ns/op delta against it is the measured cost of spilling
// (partition, serialize, restore order), which now shrinks with DOP on
// multi-core hardware instead of staying single-threaded.
func ParallelJoinSpill(files []exec.ScanFile, dop int) (*colfile.Batch, error) {
	src, err := exec.BuildGraceJoin(exec.NewBatchSource(buildSide()), []int{0}, exec.InnerJoin, dop,
		exec.SpillConfig{Budget: ParallelJoinSpillBudget, Store: exec.NewMemSpillStore()}, nil)
	if err != nil {
		return nil, err
	}
	if src.Spilled == nil {
		return nil, fmt.Errorf("bench: build side did not spill under %d-byte budget", ParallelJoinSpillBudget)
	}
	schema, progs, err := compileFor(files, valBelow(64))
	if err != nil {
		return nil, err
	}
	morsels := exec.SplitMorsels(files, dop*4)
	probes, err := exec.RunMorsels(morsels, dop, func(m exec.Morsel) (exec.Operator, error) {
		s, err := exec.NewMorselScan(m, nil, nil, nil)
		if err != nil {
			return nil, err
		}
		return &exec.Filter{In: s, Pred: progs[0]}, nil
	})
	if err != nil {
		return nil, err
	}
	joined, err := src.Spilled.JoinBatches(context.Background(), probes, []int{0}, schema, dop)
	if err != nil {
		return nil, err
	}
	outSchema := append(append(colfile.Schema{}, schema...), buildSide().Schema...)
	return exec.Collect(exec.NewBatchList(outSchema, joined))
}

// FmtKeyEncode is the pre-PR2 fmt-based key encoding ("%v\x00" separators,
// one boxed Value call and one Fprintf per column per row), kept as the
// measured baseline the typed encoding is compared against in BENCH_PR2.json.
// Returns a checksum so the compiler cannot elide the work.
func FmtKeyEncode(b *colfile.Batch, keys []int) int {
	total := 0
	for i := 0; i < b.NumRows(); i++ {
		var sb []byte
		for _, c := range keys {
			v := b.Cols[c]
			if v.IsNull(i) {
				continue
			}
			sb = fmt.Appendf(sb, "%v\x00", v.Value(i))
		}
		total += len(sb)
	}
	return total
}

// TypedKeyEncode encodes the same keys with the zero-box Vec.AppendKey path
// and a reused scratch buffer — the encoding the executor now uses for join
// probes and group keys.
func TypedKeyEncode(b *colfile.Batch, keys []int) int {
	total := 0
	var scratch []byte
	for i := 0; i < b.NumRows(); i++ {
		scratch = scratch[:0]
		for _, c := range keys {
			v := b.Cols[c]
			if v.IsNull(i) {
				continue
			}
			scratch = v.AppendKey(scratch, i)
		}
		total += len(scratch)
	}
	return total
}

// KeyEncodeBatch builds the mixed-type batch (int64 + string columns) both
// key-encoding benchmarks run over.
func KeyEncodeBatch(rows int) *colfile.Batch {
	schema := colfile.Schema{
		{Name: "k", Type: colfile.Int64},
		{Name: "s", Type: colfile.String},
	}
	b := colfile.NewBatch(schema)
	for i := 0; i < rows; i++ {
		b.Cols[0].AppendInt(int64(i % 4096))
		b.Cols[1].AppendStr(fmt.Sprintf("key-%d", i%512))
	}
	return b
}
