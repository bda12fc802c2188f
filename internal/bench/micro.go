package bench

// Operator pipelines of the morsel-driven parallel executor over a shared 1M-row
// dataset, below SQL: the repo benchmark times them as its exec.* rungs
// (bench/rungs.go, bench/README.md), and micro_test.go holds them to the same
// result at every DOP. Unlike the figure experiments they run in real time,
// not simulated time.

import (
	"context"
	"fmt"
	"sync"

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
// morsel-driven executor, returning the merged result sorted by its group
// key, as the SQL layer orders a grouped statement.
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
	return exec.Collect(&exec.Sort{In: merge, Keys: []exec.SortKey{{Col: 0}}})
}

// sortKeys is the ORDER BY of the sort micro-benchmarks: val DESC (only 997
// distinct values over 1M rows, so ties are plentiful and the stable-by-
// morsel-order rule is on the hot path), then grp ascending.
func sortKeys() []exec.SortKey {
	return []exec.SortKey{{Col: 1, Desc: true}, {Col: 0}}
}

// ParallelSort runs the full-sort micro-benchmark at the given DOP: each
// morsel worker sorts its share of the 1M-row dataset into a run (Sort),
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
		return &exec.Sort{In: s, Keys: keys}, nil
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
		d.table, d.err = exec.BuildHashJoin(exec.NewBatchSource(b), []int{0}, exec.InnerJoin, 4)
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
		exec.SpillConfig{Budget: ParallelJoinSpillBudget, Store: exec.NewMemSpillStore()})
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
	joined, _, err := src.Spilled.JoinBatches(context.Background(), probes, []int{0}, schema, nil, dop)
	if err != nil {
		return nil, err
	}
	outSchema := append(append(colfile.Schema{}, schema...), buildSide().Schema...)
	return exec.Collect(exec.NewBatchList(outSchema, joined))
}
