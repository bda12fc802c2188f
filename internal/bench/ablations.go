package bench

import (
	"context"
	"fmt"
	"time"

	"polaris/internal/catalog"
	"polaris/internal/colfile"
	"polaris/internal/compute"
	"polaris/internal/core"
	"polaris/internal/dcp"
	"polaris/internal/exec"
	"polaris/internal/workload"
)

// Ablations for the design choices the paper argues for: merge-on-read deletes
// (Section 2.1), workload management (4.3), file-granularity conflicts
// (4.4.1), compaction (5.1) and the checkpoint threshold (5.2). Each returns
// rows comparing the design point used by the paper against the alternative.

// AblationRow is one configuration's outcome in an ablation.
type AblationRow struct {
	Config  string
	Metric  string
	Value   float64
	SimTime time.Duration
}

func dsSchema() colfile.Schema { return workload.DSTables()[0].Schema }

// AblationConflictGranularity measures commit success under concurrent
// updaters that touch disjoint data files: table granularity aborts all but
// one; file granularity (paper 4.4.1) lets disjoint updates through.
func AblationConflictGranularity(writers int) []AblationRow {
	var out []AblationRow
	for _, gran := range []core.ConflictGranularity{core.TableGranularity, core.FileGranularity} {
		opts := core.DefaultOptions()
		opts.Distributions = writers // one bucket per writer -> disjoint files
		opts.RowsPerFile = 1000
		opts.Granularity = gran
		eng := core.NewDefaultEngine(opts)
		// A bulk load writes one file per cell whatever its size, where an
		// INSERT this small would land as one file of mixed cells.
		err := eng.AutoCommit(func(tx *core.Txn) error {
			if _, err := tx.CreateTable("t", dsSchema(), "sk", "sk"); err != nil {
				return err
			}
			_, err := tx.BulkLoad("t", []core.SourceFile{{Name: "t", Rows: func() (*colfile.Batch, error) {
				return workload.DSBatch("t", 0, int64(writers*50)), nil
			}}})
			return err
		})
		if err != nil {
			panic(err)
		}
		// All writers share a snapshot, each deletes one distinct sk.
		txs := make([]*core.Txn, writers)
		for i := range txs {
			txs[i] = eng.Begin()
		}
		for i, tx := range txs {
			if _, err := tx.Delete(context.Background(), "t", exec.Bin{
				Kind: exec.OpEq, L: exec.ColRef{Idx: 0}, R: exec.Const{Val: int64(i)},
			}); err != nil {
				panic(err)
			}
		}
		committed := 0
		for _, tx := range txs {
			if err := tx.Commit(); err == nil {
				committed++
			} else if !catalog.IsWriteConflict(err) {
				panic(err)
			}
		}
		name := "table-granularity"
		if gran == core.FileGranularity {
			name = "file-granularity"
		}
		out = append(out, AblationRow{
			Config: name, Metric: "committed_of_" + itoa(writers), Value: float64(committed),
		})
	}
	return out
}

func itoa(n int) string { return fmt.Sprintf("%d", n) }

// AblationCheckpointThreshold measures cold snapshot-reconstruction cost as a
// function of the checkpoint threshold (paper 5.2): fewer manifests to replay
// means cheaper reconstruction.
func AblationCheckpointThreshold(commits int, thresholds []int) []AblationRow {
	var out []AblationRow
	for _, every := range thresholds {
		opts := core.DefaultOptions()
		opts.Distributions = 4
		eng := core.NewDefaultEngine(opts)
		err := eng.AutoCommit(func(tx *core.Txn) error {
			_, err := tx.CreateTable("t", dsSchema(), "sk", "sk")
			return err
		})
		if err != nil {
			panic(err)
		}
		since := 0
		for c := 0; c < commits; c++ {
			lo := int64(c * 100)
			err := eng.AutoCommit(func(tx *core.Txn) error {
				_, err := tx.Insert("t", workload.DSBatch("t", lo, lo+100))
				return err
			})
			if err != nil {
				panic(err)
			}
			since++
			if every > 0 && since >= every {
				err := eng.AutoCommit(func(tx *core.Txn) error {
					_, err := tx.CheckpointTable("t")
					return err
				})
				if err != nil {
					panic(err)
				}
				since = 0
			}
		}
		// Cold reconstruction: drop the snapshot cache, then snapshot once.
		eng.Cache.Invalidate(1)
		tx := eng.Begin()
		before := tx.SimTime()
		if _, _, err := tx.Snapshot("t", -1); err != nil {
			panic(err)
		}
		cost := tx.SimTime() - before
		tx.Rollback()
		label := "no-checkpoint"
		if every > 0 {
			label = fmt.Sprintf("every-%d", every)
		}
		out = append(out, AblationRow{
			Config: label, Metric: "cold_snapshot", SimTime: cost,
		})
	}
	return out
}

// AblationCompaction compares steady-state scan cost on a heavily deleted
// table with and without compaction (paper 5.1).
func AblationCompaction() []AblationRow {
	var out []AblationRow
	for _, compact := range []bool{false, true} {
		opts := core.DefaultOptions()
		opts.Distributions = 4
		opts.RowsPerFile = 2000
		opts.CompactSmallRows = 16
		opts.CompactDeletedFrac = 0.25
		eng := core.NewDefaultEngine(opts)
		err := eng.AutoCommit(func(tx *core.Txn) error {
			if _, err := tx.CreateTable("t", dsSchema(), "sk", "sk"); err != nil {
				return err
			}
			_, err := tx.Insert("t", workload.DSBatch("t", 0, 4000))
			return err
		})
		if err != nil {
			panic(err)
		}
		// delete 60% of rows in several statements -> fragmentation
		for k := int64(0); k < 3; k++ {
			err := eng.AutoCommit(func(tx *core.Txn) error {
				_, err := tx.Delete(context.Background(), "t", exec.Bin{
					Kind: exec.OpEq,
					L:    exec.Bin{Kind: exec.OpMod, L: exec.ColRef{Idx: 0}, R: exec.Const{Val: int64(5)}},
					R:    exec.Const{Val: k},
				})
				return err
			})
			if err != nil {
				panic(err)
			}
		}
		if compact {
			err := eng.AutoCommit(func(tx *core.Txn) error {
				_, err := tx.CompactTable("t")
				return err
			})
			if err != nil {
				panic(err)
			}
		}
		// Read amplification: merge-on-read scans must read deleted rows and
		// filter them; compaction removes them physically. Measure rows
		// scanned (physical) for one full read plus the warm scan sim time.
		tx := eng.Begin()
		before := tx.SimTime()
		scanned := scanRows(tx, "t")
		scan := tx.SimTime() - before
		tx.Rollback()
		label := "fragmented"
		if compact {
			label = "compacted"
		}
		out = append(out, AblationRow{
			Config: label, Metric: "rows_scanned", Value: float64(scanned), SimTime: scan,
		})
	}
	return out
}

// scanRows reads table whole, as a statement's scan does, and returns the
// rows it read: the live rows plus those merge-on-read deletes leave behind.
func scanRows(tx *core.Txn, table string) int64 {
	state, meta, err := tx.Snapshot(table, -1)
	if err != nil {
		panic(err)
	}
	ms, err := tx.Morsels(context.Background(), state, meta, 0)
	if err != nil {
		panic(err)
	}
	s, err := exec.NewMorselScan(ms.Morsels[0], nil, nil, ms.Tel)
	if err != nil {
		panic(err)
	}
	if _, err := exec.Collect(s); err != nil {
		panic(err)
	}
	return ms.Tel.RowsScanned.Load()
}

// AblationCoWvsMoR compares delete cost and subsequent scan cost between
// copy-on-write and merge-on-read deletes (paper 2.1).
func AblationCoWvsMoR() []AblationRow {
	var out []AblationRow
	for _, mode := range []core.DeleteMode{core.MergeOnRead, core.CopyOnWrite} {
		opts := core.DefaultOptions()
		opts.Distributions = 4
		opts.RowsPerFile = 4000
		opts.Deletes = mode
		eng := core.NewDefaultEngine(opts)
		err := eng.AutoCommit(func(tx *core.Txn) error {
			if _, err := tx.CreateTable("t", dsSchema(), "sk", "sk"); err != nil {
				return err
			}
			_, err := tx.Insert("t", workload.DSBatch("t", 0, 8000))
			return err
		})
		if err != nil {
			panic(err)
		}
		// Write amplification of a trickle delete (1% of rows): MoR writes
		// tiny deletion vectors, CoW rewrites whole files.
		bytesBefore := eng.Store.Metrics().BytesWritten
		var delCost time.Duration
		err = eng.AutoCommit(func(tx *core.Txn) error {
			before := tx.SimTime()
			_, err := tx.Delete(context.Background(), "t", exec.Bin{
				Kind: exec.OpEq,
				L:    exec.Bin{Kind: exec.OpMod, L: exec.ColRef{Idx: 0}, R: exec.Const{Val: int64(100)}},
				R:    exec.Const{Val: int64(7)},
			})
			delCost = tx.SimTime() - before
			return err
		})
		if err != nil {
			panic(err)
		}
		delBytes := eng.Store.Metrics().BytesWritten - bytesBefore
		// Read amplification afterwards: CoW scans only live rows.
		tx := eng.Begin()
		scanned := scanRows(tx, "t")
		tx.Rollback()
		label := "merge-on-read"
		if mode == core.CopyOnWrite {
			label = "copy-on-write"
		}
		out = append(out,
			AblationRow{Config: label, Metric: "delete_bytes_written", Value: float64(delBytes), SimTime: delCost},
			AblationRow{Config: label, Metric: "scan_rows_after", Value: float64(scanned)},
		)
	}
	return out
}

// AblationWLM measures read-task completion with and without workload
// separation when heavy write tasks are queued in the same job mix
// (paper 4.3). It runs at the DCP level, where lane contention is modeled:
// with shared pools read tasks queue behind write tasks; with separated
// pools they complete independently.
func AblationWLM() []AblationRow {
	var out []AblationRow
	for _, separate := range []bool{true, false} {
		fabric := compute.NewFabric(compute.Config{Elastic: true, InitNodes: 4, SlotsPer: 2})
		nodes := fabric.Nodes()
		var pools dcp.Pools
		if separate {
			pools = dcp.Pools{dcp.ReadPool: nodes[:2], dcp.WritePool: nodes[2:]}
		} else {
			pools = dcp.Pools{dcp.ReadPool: nodes, dcp.WritePool: nodes}
		}
		// 16 heavy writes (a load job) dispatched before 8 light reads
		// (reporting queries).
		var tasks []*dcp.Task
		for i := 1; i <= 16; i++ {
			tasks = append(tasks, &dcp.Task{ID: i, Pool: dcp.WritePool, Exec: func(ctx *dcp.Ctx) (any, error) {
				ctx.Charge(80 * time.Millisecond)
				return nil, nil
			}})
		}
		for i := 1; i <= 8; i++ {
			tasks = append(tasks, &dcp.Task{ID: 100 + i, Pool: dcp.ReadPool, Exec: func(ctx *dcp.Ctx) (any, error) {
				ctx.Charge(5 * time.Millisecond)
				return nil, nil
			}})
		}
		job := dcp.Start(context.Background(), pools, dcp.Options{Overhead: time.Millisecond})
		_, _ = job.Run(tasks...) // a failed Run fails the job, and Close reports it
		res, err := job.Close()
		if err != nil {
			panic(err)
		}
		var readEnd time.Duration
		for i := 101; i <= 108; i++ {
			if res.PerTask[i].VirtEnd > readEnd {
				readEnd = res.PerTask[i].VirtEnd
			}
		}
		label := "wlm-separated"
		if !separate {
			label = "wlm-shared"
		}
		out = append(out, AblationRow{Config: label, Metric: "read_completion", SimTime: readEnd})
	}
	return out
}
