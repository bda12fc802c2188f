// Package ctxboundary exercises the ctxboundary analyzer: fan-out loops
// that drain operators or write spill files without observing an available
// context, the boundary-check shapes it must accept, the no-context-in-scope
// exemption, root contexts minted inside an execution package, and the
// //polaris:ctx escape for both.
package ctxboundary

import (
	"context"
	"fmt"

	"polaris/internal/exec"
	"polaris/internal/objectstore"
)

// DrainAll has a context available but never observes it in the loop:
// flagged.
func DrainAll(ctx context.Context, ops []exec.Operator) error {
	for _, op := range ops { // want `loop calls exec\.Collect`
		if _, err := exec.Collect(op); err != nil {
			return err
		}
	}
	return ctx.Err()
}

// WriteAll writes spill files without observing the context: flagged.
func WriteAll(ctx context.Context, d *objectstore.SpillDir, parts [][]byte) error {
	for i, part := range parts { // want "loop calls objectstore Put"
		if err := d.Put(fmt.Sprintf("part-%d", i), part); err != nil {
			return err
		}
	}
	return ctx.Err()
}

// DrainChecked observes the context at every batch boundary: not flagged.
func DrainChecked(ctx context.Context, ops []exec.Operator) error {
	for _, op := range ops {
		if err := ctx.Err(); err != nil {
			return err
		}
		if _, err := exec.Collect(op); err != nil {
			return err
		}
	}
	return nil
}

// DrainCtx threads the context through CollectCtx: not flagged.
func DrainCtx(ctx context.Context, ops []exec.Operator) error {
	for _, op := range ops {
		if _, err := exec.CollectCtx(ctx, op); err != nil {
			return err
		}
	}
	return nil
}

// Serial has no context anywhere in scope: serial paths are exempt.
func Serial(ops []exec.Operator) error {
	for _, op := range ops {
		if _, err := exec.Collect(op); err != nil {
			return err
		}
	}
	return nil
}

// Bounded is annotated: each iteration's work is provably small.
func Bounded(ctx context.Context, ops []exec.Operator) error {
	//polaris:ctx each operator is a single pre-materialized batch, so one iteration is O(batch)
	for _, op := range ops {
		if _, err := exec.Collect(op); err != nil {
			return err
		}
	}
	return ctx.Err()
}

// Detached mints a root context below the statement: flagged.
func Detached(ops []exec.Operator) error {
	return DrainCtx(context.Background(), ops) // want `context\.Background\(\) in an execution package`
}

// Placeholder is no better: flagged.
func Placeholder(ops []exec.Operator) error {
	return DrainCtx(context.TODO(), ops) // want `context\.TODO\(\) in an execution package`
}

// HarnessEntry is annotated: it is called by benchmarks, never by a statement.
func HarnessEntry(ops []exec.Operator) error {
	//polaris:ctx harness entry point: no statement context exists above this call
	return DrainCtx(context.Background(), ops)
}
