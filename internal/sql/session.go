package sql

import (
	"context"
	"errors"
	"fmt"

	"polaris/internal/core"
)

// Session executes SQL statements against an engine, managing autocommit vs
// explicit transactions (BEGIN/COMMIT/ROLLBACK) the way the SQL FE does.
//
// Concurrency contract: a Session is a single statement stream — it is NOT
// safe for concurrent use by multiple goroutines (the open-transaction
// pointer and per-session budget are unsynchronized by design, matching the
// one-connection-one-session model of the paper's SQL front end). Distinct
// Sessions over one Engine are fully concurrent: the engine, catalog MVCC,
// fabric and object store are all thread-safe, and cross-session isolation
// is exactly the configured transactional isolation level. A serving front
// end must serialize statements per session (cmd/polaris-server holds a
// per-session mutex) and open one Session per concurrent stream.
type Session struct {
	eng *core.Engine
	// tx is the open explicit transaction, nil in autocommit mode.
	tx *core.Txn
	// Vacuum hooks engine GC for the VACUUM utility statement.
	Vacuum func() (core.GCResult, error)
	// joinBudget, when non-nil, overrides the engine-wide JoinMemoryBudget
	// on every transaction this session begins (explicit and autocommit) —
	// the per-session memory budget of a serving front end.
	joinBudget *int64
}

// NewSession creates a session over the engine.
func NewSession(eng *core.Engine) *Session {
	s := &Session{eng: eng}
	s.Vacuum = eng.GarbageCollect
	return s
}

// SetJoinMemoryBudget gives this session its own hash-join build-side
// memory budget in bytes, overriding the engine-wide configuration for
// every transaction the session begins from now on (0 or negative =
// unlimited). An already-open explicit transaction is updated too.
func (s *Session) SetJoinMemoryBudget(b int64) {
	s.joinBudget = &b
	if s.tx != nil {
		s.tx.SetJoinMemoryBudget(b)
	}
}

// begin starts an engine transaction carrying the session's overrides.
func (s *Session) begin() *core.Txn {
	tx := s.eng.Begin()
	if s.joinBudget != nil {
		tx.SetJoinMemoryBudget(*s.joinBudget)
	}
	return tx
}

// InTransaction reports whether an explicit transaction is open.
func (s *Session) InTransaction() bool { return s.tx != nil }

// Txn exposes the open explicit transaction (nil in autocommit mode); used by
// callers that mix SQL with programmatic API calls.
func (s *Session) Txn() *core.Txn { return s.tx }

// Close rolls back any open transaction.
func (s *Session) Close() {
	if s.tx != nil {
		s.tx.Rollback()
		s.tx = nil
	}
}

// Exec parses and executes one statement.
func (s *Session) Exec(query string) (*Result, error) {
	st, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return s.ExecParsed(st)
}

// ExecScript executes a semicolon-separated script, stopping at the first
// error. It returns the last statement's result.
func (s *Session) ExecScript(script string) (*Result, error) {
	stmts, err := ParseScript(script)
	if err != nil {
		return nil, err
	}
	var last *Result
	for _, st := range stmts {
		last, err = s.ExecParsed(st)
		if err != nil {
			return nil, err
		}
	}
	return last, nil
}

// ExecOpts carries per-statement execution overrides from a front end that
// already holds admission-granted resources for the statement.
type ExecOpts struct {
	// DOP, when > 0, is the worker-slot count an admission controller
	// leased for this statement; the executor adopts it instead of leasing
	// from the fabric again. The caller owns the lease and releases it
	// after the statement returns.
	DOP int
	// Ctx, when non-nil, is a cancellation context for the statement. A
	// SELECT observes it on either stage runner — between batches and spill
	// files in the in-process pool, at task boundaries on a DAG — and
	// returns its error; the statement's spill and exchange files are
	// cleaned up as on any other error path.
	Ctx context.Context
}

// ExecWith parses and executes one statement with execution overrides.
func (s *Session) ExecWith(query string, opts ExecOpts) (*Result, error) {
	st, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return s.ExecParsedWith(st, opts)
}

// ExecParsed executes an already-parsed statement.
func (s *Session) ExecParsed(st Statement) (*Result, error) {
	return s.ExecParsedWith(st, ExecOpts{})
}

// ExecParsedWith executes an already-parsed statement with execution
// overrides.
func (s *Session) ExecParsedWith(st Statement, opts ExecOpts) (*Result, error) {
	switch st.(type) {
	case BeginStmt:
		if s.tx != nil {
			return nil, errors.New("sql: transaction already open")
		}
		s.tx = s.begin()
		return &Result{Message: "transaction started"}, nil
	case CommitStmt:
		if s.tx == nil {
			return nil, errors.New("sql: no open transaction")
		}
		err := s.tx.Commit()
		s.tx = nil
		if err != nil {
			return nil, err
		}
		return &Result{Message: "committed"}, nil
	case RollbackStmt:
		if s.tx == nil {
			return nil, errors.New("sql: no open transaction")
		}
		s.tx.Rollback()
		s.tx = nil
		return &Result{Message: "rolled back"}, nil
	}

	if m, ok := st.(MaintenanceStmt); ok && m.What == "vacuum" {
		if s.tx != nil {
			return nil, errors.New("sql: VACUUM cannot run inside a transaction")
		}
		res, err := s.Vacuum()
		if err != nil {
			return nil, err
		}
		return &Result{Message: fmt.Sprintf(
			"vacuum: scanned %d, deleted %d data + %d dv + %d orphans, retained %d",
			res.Scanned, res.DeletedData, res.DeletedDV, res.DeletedOrphans, res.Retained)}, nil
	}

	if s.tx != nil {
		if opts.DOP > 0 {
			s.tx.AdoptLease(opts.DOP)
			defer s.tx.ClearAdoptedLease()
		}
		if opts.Ctx != nil {
			s.tx.SetContext(opts.Ctx)
			defer s.tx.SetContext(nil)
		}
		before := s.tx.SimTime()
		res, err := Execute(s.tx, st)
		if err != nil {
			return nil, err
		}
		res.SimTime = s.tx.SimTime() - before
		return res, nil
	}
	// Autocommit: each statement runs in its own transaction.
	tx := s.begin()
	if opts.DOP > 0 {
		tx.AdoptLease(opts.DOP)
	}
	if opts.Ctx != nil {
		tx.SetContext(opts.Ctx)
	}
	res, err := Execute(tx, st)
	if err != nil {
		tx.Rollback()
		return nil, err
	}
	if err := tx.Commit(); err != nil {
		return nil, err
	}
	res.SimTime = tx.SimTime()
	return res, nil
}
