package compute

import (
	"context"
	"errors"
	"sync/atomic"
	"time"
)

// ErrAdmissionTimeout is returned by Admission.Acquire when a statement
// spent its full configured wait budget queued without being granted slots.
var ErrAdmissionTimeout = errors.New("compute: admission wait timeout")

// AdmissionCounters tracks admission-control outcomes. The struct is
// embedded in core.WorkStats so a serving front end's admission traffic is
// observable next to the engine's modeled-work counters; all fields are
// atomics and safe for concurrent update.
type AdmissionCounters struct {
	// Queued counts statements that found the fabric's leases dry and had
	// to wait (whether or not they were eventually admitted).
	Queued atomic.Int64
	// Admitted counts statements granted a slot lease (immediately or after
	// queueing).
	Admitted atomic.Int64
	// Rejected counts statements turned away because the admission queue
	// was already at its configured depth.
	Rejected atomic.Int64
	// TimedOut counts statements that waited the full WaitTimeout without
	// being granted slots.
	TimedOut atomic.Int64
	// Canceled counts statements whose caller context was canceled while
	// they were queued (client went away).
	Canceled atomic.Int64
	// QueueWaitNanos totals the time admitted statements spent queued.
	QueueWaitNanos atomic.Int64
}

// AdmissionConfig tunes an Admission controller.
type AdmissionConfig struct {
	// SlotsPerQuery is the worker-slot count requested per admitted
	// statement (the statement's intra-query DOP ceiling). Values < 1
	// request one slot.
	SlotsPerQuery int
	// MaxQueue bounds the number of statements waiting for slots: arrivals
	// beyond it are rejected with ErrQueueFull. < 0 means unbounded, 0
	// means reject whenever leases are dry.
	MaxQueue int
	// WaitTimeout bounds how long a queued statement waits before failing
	// with ErrAdmissionTimeout. 0 means wait until the caller's context
	// gives up.
	WaitTimeout time.Duration
}

// Admission is the front-door admission controller for a serving process:
// every statement acquires a slot lease through it before executing, so
// concurrent sessions multiplex over the same fabric slot pool that sizes
// intra-query worker pools. When leases run dry, statements queue FIFO up
// to MaxQueue deep and at most WaitTimeout long.
type Admission struct {
	f   *Fabric
	cfg AdmissionConfig
	ctr *AdmissionCounters
}

// NewAdmission creates an admission controller over the fabric, recording
// outcomes into ctr (which the caller owns — typically core.WorkStats'
// embedded counters). A nil ctr gets a private counter set.
func NewAdmission(f *Fabric, cfg AdmissionConfig, ctr *AdmissionCounters) *Admission {
	if ctr == nil {
		ctr = &AdmissionCounters{}
	}
	return &Admission{f: f, cfg: cfg, ctr: ctr}
}

// Counters returns the controller's counter set.
func (a *Admission) Counters() *AdmissionCounters { return a.ctr }

// Waiting reports how many statements are currently queued on the fabric.
func (a *Admission) Waiting() int { return a.f.QueuedLeases() }

// Acquire admits one statement: it returns a granted slot lease (the caller
// must Release it when the statement finishes) and the time spent queued.
// Failure modes, each counted exactly once:
//
//   - ErrQueueFull — leases dry and MaxQueue waiters already queued
//   - ErrAdmissionTimeout — queued for the full WaitTimeout
//   - ctx.Err() — the caller's context was canceled or expired while queued
func (a *Admission) Acquire(ctx context.Context) (*SlotLease, time.Duration, error) {
	want := a.cfg.SlotsPerQuery
	if want < 1 {
		want = 1
	}
	// The clock starts before the deadline is fixed, so a timed-out wait is
	// never reported shorter than WaitTimeout.
	start := time.Now()
	wctx := ctx
	if a.cfg.WaitTimeout > 0 {
		var cancel context.CancelFunc
		wctx, cancel = context.WithTimeout(ctx, a.cfg.WaitTimeout)
		defer cancel()
	}
	lease, queued, err := a.f.LeaseSlotsCtx(wctx, want, a.cfg.MaxQueue)
	wait := time.Since(start)
	if queued {
		a.ctr.Queued.Add(1)
	}
	switch {
	case err == nil:
		a.ctr.Admitted.Add(1)
		if queued {
			a.ctr.QueueWaitNanos.Add(wait.Nanoseconds())
		}
		return lease, wait, nil
	case errors.Is(err, ErrQueueFull):
		a.ctr.Rejected.Add(1)
		return nil, wait, err
	case ctx.Err() != nil:
		// the caller's own context gave up (cancel or caller deadline)
		a.ctr.Canceled.Add(1)
		return nil, wait, ctx.Err()
	default:
		// only the WaitTimeout layer expired
		a.ctr.TimedOut.Add(1)
		return nil, wait, ErrAdmissionTimeout
	}
}
