package objectstore

import (
	"math/rand"
	"sync"
)

// OpKind identifies a storage operation class for fault injection.
type OpKind int

// Operation kinds.
const (
	OpPut OpKind = iota
	OpGet
	OpDelete
	OpList
	OpStage
	OpCommit
	opKinds
)

func (k OpKind) String() string {
	switch k {
	case OpPut:
		return "put"
	case OpGet:
		return "get"
	case OpDelete:
		return "delete"
	case OpList:
		return "list"
	case OpStage:
		return "stage"
	case OpCommit:
		return "commit"
	default:
		return "unknown"
	}
}

// FaultInjector returns transient errors with a configured probability per
// operation kind. It is deterministic given its seed.
type FaultInjector struct {
	mu     sync.Mutex
	rng    *rand.Rand
	prob   [opKinds]float64
	failIn [opKinds]int
}

// NewFaultInjector creates an injector with no failures configured.
func NewFaultInjector(seed int64) *FaultInjector {
	return &FaultInjector{rng: rand.New(rand.NewSource(seed))}
}

// FailNth arranges for the nth (1-based) subsequent operation of the given
// kind to fail with ErrTransient, once. The deterministic counterpart of
// SetProbability, for tests that need the failure to land mid-sequence —
// e.g. after some spill-partition writes have already succeeded.
func (f *FaultInjector) FailNth(op OpKind, n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failIn[op] = n
}

// SetProbability sets the transient-failure probability for an operation kind.
func (f *FaultInjector) SetProbability(op OpKind, p float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.prob[op] = p
}

// SetAll sets the same probability for every operation kind.
func (f *FaultInjector) SetAll(p float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := range f.prob {
		f.prob[i] = p
	}
}

func (f *FaultInjector) maybeFail(op OpKind) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failIn[op] > 0 {
		f.failIn[op]--
		if f.failIn[op] == 0 {
			return ErrTransient
		}
	}
	if p := f.prob[op]; p > 0 && f.rng.Float64() < p {
		return ErrTransient
	}
	return nil
}
