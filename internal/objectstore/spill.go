package objectstore

import (
	"errors"
	"strings"
	"sync/atomic"
)

// SpillPrefix is the root namespace for query-scoped spill files. It is
// disjoint from the durable "tables/" and "published/" namespaces, so storage
// garbage collection and format publishing never see spill traffic.
const SpillPrefix = "spill/"

// SpillDir is a query-scoped spill namespace over the store: the executor's
// grace hash-join writes overflow partitions through it, and the query owner
// calls Cleanup when the query finishes (success or failure). Because spill
// writes go through the same Put path as durable writes, they pay the same
// simulated latency and are subject to the same fault injection — a spilling
// join exercises the storage layer's failure model, not a side channel.
type SpillDir struct {
	store  *Store
	prefix string
	wrote  atomic.Bool // a Put was attempted: there may be files to clean
}

// NewSpillDir creates a spill namespace rooted at SpillPrefix + id + "/".
// The id must be unique per query; the engine derives it from the owning
// transaction and a per-engine sequence.
func NewSpillDir(s *Store, id string) *SpillDir {
	return &SpillDir{store: s, prefix: SpillPrefix + id + "/"}
}

// Prefix returns the namespace's absolute blob prefix.
func (d *SpillDir) Prefix() string { return d.prefix }

// Put writes one spill file (name is relative to the namespace).
func (d *SpillDir) Put(name string, data []byte) error {
	d.wrote.Store(true)
	return d.store.Put(d.prefix+name, data, 0)
}

// Get reads one spill file back.
func (d *SpillDir) Get(name string) ([]byte, error) {
	return d.store.Get(d.prefix + name)
}

// List returns the namespace-relative names of spill files with the given
// relative prefix, sorted.
func (d *SpillDir) List(prefix string) []string {
	names := d.store.List(d.prefix + prefix)
	for i, n := range names {
		names[i] = strings.TrimPrefix(n, d.prefix)
	}
	return names
}

// Count returns the number of files currently in the namespace.
func (d *SpillDir) Count() int { return len(d.store.List(d.prefix)) }

// Cleanup deletes every file in the namespace. It keeps deleting past
// individual failures and returns the errors joined, so a transient delete
// fault cannot strand the rest of the namespace. A namespace is written only
// through its SpillDir (ids are unique per query), so one that was never Put
// to is empty and costs no listing: a statement may register a namespace per
// join build up front and pay for cleanup only where a build spilled.
func (d *SpillDir) Cleanup() error {
	if !d.wrote.Load() {
		return nil
	}
	var errs []error
	for _, name := range d.store.List(d.prefix) {
		if err := d.store.Delete(name); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
