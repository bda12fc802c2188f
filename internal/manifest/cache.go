package manifest

import (
	"sync"
)

// SnapshotCache caches reconstructed table states per table, organized so
// any point-in-time snapshot can be served and incrementally advanced as new
// transactions commit (paper 3.2.1). Losing the cache never affects
// correctness: it is rebuilt by replay from the durable manifests.
type SnapshotCache struct {
	mu     sync.Mutex
	tables map[int64]*cachedTable
	// committed is each table's newest sequence passed to Advance or Rewound.
	// It outlives Invalidate: a state older than it is missing commits, however
	// it got into the cache, and must not be extended.
	committed map[int64]int64
	// Hits and Misses count lookups for the whole cache.
	hits, misses int64
}

type cachedTable struct {
	// states holds reconstructed snapshots keyed by sequence; the latest is
	// advanced incrementally, older ones serve time-travel reads.
	states map[int64]*TableState
	latest int64
}

// NewSnapshotCache returns an empty cache.
func NewSnapshotCache() *SnapshotCache {
	return &SnapshotCache{tables: make(map[int64]*cachedTable), committed: make(map[int64]int64)}
}

// Get returns the cached snapshot of tableID as of seq, or nil.
func (c *SnapshotCache) Get(tableID, seq int64) *TableState {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[tableID]
	if !ok {
		c.misses++
		return nil
	}
	if seq < 0 {
		seq = t.latest
	}
	s, ok := t.states[seq]
	if !ok {
		c.misses++
		return nil
	}
	c.hits++
	return s.Clone() // callers must not mutate cached state
}

// Put stores a snapshot.
func (c *SnapshotCache) Put(tableID int64, s *TableState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[tableID]
	if !ok {
		t = &cachedTable{states: make(map[int64]*TableState)}
		c.tables[tableID] = t
	}
	t.states[s.LastSeq] = s.Clone()
	if s.LastSeq > t.latest {
		t.latest = s.LastSeq
	}
}

// Advance applies a newly committed manifest to the cached latest snapshot,
// keeping the cache warm without a full replay. Callers advance in commit
// order (core does so under the catalog commit lock). The latest snapshot is
// extended only when it is complete up to the previous commit: a base older
// than that — an old reader's replayed state Put after the table was
// invalidated, say — would yield a state missing the commits in between, so
// the table then waits for the next replay instead. A sequence arriving out
// of order drops the table: states cached for later sequences lack it.
func (c *SnapshotCache) Advance(tableID, seq int64, actions []Action) {
	c.mu.Lock()
	defer c.mu.Unlock()
	prev := c.committed[tableID]
	if seq <= prev {
		delete(c.tables, tableID)
		return
	}
	c.committed[tableID] = seq
	t, ok := c.tables[tableID]
	if !ok {
		return
	}
	base, ok := t.states[t.latest]
	if !ok || t.latest < prev || seq <= t.latest {
		return
	}
	next := base.Clone()
	if err := next.Apply(seq, actions); err != nil {
		// A replay error means the cache is stale relative to storage; drop
		// the table and force reconstruction.
		delete(c.tables, tableID)
		return
	}
	t.states[seq] = next
	t.latest = seq
}

// Invalidate drops all cached snapshots for a table.
func (c *SnapshotCache) Invalidate(tableID int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.tables, tableID)
}

// Rewound drops all cached snapshots for a table whose history the commit at
// seq rewrote (RESTORE deletes Manifests rows), and records seq as the table's
// newest commit: a pre-restore state that a reader with an older snapshot Puts
// afterwards is then never extended by Advance. Like Advance it is called in
// commit order, under the catalog commit lock.
func (c *SnapshotCache) Rewound(tableID, seq int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.tables, tableID)
	if seq > c.committed[tableID] {
		c.committed[tableID] = seq
	}
}

// Trim drops cached snapshots older than keepSeq for a table, bounding
// memory while preserving newer time-travel reads.
func (c *SnapshotCache) Trim(tableID, keepSeq int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[tableID]
	if !ok {
		return
	}
	for seq := range t.states {
		if seq < keepSeq && seq != t.latest {
			delete(t.states, seq)
		}
	}
}

// Stats returns cumulative hit/miss counts.
func (c *SnapshotCache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
