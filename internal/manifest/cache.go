package manifest

import (
	"sync"
)

// SnapshotCache keeps one reconstructed state per table, the newest, warm
// across transactions and advanced incrementally as transactions commit
// (paper 3.2.1). It hands out the state itself: a cached state is published
// and never written (see TableState), so readers share it without copying.
// An older snapshot — a lagging reader's, or an AS OF read's — is not kept;
// it is replayed from the newest checkpoint at or below it. Losing the cache
// never affects correctness: it is rebuilt by replay from the durable
// manifests.
type SnapshotCache struct {
	mu     sync.Mutex
	tables map[int64]*TableState
	// committed is each table's newest sequence passed to Advance or Rewound.
	// It outlives Invalidate: a state older than it is missing commits, however
	// it got into the cache, and must not be extended.
	committed map[int64]int64
	// Hits and Misses count lookups for the whole cache.
	hits, misses int64
}

// NewSnapshotCache returns an empty cache.
func NewSnapshotCache() *SnapshotCache {
	return &SnapshotCache{tables: make(map[int64]*TableState), committed: make(map[int64]int64)}
}

// Get returns the cached state of tableID when it is the snapshot as of seq,
// and nil otherwise. The caller shares the state and must not write it.
func (c *SnapshotCache) Get(tableID, seq int64) *TableState {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.tables[tableID]
	if s == nil || s.LastSeq != seq {
		c.misses++
		return nil
	}
	c.hits++
	return s
}

// Put publishes s as tableID's cached state unless a newer one is cached.
// The cache keeps s itself: the caller must not write it afterwards.
func (c *SnapshotCache) Put(tableID int64, s *TableState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur := c.tables[tableID]; cur == nil || cur.LastSeq <= s.LastSeq {
		c.tables[tableID] = s
	}
}

// Advance applies a newly committed manifest to the cached state, keeping the
// cache warm without a full replay: the cached state's successor replaces it.
// Callers advance in commit order (core does so under the catalog commit
// lock). The state is extended only when it is complete up to the previous
// commit: a base older than that — an old reader's replayed state Put after
// the table was invalidated, say — would yield a state missing the commits in
// between, so the table then waits for the next replay instead. A sequence
// arriving out of order drops the table: a state cached for a later sequence
// lacks it.
func (c *SnapshotCache) Advance(tableID, seq int64, actions []Action) {
	c.mu.Lock()
	defer c.mu.Unlock()
	prev := c.committed[tableID]
	if seq <= prev {
		delete(c.tables, tableID)
		return
	}
	c.committed[tableID] = seq
	base := c.tables[tableID]
	if base == nil || base.LastSeq < prev || seq <= base.LastSeq {
		return
	}
	next, err := base.next(seq, actions)
	if err != nil {
		// A replay error means the cache is stale relative to storage; drop
		// the table and force reconstruction.
		delete(c.tables, tableID)
		return
	}
	c.tables[tableID] = next
}

// Invalidate drops the cached state of a table.
func (c *SnapshotCache) Invalidate(tableID int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.tables, tableID)
}

// Rewound drops the cached state of a table whose history the commit at seq
// rewrote (RESTORE deletes Manifests rows), and records seq as the table's
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

// Stats returns cumulative hit/miss counts.
func (c *SnapshotCache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
