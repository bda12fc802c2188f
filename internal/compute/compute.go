// Package compute simulates the elastic compute fabric Polaris runs on
// (paper Sections 1, 3.3): a topology of compute servers, each with CPU
// slots, an in-memory hot cache and an SSD cache over remote storage. The
// fabric supports elastic (unbounded, cost-based) and bounded (fixed
// capacity) allocation so the Fig. 8 experiment can compare both models.
//
// All timing is *simulated*: operations return the duration they would take
// on datacenter hardware according to a calibrated cost model, while actually
// executing at laptop scale. Benchmarks report simulated time, which is what
// makes the paper's figure shapes reproducible without the paper's testbed.
package compute

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"polaris/internal/colfile"
	"polaris/internal/objectstore"
)

// CostModel holds the calibrated constants that translate work into
// simulated time. The defaults approximate cloud warehouse hardware:
// remote object storage ~8ms first byte + 200MB/s per stream, SSD ~10x
// faster, memory ~100x, and a fixed per-task scheduling overhead.
type CostModel struct {
	RemoteBaseLatency time.Duration
	RemoteBytesPerSec float64
	SSDBytesPerSec    float64
	MemBytesPerSec    float64
	// RowCPUCost is the simulated CPU time to process one row through one
	// operator.
	RowCPUCost time.Duration
	// TaskOverhead is per-task scheduling/startup cost.
	TaskOverhead time.Duration
	// ProvisionDelay is the time to add a node to the topology.
	ProvisionDelay time.Duration
}

// DefaultCostModel returns the calibrated constants used by the benchmarks.
func DefaultCostModel() *CostModel {
	return &CostModel{
		RemoteBaseLatency: 8 * time.Millisecond,
		RemoteBytesPerSec: 200e6,
		SSDBytesPerSec:    2e9,
		MemBytesPerSec:    20e9,
		RowCPUCost:        120 * time.Nanosecond,
		TaskOverhead:      15 * time.Millisecond,
		ProvisionDelay:    2 * time.Second,
	}
}

// RemoteRead returns the simulated duration of reading n bytes from remote
// storage.
func (c *CostModel) RemoteRead(n int64) time.Duration {
	return c.RemoteBaseLatency + time.Duration(float64(n)/c.RemoteBytesPerSec*float64(time.Second))
}

// SSDRead returns the simulated duration of reading n bytes from local SSD.
func (c *CostModel) SSDRead(n int64) time.Duration {
	return time.Duration(float64(n) / c.SSDBytesPerSec * float64(time.Second))
}

// MemRead returns the simulated duration of reading n bytes from memory.
func (c *CostModel) MemRead(n int64) time.Duration {
	return time.Duration(float64(n) / c.MemBytesPerSec * float64(time.Second))
}

// RemoteWrite returns the simulated duration of writing n bytes to remote
// storage.
func (c *CostModel) RemoteWrite(n int64) time.Duration {
	return c.RemoteBaseLatency + time.Duration(float64(n)/c.RemoteBytesPerSec*float64(time.Second))
}

// CPU returns the simulated duration of processing rows through an operator.
func (c *CostModel) CPU(rows int64) time.Duration {
	return time.Duration(rows) * c.RowCPUCost
}

// CacheStats counts cache effectiveness per node.
type CacheStats struct {
	MemHits, SSDHits, Misses int64
	// FooterParses counts OpenFile calls that had to parse the file's footer
	// because no parsed reader was cached beside its bytes.
	FooterParses int64
	// ChunkDecodes counts the column chunks the node's cached readers have
	// inflated and decoded. A warm statement adds none: a chunk is decoded
	// once per cached copy of its file.
	ChunkDecodes    int64
	BytesFromRemote int64
}

// Node is one compute server: an Execution Service + SQL Server instance in
// the paper's architecture. Caches are write-through over the object store;
// losing a node never loses state (paper 3.3).
type Node struct {
	ID    int
	Slots int // concurrent task capacity

	mu       sync.Mutex
	alive    bool
	memCache *lru
	ssdCache *lru
	stats    CacheStats

	model *CostModel
}

// NewNode creates a node with the given cache capacities in bytes.
func NewNode(id, slots int, memBytes, ssdBytes int64, model *CostModel) *Node {
	return &Node{
		ID: id, Slots: slots, alive: true,
		memCache: newLRU(memBytes),
		ssdCache: newLRU(ssdBytes),
		model:    model,
	}
}

// Alive reports whether the node is in the topology.
func (n *Node) Alive() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.alive
}

// Kill removes the node from the topology, dropping its caches. In-flight
// tasks on a killed node fail and are retried elsewhere by the DCP.
func (n *Node) Kill() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.alive = false
	n.memCache.clear()
	n.ssdCache.clear()
}

// Revive returns a node to the topology with cold caches.
func (n *Node) Revive() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.alive = true
}

// Stats returns a copy of the node's cache statistics.
func (n *Node) Stats() CacheStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := n.stats
	st.ChunkDecodes = n.memCache.chunkDecodes()
	return st
}

// ReadFile reads a blob through the node's cache hierarchy, returning the
// data and the simulated time the read would take. Immutability of committed
// files (paper Section 4) is what makes this cache trivially coherent: a
// cached path never changes, so invalidation is never needed.
func (n *Node) ReadFile(store *objectstore.Store, path string) ([]byte, time.Duration, error) {
	data, _, d, err := n.read(store, path)
	return data, d, err
}

// OpenFile is ReadFile for a sealed data file: it returns the file opened for
// reading. The same immutability extends the cache from the bytes to what is
// derived from them: the parsed reader — and with it every column chunk the
// reader has decoded — is kept on the memory-cache entry beside the bytes it
// was parsed from and lives exactly as long as they do: eviction, Kill,
// InvalidateCached and an overwrite drop all three. So a file's footer is
// parsed and each of its chunks decoded once per cached copy, however many
// statements and sessions read it; they share the reader and its vectors,
// which are read-only. The entry counts against the memory tier's capacity
// for its bytes plus what the reader retains, as of the entry's last touch.
// A file that fails to open is an error on every call; nothing is kept for it.
func (n *Node) OpenFile(store *objectstore.Store, path string) (*colfile.Reader, time.Duration, error) {
	data, r, d, err := n.read(store, path)
	if err != nil || r != nil {
		return r, d, err
	}
	// Parsed outside the lock, like the remote Get of a miss: openers racing
	// on a cold entry may each parse, and all leave with the first attached.
	if r, err = colfile.OpenReader(data); err != nil {
		return nil, 0, fmt.Errorf("compute: open %s: %w", path, err)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stats.FooterParses++
	// Attach only to the bytes that were parsed: the entry may have been
	// evicted or overwritten meanwhile (a sealed file is never empty).
	if e := n.memCache.entries[path]; e != nil && len(e.data) == len(data) && &e.data[0] == &data[0] {
		if e.reader != nil {
			return e.reader, d, nil
		}
		e.reader = r
		n.memCache.recharge(e)
	}
	return r, d, nil
}

// read is the cache walk behind ReadFile and OpenFile; r is the parsed reader
// cached beside the bytes, nil when there is none yet.
func (n *Node) read(store *objectstore.Store, path string) (data []byte, r *colfile.Reader, d time.Duration, err error) {
	n.mu.Lock()
	if e := n.memCache.get(path); e != nil {
		n.stats.MemHits++
		data, r = e.data, e.reader
		n.mu.Unlock()
		return data, r, n.model.MemRead(int64(len(data))), nil
	}
	if e := n.ssdCache.get(path); e != nil {
		n.stats.SSDHits++
		data = e.data
		n.memCache.put(path, data)
		n.mu.Unlock()
		return data, nil, n.model.SSDRead(int64(len(data))), nil
	}
	n.stats.Misses++
	n.mu.Unlock()

	data, err = store.Get(path)
	if err != nil {
		return nil, nil, 0, err
	}
	n.mu.Lock()
	n.stats.BytesFromRemote += int64(len(data))
	if e := n.memCache.get(path); e != nil {
		// A racing miss cached the path first: keep its copy, so that
		// concurrent cold openers end up sharing one reader.
		data, r = e.data, e.reader
	} else {
		n.memCache.put(path, data)
		n.ssdCache.put(path, data)
	}
	n.mu.Unlock()
	return data, r, n.model.RemoteRead(int64(len(data))), nil
}

// WriteFile writes a blob to remote storage (write-through: the new file is
// also warm in this node's cache) and returns simulated duration.
func (n *Node) WriteFile(store *objectstore.Store, path string, data []byte, creatorStamp int64) (time.Duration, error) {
	if err := store.Put(path, data, creatorStamp); err != nil {
		return 0, err
	}
	n.mu.Lock()
	n.memCache.put(path, data)
	n.ssdCache.put(path, data)
	n.mu.Unlock()
	return n.model.RemoteWrite(int64(len(data))), nil
}

// InvalidateCached drops a path from this node's caches (used when a file is
// garbage-collected; committed files are otherwise immutable).
func (n *Node) InvalidateCached(path string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.memCache.remove(path)
	n.ssdCache.remove(path)
}

// lru is a byte-capacity-bounded cache.
type lru struct {
	capacity int64
	used     int64 // sum of the entries' charges
	entries  map[string]*lruEntry
	head     *lruEntry // most recent
	tail     *lruEntry // least recent
	// retiredDecodes sums ChunkDecodes of the readers that have left.
	retiredDecodes int64
}

type lruEntry struct {
	key  string
	data []byte
	// reader is data opened as a sealed colfile (Node.OpenFile), holding the
	// parsed footer and the chunks decoded so far; it is dropped with the
	// entry and whenever data is replaced.
	reader *colfile.Reader
	// charge is what the entry counts against the capacity: len(data) plus
	// what reader retained when the entry was last touched. Decoding goes on
	// after the touch, so the charge trails it by one use of the entry.
	charge     int64
	prev, next *lruEntry
}

func newLRU(capacity int64) *lru {
	return &lru{capacity: capacity, entries: make(map[string]*lruEntry)}
}

// get returns the entry for key, marking it most recently used and bringing
// its charge up to date; nil on a miss. The charge may have outgrown the
// cache, in which case the entry returned is no longer in it.
func (l *lru) get(key string) *lruEntry {
	e, ok := l.entries[key]
	if !ok {
		return nil
	}
	l.moveToFront(e)
	l.recharge(e)
	return e
}

// recharge re-reads what e's reader retains and evicts until the cache fits
// again: e itself when it alone exceeds the capacity (whoever holds its bytes
// and reader keeps them), least recently used entries otherwise.
func (l *lru) recharge(e *lruEntry) {
	charge := int64(len(e.data))
	if e.reader != nil {
		charge += e.reader.Retained()
	}
	l.used += charge - e.charge
	e.charge = charge
	if charge > l.capacity {
		l.evict(e)
	}
	for l.used > l.capacity && l.tail != nil {
		l.evict(l.tail)
	}
}

// put caches data under key, replacing what the key held. A blob larger than
// the whole cache is not kept — and neither is what it replaces.
func (l *lru) put(key string, data []byte) {
	e, ok := l.entries[key]
	if !ok {
		e = &lruEntry{key: key}
		l.entries[key] = e
		l.pushFront(e)
	} else {
		l.retireReader(e)
		l.moveToFront(e)
	}
	e.data, e.reader = data, nil
	l.recharge(e)
}

func (l *lru) remove(key string) {
	if e, ok := l.entries[key]; ok {
		l.evict(e)
	}
}

func (l *lru) clear() {
	for _, e := range l.entries {
		l.retireReader(e)
	}
	l.entries = make(map[string]*lruEntry)
	l.head, l.tail, l.used = nil, nil, 0
}

func (l *lru) evict(e *lruEntry) {
	l.unlink(e)
	delete(l.entries, e.key)
	l.used -= e.charge
	l.retireReader(e)
}

// retireReader keeps the decode count of a reader that is leaving the cache,
// with its entry or because the entry's data is being replaced.
func (l *lru) retireReader(e *lruEntry) {
	if e.reader != nil {
		l.retiredDecodes += e.reader.ChunkDecodes()
	}
}

// chunkDecodes sums ChunkDecodes over every reader the cache holds or held.
func (l *lru) chunkDecodes() int64 {
	n := l.retiredDecodes
	for _, e := range l.entries {
		if e.reader != nil {
			n += e.reader.ChunkDecodes()
		}
	}
	return n
}

func (l *lru) pushFront(e *lruEntry) {
	e.prev = nil
	e.next = l.head
	if l.head != nil {
		l.head.prev = e
	}
	l.head = e
	if l.tail == nil {
		l.tail = e
	}
}

func (l *lru) unlink(e *lruEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (l *lru) moveToFront(e *lruEntry) {
	l.unlink(e)
	l.pushFront(e)
}

// Fabric manages the node topology. In elastic mode (Fabric DW / serverless)
// the pool grows to whatever a job's cost-based estimate requires; in bounded
// mode (Synapse SQL DW gen2) the pool is capped, and oversized jobs queue on
// fewer resources (Fig. 8).
type Fabric struct {
	mu       sync.Mutex
	nodes    []*Node
	nextID   int
	elastic  bool
	maxNodes int
	model    *CostModel

	memBytes, ssdBytes int64
	slots              int
	provisioned        int // nodes ever provisioned (elasticity metric)
	leasedSlots        int // slots currently leased for intra-query parallelism
	waiters            []*slotWaiter
}

// slotWaiter is one queued LeaseSlotsCtx call: granted leases arrive on ch
// (buffered so the granter never blocks), and a waiter that gives up removes
// itself from the queue under f.mu before returning.
type slotWaiter struct {
	want int
	ch   chan *SlotLease
}

// Config configures a Fabric.
type Config struct {
	Elastic   bool
	MaxNodes  int // cap in bounded mode; ignored when Elastic
	InitNodes int
	SlotsPer  int
	MemBytes  int64
	SSDBytes  int64
	Model     *CostModel
}

// NewFabric creates a fabric with the initial topology.
func NewFabric(cfg Config) *Fabric {
	if cfg.Model == nil {
		cfg.Model = DefaultCostModel()
	}
	if cfg.SlotsPer == 0 {
		cfg.SlotsPer = 4
	}
	if cfg.MemBytes == 0 {
		cfg.MemBytes = 1 << 28
	}
	if cfg.SSDBytes == 0 {
		cfg.SSDBytes = 1 << 31
	}
	f := &Fabric{
		elastic: cfg.Elastic, maxNodes: cfg.MaxNodes, model: cfg.Model,
		memBytes: cfg.MemBytes, ssdBytes: cfg.SSDBytes, slots: cfg.SlotsPer,
	}
	for i := 0; i < cfg.InitNodes; i++ {
		f.addNodeLocked()
	}
	return f
}

func (f *Fabric) addNodeLocked() *Node {
	n := NewNode(f.nextID, f.slots, f.memBytes, f.ssdBytes, f.model)
	f.nextID++
	f.nodes = append(f.nodes, n)
	f.provisioned++
	return n
}

// Model returns the fabric's cost model.
func (f *Fabric) Model() *CostModel { return f.model }

// Nodes returns the live nodes.
func (f *Fabric) Nodes() []*Node {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*Node, 0, len(f.nodes))
	for _, n := range f.nodes {
		if n.Alive() {
			out = append(out, n)
		}
	}
	return out
}

// Size returns the number of live nodes.
func (f *Fabric) Size() int { return len(f.Nodes()) }

// Provisioned returns how many nodes were ever added (elasticity metric).
func (f *Fabric) Provisioned() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.provisioned
}

// AllocateForJob sizes the topology for a job needing `want` parallel units
// and returns the nodes to use plus the simulated provisioning delay. In
// elastic mode the fabric grows to ceil(want/slots) nodes; in bounded mode it
// grows at most to MaxNodes.
func (f *Fabric) AllocateForJob(want int) ([]*Node, time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	needNodes := (want + f.slots - 1) / f.slots
	if needNodes < 1 {
		needNodes = 1
	}
	if !f.elastic && f.maxNodes > 0 && needNodes > f.maxNodes {
		needNodes = f.maxNodes
	}
	var added int
	for f.liveCountLocked() < needNodes {
		f.addNodeLocked()
		added++
	}
	var delay time.Duration
	if added > 0 {
		// provisioning proceeds in parallel; one delay covers the batch
		delay = f.model.ProvisionDelay
		// growth frees capacity: queued lease waiters can now be admitted
		f.wakeWaitersLocked()
	}
	live := make([]*Node, 0, needNodes)
	for _, n := range f.nodes {
		if n.Alive() {
			live = append(live, n)
			if len(live) == needNodes {
				break
			}
		}
	}
	return live, delay
}

func (f *Fabric) liveCountLocked() int {
	c := 0
	for _, n := range f.nodes {
		if n.Alive() {
			c++
		}
	}
	return c
}

// TotalSlots returns the total task-slot capacity across live nodes.
func (f *Fabric) TotalSlots() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.totalSlotsLocked()
}

func (f *Fabric) totalSlotsLocked() int {
	total := 0
	for _, n := range f.nodes {
		if n.Alive() {
			total += n.Slots
		}
	}
	return total
}

// SlotLease is a reservation of compute slots for intra-query parallelism
// (the morsel-driven executor's worker pool). Release returns the slots to
// the fabric; it is idempotent.
type SlotLease struct {
	f        *Fabric
	n        int
	released bool
	mu       sync.Mutex
}

// Granted returns how many slots the lease holds.
func (l *SlotLease) Granted() int { return l.n }

// Release returns the leased slots to the fabric.
func (l *SlotLease) Release() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.released {
		return
	}
	l.released = true
	l.f.mu.Lock()
	l.f.leasedSlots -= l.n
	l.f.wakeWaitersLocked()
	l.f.mu.Unlock()
}

// LeaseSlots reserves up to `want` slots for a query's worker pool, bounded
// by the slots not already leased by concurrent queries. A query always gets
// at least one slot (it degrades to serial execution rather than blocking),
// so leasing never deadlocks. The lease is accounting only: it sizes worker
// pools, it does not pin tasks to particular nodes.
func (f *Fabric) LeaseSlots(want int) *SlotLease {
	if want < 1 {
		want = 1
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	free := f.totalSlotsLocked() - f.leasedSlots
	grant := want
	if grant > free {
		grant = free
	}
	if grant < 1 {
		grant = 1
	}
	f.leasedSlots += grant
	return &SlotLease{f: f, n: grant}
}

// LeasedSlots reports how many slots are currently leased.
func (f *Fabric) LeasedSlots() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.leasedSlots
}

// FreeSlots reports the slots not currently leased. It can be negative:
// LeaseSlots always grants at least one slot, so heavy contention may
// over-subscribe the fabric (queries degrade rather than deadlock).
func (f *Fabric) FreeSlots() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.totalSlotsLocked() - f.leasedSlots
}

// QueuedLeases reports how many LeaseSlotsCtx calls are waiting for slots.
func (f *Fabric) QueuedLeases() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.waiters)
}

// ErrQueueFull is returned by LeaseSlotsCtx when the fabric has no free
// slots and the waiter queue is already at its configured depth.
var ErrQueueFull = errors.New("compute: lease queue full")

// LeaseSlotsCtx is the admission-control variant of LeaseSlots: when the
// fabric has free slots (and no earlier waiter is queued) it grants
// min(want, free) immediately, exactly like LeaseSlots except that it never
// over-subscribes. When leases have run dry the call joins a FIFO waiter
// queue and blocks until a release (or topology growth) frees slots, the
// context is canceled, or its deadline expires. maxQueued bounds the queue:
// a call arriving when maxQueued waiters are already queued fails fast with
// ErrQueueFull (maxQueued < 0 means unbounded, 0 means never queue).
//
// The returned queued flag reports whether the call had to wait, on success
// and failure alike, so callers can count queueing separately from grants.
func (f *Fabric) LeaseSlotsCtx(ctx context.Context, want, maxQueued int) (lease *SlotLease, queued bool, err error) {
	if want < 1 {
		want = 1
	}
	f.mu.Lock()
	if len(f.waiters) == 0 {
		if free := f.totalSlotsLocked() - f.leasedSlots; free > 0 {
			grant := min(want, free)
			f.leasedSlots += grant
			f.mu.Unlock()
			return &SlotLease{f: f, n: grant}, false, nil
		}
	}
	if maxQueued >= 0 && len(f.waiters) >= maxQueued {
		f.mu.Unlock()
		return nil, false, ErrQueueFull
	}
	w := &slotWaiter{want: want, ch: make(chan *SlotLease, 1)}
	f.waiters = append(f.waiters, w)
	f.mu.Unlock()

	select {
	case l := <-w.ch:
		return l, true, nil
	case <-ctx.Done():
		f.mu.Lock()
		for i, x := range f.waiters {
			if x == w {
				f.waiters = append(f.waiters[:i], f.waiters[i+1:]...)
				break
			}
		}
		f.mu.Unlock()
		// A grant may have raced ahead of the dequeue (wakeWaitersLocked
		// sends under f.mu, so after the removal above either the lease is
		// already in ch or it will never arrive): hand it straight back.
		select {
		case l := <-w.ch:
			l.Release()
		default:
		}
		return nil, true, ctx.Err()
	}
}

// wakeWaitersLocked grants slots to queued waiters in FIFO order while free
// slots remain. Callers hold f.mu; the grant channel is buffered so the send
// never blocks under the lock.
func (f *Fabric) wakeWaitersLocked() {
	for len(f.waiters) > 0 {
		free := f.totalSlotsLocked() - f.leasedSlots
		if free < 1 {
			return
		}
		w := f.waiters[0]
		f.waiters = f.waiters[1:]
		grant := min(w.want, free)
		f.leasedSlots += grant
		w.ch <- &SlotLease{f: f, n: grant}
	}
}

// KillNode removes node id from the topology; returns false if unknown.
func (f *Fabric) KillNode(id int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, n := range f.nodes {
		if n.ID == id && n.Alive() {
			n.Kill()
			return true
		}
	}
	return false
}

// String summarizes the topology.
func (f *Fabric) String() string {
	mode := "bounded"
	if f.elastic {
		mode = "elastic"
	}
	return fmt.Sprintf("fabric{%s, live=%d, provisioned=%d}", mode, f.Size(), f.Provisioned())
}
