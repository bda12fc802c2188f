// Package catalog implements the SQL-DB substitute that Polaris's SQL FE
// runs transactions against (paper Sections 3.1, 4.1). It is a multi-version
// key-value store with Snapshot Isolation: every user transaction's changes
// to the Manifests and WriteSets system tables run inside one catalog
// transaction, and the catalog's first-committer-wins write-write conflict
// detection is exactly the mechanism the paper's validation phase relies on.
//
// Three isolation modes mirror SQL Server's (paper 4.4.2): Snapshot (the
// default), ReadCommittedSnapshot (each read sees the latest committed
// version), and Serializable (read-set validation on commit).
package catalog

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Errors returned by transaction operations.
var (
	// ErrWriteConflict is the SI first-committer-wins abort: another
	// transaction committed a version of a written key after this
	// transaction's snapshot was taken.
	ErrWriteConflict = errors.New("catalog: snapshot write-write conflict")
	// ErrReadConflict is the serializable-mode abort: a key (or key range)
	// this transaction read was changed by a concurrent committer.
	ErrReadConflict = errors.New("catalog: serializable read conflict")
	// ErrTxDone is returned when using a committed or aborted transaction.
	ErrTxDone = errors.New("catalog: transaction already finished")
	// ErrNotFound is returned by Get for missing keys.
	ErrNotFound = errors.New("catalog: key not found")
)

// IsWriteConflict reports whether err is an SI write-write conflict abort —
// the retryable failure mode of optimistic transactions.
func IsWriteConflict(err error) bool { return errors.Is(err, ErrWriteConflict) }

// IsolationLevel selects the transaction's isolation mode.
type IsolationLevel int

// Isolation levels.
const (
	Snapshot IsolationLevel = iota
	ReadCommittedSnapshot
	Serializable
)

func (l IsolationLevel) String() string {
	switch l {
	case Snapshot:
		return "snapshot"
	case ReadCommittedSnapshot:
		return "read-committed-snapshot"
	case Serializable:
		return "serializable"
	default:
		return fmt.Sprintf("isolation(%d)", int(l))
	}
}

type version struct {
	seq     int64 // commit sequence that installed it
	value   any
	deleted bool
}

type record struct {
	versions []version // ascending seq
}

func (r *record) visible(seq int64) (any, bool) {
	for i := len(r.versions) - 1; i >= 0; i-- {
		v := r.versions[i]
		if v.seq <= seq {
			if v.deleted {
				return nil, false
			}
			return v.value, true
		}
	}
	return nil, false
}

func (r *record) latestSeq() int64 {
	if len(r.versions) == 0 {
		return 0
	}
	return r.versions[len(r.versions)-1].seq
}

// DB is the multi-version catalog store. The zero value is not usable; call
// NewDB.
type DB struct {
	mu      sync.RWMutex
	records map[string]*record
	index   keyIndex // the keys of records, for prefix scans

	// commitMu is the paper's "commit lock ... to ensure a serializable
	// order for the transaction to be committed" (4.1.2 step 2). It also
	// serializes sequence-number allocation with commit ordering.
	commitMu sync.Mutex
	// seq is the last assigned commit sequence (Manifests.SequenceID), the
	// catalog's one commit counter: a snapshot is the sequence it reads at.
	// Commit moves it under both locks, so either lock reads it.
	seq int64

	stats Stats
}

// Stats counts catalog activity.
type Stats struct {
	Begun, Committed, Aborted int64
	WriteConflicts            int64
	ReadConflicts             int64
}

// NewDB creates an empty catalog database.
func NewDB() *DB {
	return &DB{records: make(map[string]*record), index: newKeyIndex()}
}

// Begin starts a transaction at the current snapshot.
func (db *DB) Begin(level IsolationLevel) *Tx {
	db.mu.Lock()
	start := db.seq
	db.stats.Begun++
	db.mu.Unlock()
	return &Tx{
		db:       db,
		level:    level,
		startSeq: start,
		writes:   make(map[string]writeOp),
		reads:    make(map[string]struct{}),
	}
}

// CurrentSeq returns the last assigned commit sequence (the current snapshot
// edge).
func (db *DB) CurrentSeq() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.seq
}

// Stats returns a copy of cumulative statistics.
func (db *DB) Stats() Stats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.stats
}

type writeOp struct {
	value   any
	deleted bool
}

// Tx is a catalog transaction. It is not safe for concurrent use by multiple
// goroutines; Polaris runs the root transaction single-threaded in the FE.
type Tx struct {
	db       *DB
	level    IsolationLevel
	startSeq int64
	writes   map[string]writeOp
	reads    map[string]struct{} // serializable read-set
	scans    []string            // serializable scanned prefixes
	// deferred writes are materialized under the commit lock once the commit
	// sequence is known — the paper's "insert transaction manifest into the
	// Manifests table" happens here (4.1.2 step 3), because the Manifests row
	// is keyed by the sequence assigned at commit.
	deferred []func(seq int64) []KV
	done     bool

	// commitSeq is populated on successful commit: the logical sequence
	// assigned under the commit lock.
	commitSeq int64
}

func (tx *Tx) readSeq() int64 {
	if tx.level == ReadCommittedSnapshot {
		return tx.db.CurrentSeq() // each read sees latest committed
	}
	return tx.startSeq
}

// CommitSeq returns the sequence assigned at commit (0 before commit).
func (tx *Tx) CommitSeq() int64 { return tx.commitSeq }

// Get returns the value of key visible to this transaction, honoring its own
// uncommitted writes first.
func (tx *Tx) Get(key string) (any, error) {
	if tx.done {
		return nil, ErrTxDone
	}
	if w, ok := tx.writes[key]; ok {
		if w.deleted {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
		}
		return w.value, nil
	}
	if tx.level == Serializable {
		tx.reads[key] = struct{}{}
	}
	tx.db.mu.RLock()
	defer tx.db.mu.RUnlock()
	r, ok := tx.db.records[key]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	v, ok := r.visible(tx.readSeq())
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	return v, nil
}

// Exists reports whether key is visible to this transaction.
func (tx *Tx) Exists(key string) bool {
	_, err := tx.Get(key)
	return err == nil
}

// Put buffers a write. Values must be treated as immutable once passed in.
func (tx *Tx) Put(key string, value any) error {
	if tx.done {
		return ErrTxDone
	}
	tx.writes[key] = writeOp{value: value}
	return nil
}

// Delete buffers a deletion.
func (tx *Tx) Delete(key string) error {
	if tx.done {
		return ErrTxDone
	}
	tx.writes[key] = writeOp{deleted: true}
	return nil
}

// KV is one key-value pair returned by Scan.
type KV struct {
	Key   string
	Value any
}

// Scan returns all visible pairs with the given prefix, sorted by key,
// overlaid with the transaction's own writes. It visits only the keys under
// the prefix.
func (tx *Tx) Scan(prefix string) ([]KV, error) {
	if tx.done {
		return nil, ErrTxDone
	}
	tx.readRange(prefix)
	readSeq := tx.readSeq()
	out := []KV{}
	runs := 0
	tx.db.mu.RLock()
	tx.db.index.each(prefix, func(run []indexEntry) {
		runs++
		for _, e := range run {
			if _, own := tx.writes[e.key]; own {
				continue
			}
			if v, ok := e.rec.visible(readSeq); ok {
				out = append(out, KV{Key: e.key, Value: v})
			}
		}
	})
	tx.db.mu.RUnlock()
	sorted := runs <= 1
	for key, w := range tx.writes {
		if !w.deleted && strings.HasPrefix(key, prefix) {
			out = append(out, KV{Key: key, Value: w.value})
			sorted = false
		}
	}
	if !sorted {
		sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	}
	return out, nil
}

// Last returns the visible pair with the greatest key under prefix that is
// at most upTo (any key when upTo is empty), overlaid with the transaction's
// own writes, and ok=false when there is none. It reads like a Scan of the
// prefix, but walks each directory's keys down from upTo and stops at the
// first visible one.
func (tx *Tx) Last(prefix, upTo string) (kv KV, ok bool, err error) {
	if tx.done {
		return KV{}, false, ErrTxDone
	}
	tx.readRange(prefix)
	inRange := func(key string) bool { return upTo == "" || key <= upTo }
	for key, w := range tx.writes {
		if !w.deleted && strings.HasPrefix(key, prefix) && inRange(key) && (!ok || key > kv.Key) {
			kv, ok = KV{Key: key, Value: w.value}, true
		}
	}
	readSeq := tx.readSeq()
	tx.db.mu.RLock()
	defer tx.db.mu.RUnlock()
	tx.db.index.each(prefix, func(run []indexEntry) {
		i := len(run)
		if upTo != "" {
			i = sort.Search(len(run), func(j int) bool { return run[j].key > upTo })
		}
		for i--; i >= 0 && (!ok || run[i].key > kv.Key); i-- {
			e := run[i]
			if _, own := tx.writes[e.key]; own {
				continue
			}
			if v, vis := e.rec.visible(readSeq); vis {
				kv, ok = KV{Key: e.key, Value: v}, true
				return
			}
		}
	})
	return kv, ok, nil
}

// readRange records a scanned prefix in a serializable transaction's read
// set: a commit under it by another transaction fails this one's validation.
func (tx *Tx) readRange(prefix string) {
	if tx.level == Serializable {
		tx.scans = append(tx.scans, prefix)
	}
}

// DeferWithSeq registers a function producing writes that are installed
// atomically with the commit, after the commit sequence is assigned. The
// produced keys must be fresh (commonly keyed by the sequence itself), as
// they bypass conflict validation.
func (tx *Tx) DeferWithSeq(f func(seq int64) []KV) {
	tx.deferred = append(tx.deferred, f)
}

// Commit runs the validation phase and installs the transaction's writes.
// On success the transaction's CommitSeq is set, assigned under the commit
// lock, so sequence order is commit order.
func (tx *Tx) Commit() error {
	if tx.done {
		return ErrTxDone
	}
	tx.done = true
	db := tx.db
	if len(tx.writes) == 0 && len(tx.deferred) == 0 && tx.level != Serializable {
		db.mu.Lock()
		db.stats.Committed++
		db.mu.Unlock()
		return nil
	}
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	db.mu.Lock()
	defer db.mu.Unlock()

	// First-committer-wins: any committed version of a written key newer
	// than our snapshot aborts the transaction (paper 4.1.2 step 4).
	for key := range tx.writes {
		if r, ok := db.records[key]; ok && r.latestSeq() > tx.startSeq {
			db.stats.WriteConflicts++
			db.stats.Aborted++
			return fmt.Errorf("%w: key %s", ErrWriteConflict, key)
		}
	}
	if tx.level == Serializable {
		for key := range tx.reads {
			if r, ok := db.records[key]; ok && r.latestSeq() > tx.startSeq {
				db.stats.ReadConflicts++
				db.stats.Aborted++
				return fmt.Errorf("%w: key %s", ErrReadConflict, key)
			}
		}
		for _, prefix := range tx.scans {
			changed := false
			db.index.each(prefix, func(run []indexEntry) {
				for i := 0; i < len(run) && !changed; i++ {
					changed = run[i].rec.latestSeq() > tx.startSeq
				}
			})
			if changed {
				db.stats.ReadConflicts++
				db.stats.Aborted++
				return fmt.Errorf("%w: range %s*", ErrReadConflict, prefix)
			}
		}
	}

	db.seq++
	tx.commitSeq = db.seq
	for key, w := range tx.writes {
		db.install(key, version{seq: tx.commitSeq, value: w.value, deleted: w.deleted})
	}
	for _, f := range tx.deferred {
		for _, kv := range f(tx.commitSeq) {
			db.install(kv.Key, version{seq: tx.commitSeq, value: kv.Value})
		}
	}
	db.stats.Committed++
	return nil
}

// install appends a committed version to key's record, creating and
// indexing the record for a new key. The caller holds db.mu.
func (db *DB) install(key string, v version) {
	r, ok := db.records[key]
	if !ok {
		r = &record{}
		db.records[key] = r
		db.index.insert(key, r)
	}
	r.versions = append(r.versions, v)
}

// Rollback abandons the transaction. Safe to call after Commit (no-op).
func (tx *Tx) Rollback() {
	if tx.done {
		return
	}
	tx.done = true
	tx.db.mu.Lock()
	tx.db.stats.Aborted++
	tx.db.mu.Unlock()
}

// CompactVersions drops versions that are no longer visible to any snapshot
// at or after sequence minSeq, keeping at least the newest version per key.
// Mirrors SQL Server's version-store cleanup.
func (db *DB) CompactVersions(minSeq int64) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	dropped := 0
	for key, r := range db.records {
		// find newest version with seq <= minSeq; older ones are dead
		cut := -1
		for i := len(r.versions) - 1; i >= 0; i-- {
			if r.versions[i].seq <= minSeq {
				cut = i
				break
			}
		}
		if cut > 0 {
			dropped += cut
			r.versions = append([]version(nil), r.versions[cut:]...)
		}
		if len(r.versions) == 1 && r.versions[0].deleted && r.versions[0].seq <= minSeq {
			delete(db.records, key)
			db.index.remove(key)
		}
	}
	return dropped
}
