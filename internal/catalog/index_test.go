package catalog

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// Keys and prefixes for FuzzCatalogIndex: the system tables' directories
// (table 1's and 2's Manifests rows, a checkpoint, write sets whose data file
// paths hold slashes of their own), plus keys that sit in a parent directory
// of others, keys with no slash, and prefixes that end inside a key's last
// segment, at a directory, and above several.
var (
	indexKeys = []string{
		"a", "ab", "a/b", "a/bc", "a/b/c", "a/b/c/d", "a/b/", "meta/id/1", "meta/name/t",
		"checkpoints/0000000000000001/0000000000000004",
		"writesets/f/0000000000000001/tables/1/data/x.pcf",
		"writesets/f/0000000000000001/tables/1/data/y.pcf",
		"writesets/t/0000000000000001",
	}
	indexPrefixes = []string{
		"", "a", "a/", "a/b", "a/b/", "a/b/c", "ab", "m", "meta/", "manifests/",
		"manifests/0000000000000001/", "manifests/0000000000000001/00000000000000",
		"manifests/0000000000000002/", "checkpoints/", "writesets/f/0000000000000001/",
		"writesets/f/0000000000000001/tables/1/data/x", "zz",
	}
)

// bruteScan is Tx.Scan without the index: a walk of every record, the
// transaction's own writes overlaid, sorted by key.
func bruteScan(tx *Tx, prefix string) []KV {
	readSeq := tx.readSeq()
	merged := map[string]any{}
	tx.db.mu.RLock()
	for key, r := range tx.db.records {
		if v, ok := r.visible(readSeq); ok && strings.HasPrefix(key, prefix) {
			merged[key] = v
		}
	}
	tx.db.mu.RUnlock()
	for key, w := range tx.writes {
		switch {
		case !strings.HasPrefix(key, prefix):
		case w.deleted:
			delete(merged, key)
		default:
			merged[key] = w.value
		}
	}
	out := []KV{}
	for k, v := range merged {
		out = append(out, KV{Key: k, Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// bruteConflict is Commit's validation without the index: the error class
// the commit must fail with, or nil.
func bruteConflict(tx *Tx) error {
	db := tx.db
	if len(tx.writes) == 0 && len(tx.deferred) == 0 && tx.level != Serializable {
		return nil
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	newer := func(key string) bool { r, ok := db.records[key]; return ok && r.latestSeq() > tx.startSeq }
	for key := range tx.writes {
		if newer(key) {
			return ErrWriteConflict
		}
	}
	if tx.level != Serializable {
		return nil
	}
	for key := range tx.reads {
		if newer(key) {
			return ErrReadConflict
		}
	}
	for _, prefix := range tx.scans {
		for key := range db.records {
			if strings.HasPrefix(key, prefix) && newer(key) {
				return ErrReadConflict
			}
		}
	}
	return nil
}

// checkIndex compares every read the index serves to its brute-force walk,
// for one open transaction, and restores the transaction's serializable read
// set afterwards so the checks do not change what its commit validates.
func checkIndex(t *testing.T, tx *Tx) {
	t.Helper()
	scans, reads := tx.scans, len(tx.reads)
	defer func() { tx.scans = scans }()
	for _, prefix := range indexPrefixes {
		got, err := tx.Scan(prefix)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteScan(tx, prefix)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Scan(%q) = %v, brute force %v", prefix, got, want)
		}
		for _, upTo := range []string{"", "a/b", "manifests/0000000000000001/0000000000000003", "zz"} {
			kv, ok, err := tx.Last(prefix, upTo)
			if err != nil {
				t.Fatal(err)
			}
			var wantKV KV
			wantOK := false
			for _, c := range want {
				if upTo == "" || c.Key <= upTo {
					wantKV, wantOK = c, true
				}
			}
			if ok != wantOK || !reflect.DeepEqual(kv, wantKV) {
				t.Fatalf("Last(%q, %q) = %v %v, brute force %v %v", prefix, upTo, kv, ok, wantKV, wantOK)
			}
		}
	}
	for table := int64(1); table <= 2; table++ {
		for _, asOf := range []int64{-1, 0, 2, 3, 7} {
			got, err := LatestManifestSeq(tx, table, asOf)
			if err != nil {
				t.Fatal(err)
			}
			var want int64
			for _, kv := range bruteScan(tx, keyManifestPrefix(table)) {
				if row := kv.Value.(ManifestRow); (asOf < 0 || row.Seq <= asOf) && row.Seq > want {
					want = row.Seq
				}
			}
			if got != want {
				t.Fatalf("LatestManifestSeq(%d, %d) = %d, brute force %d", table, asOf, got, want)
			}
		}
	}
	if len(tx.reads) != reads {
		t.Fatalf("the checks changed the read set")
	}
}

// checkStructure holds the index to the records: one sorted run per
// directory, no empty run, sorted directories, and exactly the records' keys.
func checkStructure(t *testing.T, db *DB) {
	t.Helper()
	ix := &db.index
	if !sort.StringsAreSorted(ix.dirs) || len(ix.dirs) != len(ix.runs) {
		t.Fatalf("directories %v out of order or out of step with %d runs", ix.dirs, len(ix.runs))
	}
	n := 0
	for _, dir := range ix.dirs {
		run := ix.runs[dir]
		if len(run) == 0 {
			t.Fatalf("directory %q has an empty run", dir)
		}
		for i, e := range run {
			if dirOf(e.key) != dir || (i > 0 && run[i-1].key >= e.key) || db.records[e.key] != e.rec {
				t.Fatalf("directory %q: entry %d (%q) misplaced or stale", dir, i, e.key)
			}
		}
		n += len(run)
	}
	if n != len(db.records) {
		t.Fatalf("index holds %d keys, records %d", n, len(db.records))
	}
}

// FuzzCatalogIndex runs op sequences — put, delete, a deferred Manifests row,
// commit, abort, CompactVersions, a scan — over up to three open transactions at all
// three isolation levels. After every op, each open transaction's Scan, Last
// and LatestManifestSeq must equal a brute-force walk of the records with its
// own writes overlaid, and every commit must succeed or fail with exactly
// the conflict a brute-force validation finds.
func FuzzCatalogIndex(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 3, 0, 5, 1, 3, 0, 0})
	f.Add([]byte{0, 2, 2, 0, 1, 1, 1, 0, 6, 1, 1, 9, 3, 2, 0, 3, 1, 0, 4, 2, 0})
	f.Add([]byte{0, 0, 2, 1, 0, 7, 5, 0, 3, 3, 0, 0, 0, 0, 0, 2, 0, 7, 3, 0, 0, 4, 6, 0})
	f.Add([]byte{0, 0, 1, 5, 0, 1, 3, 0, 0, 0, 1, 1, 5, 1, 2, 1, 0, 0, 3, 1, 0, 3, 0, 0, 4, 5, 0})
	// A serializable reader scans Manifests rows a writer then commits
	// under: its commit fails on the range.
	f.Add([]byte{0, 0, 2, 0, 1, 0, 7, 0, 20, 3, 1, 0, 4, 1, 0, 1, 0, 0, 4, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		db := NewDB()
		var txs [3]*Tx
		val := 0
		for len(ops) >= 3 {
			op, slot, arg := ops[0]%8, int(ops[1]%3), int(ops[2])
			ops = ops[3:]
			tx := txs[slot]
			switch {
			case op == 0:
				if tx != nil {
					tx.Rollback()
				}
				txs[slot] = db.Begin(IsolationLevel(arg % 3))
			case tx == nil:
			case op == 1 || op == 2:
				// Generic keys hold ints; Manifests rows hold ManifestRows,
				// put at an explicit sequence as a clone does.
				val++
				if arg%2 == 0 {
					key := indexKeys[arg/2%len(indexKeys)]
					if op == 1 {
						must(t, tx.Put(key, val))
					} else {
						must(t, tx.Delete(key))
					}
					break
				}
				table, seq := int64(1+arg/2%2), int64(arg/4%8)
				if op == 1 {
					must(t, InsertManifestRow(tx, ManifestRow{TableID: table, Seq: seq, ManifestFile: fmt.Sprint(val)}))
				} else {
					must(t, DeleteManifestRow(tx, table, seq))
				}
			case op == 3:
				InsertManifestAtCommit(tx, int64(1+arg%2), fmt.Sprint(val), 0)
			case op == 4:
				want := bruteConflict(tx)
				got := tx.Commit()
				if (want == nil) != (got == nil) || (want != nil && !errors.Is(got, want)) {
					t.Fatalf("commit: %v, brute force %v", got, want)
				}
				txs[slot] = nil
			case op == 5:
				tx.Rollback()
				txs[slot] = nil
			case op == 6:
				db.CompactVersions(int64(arg) % (db.CurrentSeq() + 1))
			case op == 7:
				// A read the transaction keeps: under Serializable its
				// range is validated at commit.
				if arg%2 == 0 {
					_, err := tx.Scan(indexPrefixes[arg/2%len(indexPrefixes)])
					must(t, err)
				} else {
					_, err := LatestManifestSeq(tx, int64(1+arg/2%2), -1)
					must(t, err)
				}
			}
			checkStructure(t, db)
			for _, tx := range txs {
				if tx != nil {
					checkIndex(t, tx)
				}
			}
		}
	})
}
