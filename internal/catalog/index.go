package catalog

import (
	"sort"
	"strings"
)

// keyIndex orders the catalog's keys so a prefix scan visits only the keys
// under its prefix. Keys are grouped by directory — a key up to and including
// its last '/' — into one sorted run per directory, and the directories are
// kept sorted. The Manifests and Checkpoints tables key their rows by a
// table's directory and a fixed-width sequence, and commits add them in
// sequence order, so indexing a commit's new row is an append; only a new
// directory (a new table) or an out-of-order key moves entries, and then only
// within its own directory.
type keyIndex struct {
	dirs []string // sorted
	runs map[string][]indexEntry
}

type indexEntry struct {
	key string
	rec *record
}

func newKeyIndex() keyIndex { return keyIndex{runs: make(map[string][]indexEntry)} }

func dirOf(key string) string { return key[:strings.LastIndexByte(key, '/')+1] }

// insert indexes a key that is not in the index yet.
func (ix *keyIndex) insert(key string, r *record) {
	dir := dirOf(key)
	run, ok := ix.runs[dir]
	if !ok {
		i := sort.SearchStrings(ix.dirs, dir)
		ix.dirs = append(ix.dirs, "")
		copy(ix.dirs[i+1:], ix.dirs[i:])
		ix.dirs[i] = dir
	}
	i := len(run)
	if i > 0 && run[i-1].key > key {
		i = sort.Search(len(run), func(j int) bool { return run[j].key >= key })
	}
	run = append(run, indexEntry{})
	copy(run[i+1:], run[i:])
	run[i] = indexEntry{key: key, rec: r}
	ix.runs[dir] = run
}

// remove drops an indexed key.
func (ix *keyIndex) remove(key string) {
	dir := dirOf(key)
	run := ix.runs[dir]
	i := sort.Search(len(run), func(j int) bool { return run[j].key >= key })
	if i == len(run) || run[i].key != key {
		return
	}
	if len(run) == 1 {
		delete(ix.runs, dir)
		d := sort.SearchStrings(ix.dirs, dir)
		ix.dirs = append(ix.dirs[:d], ix.dirs[d+1:]...)
		return
	}
	ix.runs[dir] = append(run[:i], run[i+1:]...)
}

// each calls fn with the keys under prefix, one sorted run per directory:
// first the run of the directory the prefix itself ends in, cut to the keys
// that extend the prefix, then the whole run of every deeper directory under
// it, in directory order. The runs are the index's own: fn must not keep or
// change them.
func (ix *keyIndex) each(prefix string, fn func(run []indexEntry)) {
	cut := func(run []indexEntry) []indexEntry {
		lo := sort.Search(len(run), func(j int) bool { return run[j].key >= prefix })
		hi := lo + sort.Search(len(run)-lo, func(j int) bool { return !strings.HasPrefix(run[lo+j].key, prefix) })
		return run[lo:hi]
	}
	own := dirOf(prefix)
	if own != prefix {
		if run := cut(ix.runs[own]); len(run) > 0 {
			fn(run)
		}
	}
	for d := sort.SearchStrings(ix.dirs, prefix); d < len(ix.dirs) && strings.HasPrefix(ix.dirs[d], prefix); d++ {
		fn(ix.runs[ix.dirs[d]])
	}
}
