package manifest

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
)

// Checkpoint is a compacted representation of a table's full state as of a
// commit sequence (paper Section 5.2). Instead of replaying every manifest,
// a reader loads the newest checkpoint at or below its snapshot sequence and
// replays only the manifests after it.
type Checkpoint struct {
	TableID int64        `json:"table_id"`
	Seq     int64        `json:"seq"` // state includes all commits with sequence <= Seq
	Files   []*FileEntry `json:"files"`
	// Tombstones carries forward logically-removed files still within the
	// retention period so garbage collection can see them across checkpoints.
	Tombstones []Tombstone `json:"tombstones,omitempty"`
}

// BuildCheckpoint captures the state into a checkpoint at its LastSeq.
func BuildCheckpoint(tableID int64, s *TableState) *Checkpoint {
	cp := &Checkpoint{
		TableID:    tableID,
		Seq:        s.LastSeq,
		Files:      s.LiveFiles(),
		Tombstones: s.Tombstones(),
	}
	return cp
}

// State reconstitutes the checkpoint into a TableState ready for further
// replay. The state shares the checkpoint's file entries and tombstones,
// which replay never writes.
func (cp *Checkpoint) State() *TableState {
	s := NewTableState()
	s.LastSeq = cp.Seq
	for _, f := range cp.Files {
		s.Files[f.Path] = f
	}
	s.addTombstones(cp.Tombstones)
	return s
}

// checkpointZ is the one gzip writer checkpoints compress through. Its
// deflate tables are about half a megabyte, more than most checkpoints it
// compresses, and checkpoints are rare enough that a GC would empty a pool
// between two of them; so one writer stays resident and checkpoints
// compress one at a time.
var checkpointZ struct {
	sync.Mutex
	w *gzip.Writer // at gzip.BestSpeed; nil until the first checkpoint
}

// Marshal serializes the checkpoint: its JSON, gzip-compressed. A checkpoint
// is every live file's entry and every tombstone, mostly repeated keys and
// paths, so it stores in a third to a fifth of its JSON. Marshal returns the
// stored bytes and the size of the JSON they hold, the bytes a reader
// decodes.
func (cp *Checkpoint) Marshal() (data []byte, decoded int64, err error) {
	js, err := json.Marshal(cp)
	if err != nil {
		return nil, 0, err
	}
	var out bytes.Buffer
	z := &checkpointZ
	z.Lock()
	defer z.Unlock()
	if z.w == nil {
		z.w, _ = gzip.NewWriterLevel(&out, gzip.BestSpeed)
	} else {
		z.w.Reset(&out)
	}
	if _, err := z.w.Write(js); err != nil {
		return nil, 0, err
	}
	if err := z.w.Close(); err != nil {
		return nil, 0, err
	}
	return out.Bytes(), int64(len(js)), nil
}

// UnmarshalCheckpoint parses a serialized checkpoint, gzip-compressed JSON.
// It rejects a file entry that is null or has no path, so State never meets
// one.
func UnmarshalCheckpoint(data []byte) (*Checkpoint, error) {
	js, err := gunzip(data)
	if err != nil {
		return nil, fmt.Errorf("manifest: inflate checkpoint: %w", err)
	}
	return parseCheckpoint(js)
}

// parseCheckpoint parses a checkpoint's JSON.
func parseCheckpoint(js []byte) (*Checkpoint, error) {
	var cp Checkpoint
	if err := json.Unmarshal(js, &cp); err != nil {
		return nil, fmt.Errorf("manifest: parse checkpoint: %w", err)
	}
	for i, f := range cp.Files {
		if f == nil || f.Path == "" {
			return nil, fmt.Errorf("manifest: checkpoint file %d has no path", i)
		}
	}
	return &cp, nil
}

// CommittedManifest pairs a manifest's commit sequence with its actions, the
// unit the snapshot reconstructor replays. The sequence comes from the
// catalog's Manifests table, not from the file itself.
type CommittedManifest struct {
	Seq     int64
	Path    string
	Actions []Action
}

// Reconstruct builds a snapshot as of asOfSeq from an optional checkpoint and
// the committed manifests after it. Manifests at sequences beyond asOfSeq, or
// at/below the checkpoint's sequence, are skipped; a negative asOfSeq means
// "latest".
func Reconstruct(cp *Checkpoint, manifests []CommittedManifest, asOfSeq int64) (*TableState, error) {
	var s *TableState
	if cp != nil && (asOfSeq < 0 || cp.Seq <= asOfSeq) {
		s = cp.State()
	} else {
		s = NewTableState()
	}
	ordered := append([]CommittedManifest(nil), manifests...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Seq < ordered[j].Seq })
	for _, m := range ordered {
		if m.Seq <= s.LastSeq && s.LastSeq > 0 {
			continue
		}
		if asOfSeq >= 0 && m.Seq > asOfSeq {
			break
		}
		if err := s.Apply(m.Seq, m.Actions); err != nil {
			return nil, fmt.Errorf("manifest: replay %s: %w", m.Path, err)
		}
	}
	return s, nil
}

// gunzip inflates a gzip stream. The trailer's last four bytes record the
// size of what it holds, which the reader checks at the end; here they size
// the buffer, so a checkpoint's JSON is allocated once rather than grown. A
// corrupt size only misjudges the buffer, capped at more than JSON ever
// deflates by.
func gunzip(data []byte) ([]byte, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	size := min(uint64(binary.LittleEndian.Uint32(data[len(data)-4:])), 64*uint64(len(data)))
	out := bytes.NewBuffer(make([]byte, 0, size+bytes.MinRead))
	if _, err := out.ReadFrom(zr); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}
