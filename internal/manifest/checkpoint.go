package manifest

import (
	"encoding/json"
	"fmt"
	"sort"
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

// Marshal serializes the checkpoint.
func (cp *Checkpoint) Marshal() ([]byte, error) { return json.Marshal(cp) }

// UnmarshalCheckpoint parses a serialized checkpoint. It rejects a file entry
// that is null or has no path, so State never meets one.
func UnmarshalCheckpoint(data []byte) (*Checkpoint, error) {
	var cp Checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
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
