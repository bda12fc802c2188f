package manifest

import (
	"fmt"
	"sort"

	"polaris/internal/wire"
)

// Checkpoint is a compacted representation of a table's live files as of a
// commit sequence (paper Section 5.2). Instead of replaying every manifest,
// a reader loads the newest checkpoint at or below its snapshot sequence and
// replays only the manifests after it.
type Checkpoint struct {
	TableID int64
	Seq     int64 // state includes all commits with sequence <= Seq
	Files   []*FileEntry
}

// BuildCheckpoint captures the state into a checkpoint at its LastSeq.
func BuildCheckpoint(tableID int64, s *TableState) *Checkpoint {
	return &Checkpoint{TableID: tableID, Seq: s.LastSeq, Files: s.LiveFiles()}
}

// State reconstitutes the checkpoint into a TableState ready for further
// replay. The state shares the checkpoint's file entries, which replay never
// writes.
func (cp *Checkpoint) State() *TableState {
	s := NewTableState()
	s.LastSeq = cp.Seq
	for _, f := range cp.Files {
		s.Files[f.Path] = f
	}
	return s
}

// Checkpoint format (header "PCK", version 3). Counts and numbers are
// uvarints:
//
//	header  "PCK" and the version byte
//	table, seq
//	files   count, then per file the Add action that adds it, in the
//	        manifest block's encoding (its deletion vector in the target
//	        slot, its deleted rows in the action's)
//
// Files are in path order, so their paths share long prefixes.
const checkpointHeader = "PCK\x03"

// Marshal serializes the checkpoint.
func (cp *Checkpoint) Marshal() []byte {
	e := encoder{buf: append(make([]byte, 0, 64*len(cp.Files)), checkpointHeader...)}
	e.uvarint(uint64(cp.TableID))
	e.uvarint(uint64(cp.Seq))
	e.uvarint(uint64(len(cp.Files)))
	for _, f := range cp.Files {
		e.action(&Action{
			Op: OpAdd, Kind: KindData, Path: f.Path, Rows: f.Rows, Size: f.Size,
			Partition: f.Partition, Target: f.DV, DeletedRows: f.DeletedRows, Sketches: f.Sketches,
		})
	}
	return e.buf
}

// UnmarshalCheckpoint parses a serialized checkpoint. It rejects a file
// entry that is not an add of a data file or has no path, so State never
// meets one.
func UnmarshalCheckpoint(data []byte) (*Checkpoint, error) {
	r := wire.NewReader(data)
	if string(r.Take("header bytes", len(checkpointHeader), 1)) != checkpointHeader {
		r.Fail("bad header")
	}
	cp := &Checkpoint{TableID: int64(r.Uvarint("table")), Seq: int64(r.Uvarint("sequence"))}
	d := newDecoder(r)
	entries := make([]FileEntry, r.Count("files", minActionBytes))
	cp.Files = make([]*FileEntry, len(entries))
	for i := range entries {
		a := d.action()
		if r.Err() == nil && (a.Op != OpAdd || a.Kind != KindData || a.Path == "") {
			r.Fail("file %d is not an add of a data file with a path", i)
		}
		if r.Err() != nil {
			break
		}
		entries[i] = FileEntry{
			Path: a.Path, Rows: a.Rows, Size: a.Size, Partition: a.Partition,
			DV: a.Target, DeletedRows: a.DeletedRows, Sketches: a.Sketches,
		}
		cp.Files[i] = &entries[i]
	}
	if err := r.End("manifest: checkpoint"); err != nil {
		return nil, err
	}
	return cp, nil
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
