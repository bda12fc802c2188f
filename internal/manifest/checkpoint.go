package manifest

import (
	"encoding/binary"
	"fmt"
	"sort"

	"polaris/internal/wire"
)

// Checkpoint is a compacted representation of a table's full state as of a
// commit sequence (paper Section 5.2). Instead of replaying every manifest,
// a reader loads the newest checkpoint at or below its snapshot sequence and
// replays only the manifests after it.
type Checkpoint struct {
	TableID int64
	Seq     int64 // state includes all commits with sequence <= Seq
	Files   []*FileEntry
	// Tombstones carries forward logically-removed files still within the
	// retention period so garbage collection can see them across checkpoints.
	Tombstones []Tombstone
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

// Checkpoint format (header "PCK", version 1). Counts and numbers are
// uvarints:
//
//	header      "PCK" and the version byte
//	table, seq
//	files       count, then per file the Add action that adds it, in the
//	            manifest block's encoding (its deletion vector in the
//	            target slot, its deleted rows in the action's), then the
//	            sequence that added it
//	tombstones  count, then per tombstone: its path, front-coded against
//	            the previous tombstone's; its kind, 0 data or 1 deletion
//	            vector; and its removal sequence as a zig-zag varint delta
//	            from the previous tombstone's
//
// Files are in path order, so their paths share long prefixes, and
// tombstones oldest first, so their sequences mostly repeat.
const checkpointHeader = "PCK\x01"

// Least bytes of a file entry (flags, an empty path's two lengths, the
// added sequence) and of a tombstone (two lengths, kind, sequence).
const (
	minFileBytes      = 4
	minTombstoneBytes = 4
)

// Marshal serializes the checkpoint.
func (cp *Checkpoint) Marshal() []byte {
	e := encoder{buf: append(make([]byte, 0, 64*len(cp.Files)+16*len(cp.Tombstones)), checkpointHeader...)}
	e.uvarint(uint64(cp.TableID))
	e.uvarint(uint64(cp.Seq))
	e.uvarint(uint64(len(cp.Files)))
	for _, f := range cp.Files {
		e.action(&Action{
			Op: OpAdd, Kind: KindData, Path: f.Path, Rows: f.Rows, Size: f.Size,
			Partition: f.Partition, Target: f.DV, DeletedRows: f.DeletedRows, Sketches: f.Sketches,
		})
		e.uvarint(uint64(f.AddedSeq))
	}
	e.uvarint(uint64(len(cp.Tombstones)))
	e.paths = frontCoder{}
	var seq int64
	for _, t := range cp.Tombstones {
		e.buf = e.paths.append(e.buf, t.Path)
		kind := byte(0)
		if t.Kind == KindDV {
			kind = 1
		}
		e.buf = binary.AppendVarint(append(e.buf, kind), t.RemovedSeq-seq)
		seq = t.RemovedSeq
	}
	return e.buf
}

// UnmarshalCheckpoint parses a serialized checkpoint. It rejects a file
// entry that is not an add of a data file or has no path, and a tombstone of
// an unknown kind, so State never meets one.
func UnmarshalCheckpoint(data []byte) (*Checkpoint, error) {
	r := wire.NewReader(data)
	if string(r.Take("header bytes", len(checkpointHeader), 1)) != checkpointHeader {
		r.Fail("bad header")
	}
	cp := &Checkpoint{TableID: int64(r.Uvarint("table")), Seq: int64(r.Uvarint("sequence"))}
	d := newDecoder(r)
	entries := make([]FileEntry, r.Count("files", minFileBytes))
	cp.Files = make([]*FileEntry, len(entries))
	for i := range entries {
		a := d.action()
		f := &entries[i]
		*f = FileEntry{
			Path: a.Path, Rows: a.Rows, Size: a.Size, Partition: a.Partition,
			DV: a.Target, DeletedRows: a.DeletedRows, Sketches: a.Sketches,
			AddedSeq: int64(r.Uvarint("added sequences")),
		}
		if r.Err() == nil && (a.Op != OpAdd || a.Kind != KindData || a.Path == "") {
			r.Fail("file %d is not an add of a data file with a path", i)
		}
		if r.Err() != nil {
			break
		}
		cp.Files[i] = f
	}
	if n := r.Count("tombstones", minTombstoneBytes); n > 0 {
		cp.Tombstones = make([]Tombstone, n)
	}
	d.paths = frontCoder{}
	var seq int64
	for i := range cp.Tombstones {
		t := &cp.Tombstones[i]
		t.Path = d.frontCoded(&d.paths, "tombstone paths")
		switch kind := r.Byte("tombstone kinds"); kind {
		case 0:
			t.Kind = KindData
		case 1:
			t.Kind = KindDV
		default:
			r.Fail("tombstone %d has kind %d", i, kind)
		}
		seq += r.Varint("removal sequences")
		t.RemovedSeq = seq
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
