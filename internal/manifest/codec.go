package manifest

import (
	"encoding/binary"

	"polaris/internal/colfile"
	"polaris/internal/wire"
)

// Manifest block format (header "PMB", version 3). Counts and numbers are
// uvarints, the partition a zig-zag varint:
//
//	header   "PMB" and the version byte
//	actions  count, then per action:
//	  flags       one byte: bit 0 remove (else add), bit 1 a deletion
//	              vector (else a data file), and bits 2–7 which of the
//	              fields below follow; a field left out is zero
//	  path        front-coded against the block's previous path
//	  rows, size, partition (MixedCells, −1, is one byte)
//	  target      front-coded against the block's previous target
//	  deleted rows
//	  sketches    colfile.AppendSketches; each sketch's rows are the
//	              action's rows
//
// A front-coded string is the length of the prefix it shares with the one
// before it, then the rest, length-prefixed; the first is coded against "".
// A block needs nothing from the bytes around it, so blocks concatenated in
// any order decode to the concatenation of their actions. Every block and
// checkpoint decodes under the rules every binary decoder shares
// (wire.Reader; docs/ARCHITECTURE.md, "Data files").
const blockHeader = "PMB\x03"

// Action flags.
const (
	flagRemove byte = 1 << iota
	flagDV
	flagRows
	flagSize
	flagPartition
	flagTarget
	flagDeleted
	flagSketches
)

// minActionBytes is the least an action takes: its flags and an empty path's
// two lengths.
const minActionBytes = 3

// frontCoder front-codes a sequence of strings against each one's
// predecessor.
type frontCoder struct{ prev string }

func (c *frontCoder) append(dst []byte, s string) []byte {
	n := 0
	for n < len(s) && n < len(c.prev) && s[n] == c.prev[n] {
		n++
	}
	c.prev = s
	return wire.AppendString(binary.AppendUvarint(dst, uint64(n)), s[n:])
}

// encoder writes the actions of one block or the file entries of one
// checkpoint.
type encoder struct {
	buf            []byte
	paths, targets frontCoder
}

func (e *encoder) uvarint(x uint64) { e.buf = binary.AppendUvarint(e.buf, x) }

// action appends a, which must pass Validate.
func (e *encoder) action(a *Action) {
	var f byte
	if a.Op == OpRemove {
		f |= flagRemove
	}
	if a.Kind == KindDV {
		f |= flagDV
	}
	at := len(e.buf)
	e.buf = e.paths.append(append(e.buf, 0), a.Path)
	if a.Rows != 0 {
		f |= flagRows
		e.uvarint(uint64(a.Rows))
	}
	if a.Size != 0 {
		f |= flagSize
		e.uvarint(uint64(a.Size))
	}
	if a.Partition != 0 {
		f |= flagPartition
		e.buf = binary.AppendVarint(e.buf, int64(a.Partition))
	}
	if a.Target != "" {
		f |= flagTarget
		e.buf = e.targets.append(e.buf, a.Target)
	}
	if a.DeletedRows != 0 {
		f |= flagDeleted
		e.uvarint(uint64(a.DeletedRows))
	}
	if len(a.Sketches) > 0 {
		f |= flagSketches
		e.buf = colfile.AppendSketches(e.buf, a.Sketches)
	}
	e.buf[at] = f
}

// decoder reads what an encoder wrote.
type decoder struct {
	r              *wire.Reader
	paths, targets frontCoder
	// removals walks a manifest for its Remove actions only: the sketches
	// of the Add actions are checked and skipped, not decoded.
	removals bool
	// room is how many bytes the front-coded strings still to come may
	// take. Front coding lets a few bytes repeat a long prefix, so without
	// a cap a damaged block of n bytes could allocate n²/4 bytes of strings;
	// with it they take at most maxStringExpansion times the input. A
	// string equal to its predecessor's prefix shares its bytes and costs
	// nothing.
	room int
}

// maxStringExpansion bounds the bytes a decoder's front-coded strings take
// per byte of its input, plus a page for the smallest inputs. A path this
// engine writes takes about a third of its length once front-coded.
const maxStringExpansion = 16

func newDecoder(r *wire.Reader) decoder {
	return decoder{r: r, room: maxStringExpansion*r.Len() + 4096}
}

// frontCoded reads one string front-coded against c's predecessor.
func (d *decoder) frontCoded(c *frontCoder, what string) string {
	r := d.r
	n := r.Uvarint(what)
	if r.Err() == nil && n > uint64(len(c.prev)) {
		r.Fail("%s shares %d bytes with a %d-byte predecessor", what, n, len(c.prev))
	}
	rest := r.Take(what, r.Count(what, 1), 1)
	if r.Err() != nil {
		return ""
	}
	if len(rest) > 0 {
		if d.room -= int(n) + len(rest); d.room < 0 {
			r.Fail("%s take more than %d times the input's bytes", what, maxStringExpansion)
			return ""
		}
	}
	c.prev = c.prev[:n] + string(rest)
	return c.prev
}

// action reads one action; Validate is the caller's.
func (d *decoder) action() Action {
	r := d.r
	f := r.Byte("action flags")
	a := Action{Op: OpAdd, Kind: KindData}
	if f&flagRemove != 0 {
		a.Op = OpRemove
	}
	if f&flagDV != 0 {
		a.Kind = KindDV
	}
	a.Path = d.frontCoded(&d.paths, "paths")
	if f&flagRows != 0 {
		a.Rows = int64(r.Uvarint("rows"))
	}
	if f&flagSize != 0 {
		a.Size = int64(r.Uvarint("sizes"))
	}
	if f&flagPartition != 0 {
		p := r.Varint("partitions")
		if p < MixedCells && r.Err() == nil {
			r.Fail("partition %d is below %d", p, MixedCells)
		}
		a.Partition = int(p)
	}
	if f&flagTarget != 0 {
		a.Target = d.frontCoded(&d.targets, "targets")
	}
	if f&flagDeleted != 0 {
		a.DeletedRows = int64(r.Uvarint("deleted rows"))
	}
	switch {
	case f&flagSketches == 0:
	case d.removals:
		colfile.SkipSketches(r)
	default:
		a.Sketches = colfile.ReadSketches(r, a.Rows)
	}
	return a
}

// Encode serializes actions as one manifest block, the payload a write task
// stages. No actions encode to no bytes.
func Encode(actions []Action) []byte {
	if len(actions) == 0 {
		return nil
	}
	e := encoder{buf: append(make([]byte, 0, 64*len(actions)), blockHeader...)}
	e.uvarint(uint64(len(actions)))
	for i := range actions {
		e.action(&actions[i])
	}
	return e.buf
}

// Decode parses a manifest — no bytes, one block, or blocks concatenated in
// any order — into its actions, each of which passes Validate.
func Decode(data []byte) ([]Action, error) { return decode(data, false) }

// DecodeRemovals parses a manifest as Decode does, under the same checks, and
// returns only its Remove actions: what garbage collection reads. It skips
// the Add actions' sketches without decoding them, so it allocates no
// bitmap and no zone-map bound.
func DecodeRemovals(data []byte) ([]Action, error) { return decode(data, true) }

func decode(data []byte, removals bool) ([]Action, error) {
	r := wire.NewReader(data)
	d := newDecoder(r)
	d.removals = removals
	var out []Action
	seen := 0 // actions walked, in every block so far
	for r.Err() == nil && r.Pos() < len(data) {
		if string(r.Take("block header bytes", len(blockHeader), 1)) != blockHeader {
			r.Fail("bad block header at byte %d", r.Pos()-len(blockHeader))
		}
		n := r.Count("actions", minActionBytes)
		if out == nil && n > 0 && !removals {
			out = make([]Action, 0, n)
		}
		d.paths, d.targets = frontCoder{}, frontCoder{}
		for i := 0; i < n && r.Err() == nil; i++ {
			a := d.action()
			if err := a.Validate(); r.Err() == nil && err != nil {
				r.Fail("action %d: %w", seen, err)
			}
			seen++
			if !removals || a.Op == OpRemove {
				out = append(out, a)
			}
		}
	}
	if err := r.End("manifest: decode"); err != nil {
		return nil, err
	}
	return out, nil
}
