// Package lane holds the on-disk line-state shape shared by the LLC's and
// the DRAM tier's snapshots: a tag lane plus one state byte per line, and
// the record form that checkpoints used before the lanes.
//
// gob encodes a plain []uint64 element by element, at about 13 ns per
// element: for the DRAM tier's 262,144 tags that alone was most of a
// checkpoint's encode time. A Uint64s instead encodes itself as one byte
// string of unsigned varints, which gob copies in a single write, and
// decodes the same way. gob already writes the []uint8 state lane as one
// byte string.
package lane

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Bits of a line's state byte. No other bit may be set, and Dirty only
// together with Valid.
const (
	Valid uint8 = 1 << 0
	Dirty uint8 = 1 << 1
)

// LineState is one line in the record form that checkpoints used before
// the lanes. It is read, never written.
type LineState struct {
	Tag   uint64
	Valid bool
	Dirty bool
}

// FromRecords converts record-form lines to a tag lane and a state lane.
func FromRecords(lines []LineState) (Uint64s, []uint8) {
	tags := make(Uint64s, len(lines))
	state := make([]uint8, len(lines))
	for i, ls := range lines {
		tags[i] = ls.Tag
		if ls.Valid {
			state[i] |= Valid
		}
		if ls.Dirty {
			state[i] |= Dirty
		}
	}
	return tags, state
}

// ToRecords converts a tag lane and a state lane to record-form lines, the
// inverse of FromRecords.
func ToRecords(tags []uint64, state []uint8) []LineState {
	lines := make([]LineState, len(tags))
	for i, tag := range tags {
		lines[i] = LineState{Tag: tag, Valid: state[i]&Valid != 0, Dirty: state[i]&Dirty != 0}
	}
	return lines
}

// CheckState rejects a state lane holding a byte no run produces: unknown
// bits, or a line that is dirty but not valid.
func CheckState(state []uint8) error {
	for i, b := range state {
		if b&^(Valid|Dirty) != 0 {
			return fmt.Errorf("line %d has unknown state bits %#x", i, b)
		}
		if b == Dirty {
			return fmt.Errorf("line %d is dirty but not valid", i)
		}
	}
	return nil
}

// Uint64s is a []uint64 that gob-encodes as one packed byte string: the
// element count, then each element as an unsigned varint.
type Uint64s []uint64

// GobEncode implements gob.GobEncoder.
func (l Uint64s) GobEncode() ([]byte, error) {
	// Two bytes per element hold every tag below 2^14; larger values grow
	// the buffer.
	buf := binary.AppendUvarint(make([]byte, 0, binary.MaxVarintLen64+2*len(l)), uint64(len(l)))
	for _, x := range l {
		buf = binary.AppendUvarint(buf, x)
	}
	return buf, nil
}

// GobDecode implements gob.GobDecoder. Every element takes at least one
// payload byte, so it rejects a count larger than the payload before
// allocating: a corrupt count cannot demand more than 8 bytes of lane per
// payload byte, the same bound as a plain gob []uint64.
func (l *Uint64s) GobDecode(b []byte) error {
	n, k := binary.Uvarint(b)
	if k <= 0 {
		return errors.New("lane: bad element count")
	}
	b = b[k:]
	if n > uint64(len(b)) {
		return fmt.Errorf("lane: %d elements in a %d-byte payload", n, len(b))
	}
	out := make(Uint64s, n)
	for i := range out {
		x, k := binary.Uvarint(b)
		if k <= 0 {
			return fmt.Errorf("lane: bad element %d", i)
		}
		out[i], b = x, b[k:]
	}
	if len(b) != 0 {
		return fmt.Errorf("lane: %d bytes after the last element", len(b))
	}
	*l = out
	return nil
}
