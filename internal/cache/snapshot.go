// Snapshot support for the LLC: an exported, serializable state for
// machine checkpoints (in-memory deep copies use Clone).
package cache

import (
	"fmt"

	"mct/internal/lane"
)

// Clone returns a deep copy of s: mutating the clone's HitsByPos never
// perturbs the original.
func (s Stats) Clone() Stats {
	n := s
	n.HitsByPos = append([]uint64(nil), s.HitsByPos...)
	return n
}

// Snapshot is the complete serializable state of a Cache. The line state is
// two lanes stored set-major in MRU..LRU order, so LRU recency survives the
// round trip: Tags holds each line's tag (packed on disk, see package lane)
// and State its lane.Valid|lane.Dirty byte. A state byte per line keeps the
// format independent of the in-memory bitmask layout.
type Snapshot struct {
	SizeBytes   int
	Ways        int
	Tags        lane.Uint64s
	State       []uint8
	EagerCursor int
	Stats       Stats

	// Lines is the record form of the line state, written by checkpoints
	// that predate the lanes. FromSnapshot still reads it; a snapshot
	// carries either Lines or Tags/State, never both.
	Lines []lane.LineState
}

// Snapshot captures the cache's complete state for checkpointing. It
// shares nothing with the cache.
//
//mctlint:ignore clonefields SnapshotView references every field; Snapshot only detaches its result
func (c *Cache) Snapshot() Snapshot { return c.SnapshotView().Clone() }

// SnapshotView is Snapshot without the copies: the result's Tags and hit
// histogram are the cache's own, valid until the cache next changes. A
// checkpoint encodes one at once. The per-set valid/dirty masks are
// unpacked into the one-byte-per-line State lane.
//
//mctlint:ignore clonefields setMask and setShift are derived from setCount and recomputed by New on restore
func (c *Cache) SnapshotView() Snapshot {
	state := make([]uint8, len(c.tags))
	for set, valid := range c.valid {
		dirty := c.dirty[set]
		row := state[set*c.ways : (set+1)*c.ways]
		for pos := range row {
			if valid>>uint(pos)&1 != 0 {
				row[pos] = lane.Valid
			}
			if dirty>>uint(pos)&1 != 0 {
				row[pos] |= lane.Dirty
			}
		}
	}
	return Snapshot{
		SizeBytes:   c.setCount * c.ways * LineBytes,
		Ways:        c.ways,
		Tags:        c.tags,
		State:       state,
		EagerCursor: c.eagerCursor,
		Stats:       c.stats,
	}
}

// Clone returns a deep copy of s.
func (s Snapshot) Clone() Snapshot {
	s.Tags = append(lane.Uint64s(nil), s.Tags...)
	s.State = append([]uint8(nil), s.State...)
	s.Stats = s.Stats.Clone()
	s.Lines = append([]lane.LineState(nil), s.Lines...)
	return s
}

// lanes returns the snapshot's line state as Tags/State lanes, converting
// the record form of older checkpoints.
func (s Snapshot) lanes() (lane.Uint64s, []uint8, error) {
	lanes := len(s.Tags) > 0 || len(s.State) > 0
	switch {
	case lanes && len(s.Lines) > 0:
		return nil, nil, fmt.Errorf("cache: snapshot carries both line lanes and line records")
	case lanes:
		return s.Tags, s.State, nil
	case len(s.Lines) == 0:
		return nil, nil, fmt.Errorf("cache: snapshot carries no line state")
	}
	tags, state := lane.FromRecords(s.Lines)
	return tags, state, nil
}

// FromSnapshot rebuilds a cache from a state captured with Snapshot, or
// from the record form of an older checkpoint. The rebuilt cache continues
// the identical simulation.
func FromSnapshot(s Snapshot) (*Cache, error) {
	tags, state, err := s.lanes()
	if err != nil {
		return nil, err
	}
	// Check the lane lengths before New allocates, so a corrupt geometry
	// cannot demand more memory than the snapshot itself occupies.
	if s.SizeBytes/LineBytes != len(tags) || len(state) != len(tags) {
		return nil, fmt.Errorf("cache: snapshot has %d tags and %d state bytes, geometry says %d lines", len(tags), len(state), s.SizeBytes/LineBytes)
	}
	c, err := New(s.SizeBytes, s.Ways)
	if err != nil {
		return nil, err
	}
	if len(s.Stats.HitsByPos) != c.ways {
		return nil, fmt.Errorf("cache: snapshot hit histogram has %d positions, geometry says %d", len(s.Stats.HitsByPos), c.ways)
	}
	if s.EagerCursor < 0 || s.EagerCursor >= c.setCount {
		return nil, fmt.Errorf("cache: snapshot eager cursor %d outside [0,%d)", s.EagerCursor, c.setCount)
	}
	if err := lane.CheckState(state); err != nil {
		return nil, fmt.Errorf("cache: snapshot %w", err)
	}
	for i, b := range state {
		set, bit := i/c.ways, uint(i%c.ways)
		if b&lane.Valid != 0 {
			c.valid[set] |= 1 << bit
		}
		if b&lane.Dirty != 0 {
			c.dirty[set] |= 1 << bit
		}
	}
	copy(c.tags, tags)
	c.eagerCursor = s.EagerCursor
	c.stats = s.Stats
	c.stats.HitsByPos = append([]uint64(nil), s.Stats.HitsByPos...)
	return c, nil
}
