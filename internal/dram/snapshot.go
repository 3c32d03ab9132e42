// Snapshot support for the DRAM cache tier: an exported, serializable
// state for machine checkpoints (in-memory deep copies use Clone).
package dram

import (
	"fmt"

	"mct/internal/hierarchy"
	"mct/internal/lane"
)

// HotEntry is one page-touch counter slot in the record form that
// checkpoints used before the lanes. It is read, never written: see
// Snapshot.Hot.
type HotEntry struct {
	Page  uint64
	Count uint32
	Epoch uint32
}

// Snapshot is the complete serializable state of a DRAM cache tier, stored
// as lanes. Tags (packed on disk, see package lane) and State hold the
// lines set-major in MRU..LRU order, so recency survives the round trip;
// HotPages, HotCounts and HotEpochs hold the page-touch table slot by
// slot. The tier below is not part of the snapshot — the caller restores
// the chain bottom-up and rewires it.
type Snapshot struct {
	Params    Params
	Promote   int
	Tags      lane.Uint64s
	State     []uint8
	HotPages  []uint64
	HotCounts []uint32
	HotEpochs []uint32
	Epoch     uint32
	MissCount uint64
	Stats     Stats

	// Lines and Hot are the record form of the line state and the touch
	// table, written by checkpoints that predate the lanes. FromSnapshot
	// still reads them; a snapshot carries either the records or the
	// lanes, never both.
	Lines []lane.LineState
	Hot   []HotEntry
}

// Snapshot captures the tier's complete state for checkpointing. It
// shares nothing with the tier.
//
//mctlint:ignore clonefields SnapshotView references every field; Snapshot only detaches its result
func (d *Cache) Snapshot() Snapshot { return d.SnapshotView().Clone() }

// SnapshotView is Snapshot without the copies: the result's lanes are the
// tier's own, valid until the tier next changes. A checkpoint encodes one
// at once, instead of copying 2 MiB of tags per save.
//
//mctlint:ignore clonefields setCount, ways, setMask, setShift and hotMask are derived from Params and recomputed by New on restore; next is external wiring supplied by the caller of FromSnapshot
func (d *Cache) SnapshotView() Snapshot {
	return Snapshot{
		Params:    d.p,
		Promote:   d.promote,
		Tags:      d.tags,
		State:     d.meta,
		HotPages:  d.hotTags,
		HotCounts: d.hotCnt,
		HotEpochs: d.hotEpoch,
		Epoch:     d.epoch,
		MissCount: d.missCount,
		Stats:     d.st,
	}
}

// Clone returns a deep copy of s.
func (s Snapshot) Clone() Snapshot {
	s.Tags = append(lane.Uint64s(nil), s.Tags...)
	s.State = append([]uint8(nil), s.State...)
	s.HotPages = append([]uint64(nil), s.HotPages...)
	s.HotCounts = append([]uint32(nil), s.HotCounts...)
	s.HotEpochs = append([]uint32(nil), s.HotEpochs...)
	s.Lines = append([]lane.LineState(nil), s.Lines...)
	s.Hot = append([]HotEntry(nil), s.Hot...)
	return s
}

// lanes returns s in the lane form, converting the record form of older
// checkpoints.
func (s Snapshot) lanes() (Snapshot, error) {
	lanes := len(s.Tags) > 0 || len(s.State) > 0 || len(s.HotPages) > 0 || len(s.HotCounts) > 0 || len(s.HotEpochs) > 0
	records := len(s.Lines) > 0 || len(s.Hot) > 0
	switch {
	case lanes && records:
		return Snapshot{}, fmt.Errorf("dram: snapshot carries both lanes and records")
	case lanes:
		return s, nil
	case !records:
		return Snapshot{}, fmt.Errorf("dram: snapshot carries no line state")
	}
	s.Tags, s.State = lane.FromRecords(s.Lines)
	s.HotPages = make([]uint64, len(s.Hot))
	s.HotCounts = make([]uint32, len(s.Hot))
	s.HotEpochs = make([]uint32, len(s.Hot))
	for i, he := range s.Hot {
		s.HotPages[i], s.HotCounts[i], s.HotEpochs[i] = he.Page, he.Count, he.Epoch
	}
	s.Lines, s.Hot = nil, nil
	return s, nil
}

// FromSnapshot rebuilds a DRAM cache tier from a state captured with
// Snapshot, or from the record form of an older checkpoint, forwarding to
// next. The rebuilt tier continues the identical simulation.
func FromSnapshot(s Snapshot, next hierarchy.Mem) (*Cache, error) {
	s, err := s.lanes()
	if err != nil {
		return nil, err
	}
	// Check the lane lengths before New allocates, so a corrupt geometry
	// cannot demand more memory than the snapshot itself occupies.
	if s.Params.CacheBytes/LineBytes != len(s.Tags) || len(s.State) != len(s.Tags) {
		return nil, fmt.Errorf("dram: snapshot has %d tags and %d state bytes, geometry says %d lines", len(s.Tags), len(s.State), s.Params.CacheBytes/LineBytes)
	}
	if n := s.Params.HotTableSize; len(s.HotPages) != n || len(s.HotCounts) != n || len(s.HotEpochs) != n {
		return nil, fmt.Errorf("dram: snapshot hot table has %d/%d/%d page/count/epoch slots, geometry says %d", len(s.HotPages), len(s.HotCounts), len(s.HotEpochs), n)
	}
	d, err := New(s.Params, next)
	if err != nil {
		return nil, err
	}
	if s.Promote < 1 || s.Promote > MaxPromoteThreshold {
		return nil, fmt.Errorf("dram: snapshot promote threshold %d outside [1,%d]", s.Promote, MaxPromoteThreshold)
	}
	if err := lane.CheckState(s.State); err != nil {
		return nil, fmt.Errorf("dram: snapshot %w", err)
	}
	copy(d.tags, s.Tags)
	copy(d.meta, s.State)
	copy(d.hotTags, s.HotPages)
	copy(d.hotCnt, s.HotCounts)
	copy(d.hotEpoch, s.HotEpochs)
	d.epoch = s.Epoch
	d.missCount = s.MissCount
	d.promote = s.Promote
	d.st = s.Stats
	return d, nil
}

// Clone returns a deep copy of the tier forwarding to next (the caller
// clones the chain bottom-up and passes the cloned tier below). The copy
// shares no mutable state with the original.
func (d *Cache) Clone(next hierarchy.Mem) *Cache {
	n := &Cache{
		p:         d.p,
		next:      next,
		tags:      append([]uint64(nil), d.tags...),
		meta:      append([]uint8(nil), d.meta...),
		setCount:  d.setCount,
		ways:      d.ways,
		setMask:   d.setMask,
		setShift:  d.setShift,
		hotTags:   append([]uint64(nil), d.hotTags...),
		hotCnt:    append([]uint32(nil), d.hotCnt...),
		hotEpoch:  append([]uint32(nil), d.hotEpoch...),
		hotMask:   d.hotMask,
		epoch:     d.epoch,
		missCount: d.missCount,
		promote:   d.promote,
		st:        d.st,
	}
	return n
}
