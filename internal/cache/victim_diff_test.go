package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// byteLaneCache is the reference model for the per-set bitmask layout: the
// earlier one-byte-per-line metadata lane with its byte-wise LRU shift and
// per-position eager victim scan, kept verbatim so the bitmask cache can be
// checked against it access by access.
type byteLaneCache struct {
	tags        []uint64
	meta        []uint8
	setCount    int
	ways        int
	setShift    uint
	eagerCursor int
	stats       Stats
}

const (
	refValid uint8 = 1 << 0
	refDirty uint8 = 1 << 1
)

func newByteLane(sizeBytes, ways int) *byteLaneCache {
	setCount := sizeBytes / LineBytes / ways
	r := &byteLaneCache{
		tags:     make([]uint64, setCount*ways),
		meta:     make([]uint8, setCount*ways),
		setCount: setCount,
		ways:     ways,
		setShift: uint(log2(setCount)),
	}
	r.stats.HitsByPos = make([]uint64, ways)
	return r
}

func (r *byteLaneCache) clone() *byteLaneCache {
	n := *r
	n.tags = append([]uint64(nil), r.tags...)
	n.meta = append([]uint8(nil), r.meta...)
	n.stats = r.stats.Clone()
	return &n
}

func (r *byteLaneCache) reconstruct(setIdx int, tag uint64) uint64 {
	return (tag<<r.setShift | uint64(setIdx)) * LineBytes
}

func (r *byteLaneCache) access(addr uint64, write bool) Result {
	lineAddr := addr / LineBytes
	setIdx, tag := int(lineAddr%uint64(r.setCount)), lineAddr>>r.setShift
	base := setIdx * r.ways
	tags := r.tags[base : base+r.ways]
	meta := r.meta[base : base+r.ways]
	for pos := range tags {
		if meta[pos]&refValid != 0 && tags[pos] == tag {
			r.stats.Hits++
			r.stats.HitsByPos[pos]++
			m := meta[pos]
			if write {
				m |= refDirty
			}
			copy(tags[1:pos+1], tags[:pos])
			copy(meta[1:pos+1], meta[:pos])
			tags[0] = tag
			meta[0] = m
			return Result{Hit: true}
		}
	}
	r.stats.Misses++
	res := Result{FillAddr: addr &^ uint64(LineBytes-1)}
	last := r.ways - 1
	if meta[last]&(refValid|refDirty) == refValid|refDirty {
		r.stats.Writebacks++
		res.Writeback = true
		res.WritebackAddr = r.reconstruct(setIdx, tags[last])
	}
	copy(tags[1:], tags[:last])
	copy(meta[1:], meta[:last])
	tags[0] = tag
	meta[0] = refValid
	if write {
		meta[0] |= refDirty
	}
	return res
}

func (r *byteLaneCache) nextEagerVictim(uselessN, maxSets int) (uint64, bool) {
	if uselessN <= 0 {
		return 0, false
	}
	if uselessN > r.ways {
		uselessN = r.ways
	}
	if maxSets <= 0 || maxSets > r.setCount {
		maxSets = r.setCount
	}
	const valadirty = refValid | refDirty
	for scanned := 0; scanned < maxSets; scanned++ {
		setIdx := r.eagerCursor
		r.eagerCursor = (r.eagerCursor + 1) % r.setCount
		base := setIdx * r.ways
		for pos := r.ways - uselessN; pos < r.ways; pos++ {
			if r.meta[base+pos]&valadirty == valadirty {
				r.meta[base+pos] &^= refDirty
				r.stats.EagerWrites++
				return r.reconstruct(setIdx, r.tags[base+pos]), true
			}
		}
	}
	return 0, false
}

// lanes returns the reference's line state in the snapshot lane form; its
// metadata byte has the snapshot State layout.
func (r *byteLaneCache) lanes() ([]uint64, []uint8) {
	return append([]uint64(nil), r.tags...), append([]uint8(nil), r.meta...)
}

// TestEagerVictimMatchesByteLane drives the bitmask cache and the byte-lane
// reference with the same random load/store stream and eager scans, and
// requires every access result, victim, scan cursor, line state and
// statistic to agree, across clone and snapshot round trips.
func TestEagerVictimMatchesByteLane(t *testing.T) {
	for _, ways := range []int{1, 16, 64} {
		for _, sets := range []int{1, 8, 64} {
			for _, maxSets := range []int{0, 1, 32, 2*sets + 1} {
				name := fmt.Sprintf("ways=%d/sets=%d/maxSets=%d", ways, sets, maxSets)
				t.Run(name, func(t *testing.T) {
					diffVictims(t, sets*ways*LineBytes, ways, maxSets, int64(ways*1000+sets*10+maxSets))
				})
			}
		}
	}
}

func diffVictims(t *testing.T, size, ways, maxSets int, seed int64) {
	c := mustNew(t, size, ways)
	ref := newByteLane(size, ways)
	rng := rand.New(rand.NewSource(seed))
	// Twice the capacity in distinct lines: hits land at every stack depth
	// and misses evict dirty lines.
	span := 2 * size / LineBytes
	for step := 0; step < 6000; step++ {
		addr := uint64(rng.Intn(span))*LineBytes + uint64(rng.Intn(LineBytes))
		write := rng.Intn(3) == 0
		if got, want := c.Access(addr, write), ref.access(addr, write); got != want {
			t.Fatalf("step %d: Access(%#x,%t) = %+v, reference %+v", step, addr, write, got, want)
		}
		if rng.Intn(2) == 0 {
			n := rng.Intn(ways + 1) // uselessN over [0, ways]
			got, gotOK := c.NextEagerVictim(n, maxSets)
			want, wantOK := ref.nextEagerVictim(n, maxSets)
			if got != want || gotOK != wantOK {
				t.Fatalf("step %d: NextEagerVictim(%d,%d) = %#x,%t, reference %#x,%t", step, n, maxSets, got, gotOK, want, wantOK)
			}
		}
		if c.eagerCursor != ref.eagerCursor {
			t.Fatalf("step %d: cursor %d, reference %d", step, c.eagerCursor, ref.eagerCursor)
		}
		switch rng.Intn(400) {
		case 0:
			c, ref = c.Clone(), ref.clone()
		case 1:
			r, err := FromSnapshot(c.Snapshot())
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			c = r
		}
		if step%500 == 0 || step == 5999 {
			if got, want := c.Stats(), ref.stats; !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: stats %+v, reference %+v", step, got, want)
			}
			snap := c.Snapshot()
			if wantTags, wantState := ref.lanes(); !reflect.DeepEqual([]uint64(snap.Tags), wantTags) || !reflect.DeepEqual(snap.State, wantState) {
				t.Fatalf("step %d: line state diverged from the reference", step)
			}
		}
	}
	if c.Stats().EagerWrites == 0 {
		t.Fatal("stream produced no eager victims; the comparison is vacuous")
	}
}
