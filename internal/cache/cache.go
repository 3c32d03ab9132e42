// Package cache implements the last-level cache model that feeds the NVM
// memory system: a set-associative write-back, write-allocate cache with
// true LRU replacement, per-LRU-stack-position hit counters, and the dirty
// line scanning needed by Eager Mellow Writes (§3.1).
//
// The eager-writeback rule of the paper: "If the highest N LRU stack
// positions of the last level cache contribute less than 1/eager_threshold
// of total hits in LLC, then we consider these N LRU stack positions to be
// useless and their corresponding LLC dirty entries can be eagerly written
// back." UselessPositions computes that N; NextEagerVictim yields dirty
// lines resident in those positions.
//
// Layout: the line array is struct-of-arrays — one flat []uint64 of tags
// indexed set*ways+pos with each set ordered MRU..LRU, plus two per-set
// bitmasks, valid and dirty, whose bit pos describes the line at LRU stack
// position pos. The tag probe touches the tag lane almost exclusively; the
// LRU update of the line state is a few shifts on two words; and the eager
// victim scan tests one word per set. The bitmasks bound the associativity
// at 64 ways.
package cache

import (
	"fmt"
	"math/bits"
)

// LineBytes is the cache-line size in bytes.
const LineBytes = 64

// MaxWays is the largest supported associativity: one bit per way in the
// per-set valid and dirty masks.
const MaxWays = 64

// Stats aggregates cache event counters.
type Stats struct {
	Hits        uint64
	Misses      uint64
	Writebacks  uint64 // dirty evictions sent to memory
	EagerWrites uint64 // eager writebacks issued
	// HitsByPos counts hits by LRU stack position (0 = MRU).
	HitsByPos []uint64
}

// Cache is a set-associative write-back LLC. It is not safe for concurrent
// use.
type Cache struct {
	// tags is the tag lane: entry set*ways+pos holds the tag of the line at
	// LRU stack position pos of that set (0 = MRU). valid[set] and
	// dirty[set] hold that set's line state, bit pos for position pos. A
	// dirty bit is only ever set together with its valid bit.
	tags     []uint64
	valid    []uint64
	dirty    []uint64
	setCount int
	ways     int
	setMask  uint64
	// setShift is log2(setCount), hoisted at construction so the per-access
	// locate/reconstruct pair shifts by a constant instead of recounting
	// bits.
	setShift uint
	stats    Stats

	// eagerCursor remembers where the eager-victim scan left off so
	// repeated scans cover the whole cache round-robin.
	eagerCursor int
}

// New constructs a cache of sizeBytes capacity with the given associativity.
// sizeBytes must be a positive multiple of ways*LineBytes and yield a
// power-of-two set count; ways must not exceed MaxWays.
func New(sizeBytes, ways int) (*Cache, error) {
	if sizeBytes <= 0 || ways <= 0 {
		return nil, fmt.Errorf("cache: invalid size %d / ways %d", sizeBytes, ways)
	}
	if ways > MaxWays {
		return nil, fmt.Errorf("cache: %d ways exceeds the %d-way limit", ways, MaxWays)
	}
	lines := sizeBytes / LineBytes
	if lines*LineBytes != sizeBytes || lines%ways != 0 {
		return nil, fmt.Errorf("cache: size %d not divisible into %d-way sets of %d-byte lines", sizeBytes, ways, LineBytes)
	}
	setCount := lines / ways
	if setCount&(setCount-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d is not a power of two", setCount)
	}
	c := &Cache{
		tags:     make([]uint64, setCount*ways),
		valid:    make([]uint64, setCount),
		dirty:    make([]uint64, setCount),
		setCount: setCount,
		ways:     ways,
		setMask:  uint64(setCount - 1),
		setShift: uint(log2(setCount)),
	}
	c.stats.HitsByPos = make([]uint64, ways)
	return c, nil
}

// Name identifies the cache as the front tier of the memory hierarchy
// (hierarchy.Tier).
func (c *Cache) Name() string { return "llc" }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.setCount }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	s := c.stats
	s.HitsByPos = append([]uint64(nil), c.stats.HitsByPos...)
	return s
}

// ResetStats clears the counters (the cache contents are preserved).
func (c *Cache) ResetStats() {
	hist := c.stats.HitsByPos
	for i := range hist {
		hist[i] = 0
	}
	c.stats = Stats{HitsByPos: hist}
}

func (c *Cache) locate(addr uint64) (setIdx int, tag uint64) {
	lineAddr := addr / LineBytes
	return int(lineAddr & c.setMask), lineAddr >> c.setShift //mctlint:ignore cyclecast masked value is bounded by the set count
}

func log2(n int) int {
	k := 0
	for n > 1 {
		n >>= 1
		k++
	}
	return k
}

// Result describes the memory-side consequences of one cache access.
type Result struct {
	Hit bool
	// Miss fill: the line address fetched from memory (valid when !Hit).
	FillAddr uint64
	// Writeback reports a dirty eviction; WritebackAddr is its line-aligned
	// byte address.
	Writeback     bool
	WritebackAddr uint64
}

// Access performs a load (write=false) or store (write=true) at addr and
// returns what the memory system must do: nothing (hit), a fill (read
// miss), and possibly a dirty writeback (victim eviction). It is on the
// simulator's per-access hot path: the probe walks the set's tag lane, and
// the LRU update moves the set's valid and dirty bits in step with its tags.
func (c *Cache) Access(addr uint64, write bool) Result {
	setIdx, tag := c.locate(addr)
	base := setIdx * c.ways
	tags := c.tags[base : base+c.ways]
	valid, dirty := c.valid[setIdx], c.dirty[setIdx]

	for pos := range tags {
		if tags[pos] == tag && valid>>uint(pos)&1 != 0 {
			c.stats.Hits++
			c.stats.HitsByPos[pos]++
			// Move to MRU.
			copy(tags[1:pos+1], tags[:pos])
			tags[0] = tag
			c.valid[setIdx] = promote(valid, pos)
			dirty = promote(dirty, pos)
			if write {
				dirty |= 1
			}
			c.dirty[setIdx] = dirty
			return Result{Hit: true}
		}
	}

	// Miss: evict LRU (last position), fill at MRU.
	c.stats.Misses++
	res := Result{FillAddr: addr &^ uint64(LineBytes-1)}
	last := c.ways - 1
	lruBit := uint64(1) << uint(last)
	if dirty&lruBit != 0 {
		c.stats.Writebacks++
		res.Writeback = true
		res.WritebackAddr = c.reconstruct(setIdx, tags[last])
	}
	copy(tags[1:], tags[:last])
	tags[0] = tag
	c.valid[setIdx] = (valid&^lruBit)<<1 | 1
	dirty = (dirty &^ lruBit) << 1
	if write {
		dirty |= 1
	}
	c.dirty[setIdx] = dirty
	return res
}

// promote moves bit pos of a set's line-state mask to bit 0 (MRU) and
// shifts bits [0,pos) up by one, mirroring the tag lane's move to MRU; bits
// above pos are unchanged.
func promote(m uint64, pos int) uint64 {
	below := uint64(1)<<uint(pos) - 1
	return m&^(below<<1|1) | (m&below)<<1 | m>>uint(pos)&1
}

func (c *Cache) reconstruct(setIdx int, tag uint64) uint64 {
	return (tag<<c.setShift | uint64(setIdx)) * LineBytes
}

// UselessPositions returns how many LRU stack positions (from the
// least-recently-used end) are considered useless for eager writeback: the
// positions outside the minimal MRU prefix that accumulates at least
// 1/eagerThreshold of all hits. A larger eagerThreshold shrinks the
// protected prefix, classifying more positions as useless — more eager
// writebacks, higher performance, shorter lifetime, matching the
// aggressiveness direction stated in §3.1. With no hits at all every
// position is useless.
func (c *Cache) UselessPositions(eagerThreshold int) int {
	if eagerThreshold <= 0 {
		return 0
	}
	var total uint64
	for _, h := range c.stats.HitsByPos {
		total += h
	}
	if total == 0 {
		return c.ways
	}
	need := float64(total) / float64(eagerThreshold)
	var cum uint64
	protected := 0
	for pos := 0; pos < c.ways; pos++ {
		protected++
		cum += c.stats.HitsByPos[pos]
		if float64(cum) >= need {
			break
		}
	}
	return c.ways - protected
}

// NextEagerVictim scans up to maxSets sets (round-robin from where the last
// scan stopped) for a dirty line residing in one of the uselessN
// least-recently-used positions. If found, the line is marked clean (its
// data is now considered written back — a later store re-dirties it, making
// the eager write wasted wear, as in the paper), and its address is
// returned; within a set the useless position closest to MRU is taken
// first. Each skipped set costs one test of its dirty mask.
func (c *Cache) NextEagerVictim(uselessN, maxSets int) (addr uint64, ok bool) {
	if uselessN <= 0 {
		return 0, false
	}
	if uselessN > c.ways {
		uselessN = c.ways
	}
	if maxSets <= 0 || maxSets > c.setCount {
		maxSets = c.setCount
	}
	first := c.ways - uselessN // shallowest useless position
	wrap := c.setCount - 1
	dirty := c.dirty
	cursor := c.eagerCursor
	for scanned := 0; scanned < maxSets; scanned++ {
		setIdx := cursor
		cursor = (cursor + 1) & wrap
		if d := dirty[setIdx] >> uint(first); d != 0 {
			c.eagerCursor = cursor
			pos := first + bits.TrailingZeros64(d)
			dirty[setIdx] &^= 1 << uint(pos)
			c.stats.EagerWrites++
			return c.reconstruct(setIdx, c.tags[setIdx*c.ways+pos]), true
		}
	}
	c.eagerCursor = cursor
	return 0, false
}

// Clone returns a deep copy of the cache — contents, statistics and scan
// cursor. Cloning a warmed cache lets many configuration evaluations share
// one warmup (cache state does not depend on the NVM configuration).
func (c *Cache) Clone() *Cache {
	n := &Cache{
		tags:        append([]uint64(nil), c.tags...),
		valid:       append([]uint64(nil), c.valid...),
		dirty:       append([]uint64(nil), c.dirty...),
		setCount:    c.setCount,
		ways:        c.ways,
		setMask:     c.setMask,
		setShift:    c.setShift,
		eagerCursor: c.eagerCursor,
	}
	n.stats = c.stats
	n.stats.HitsByPos = append([]uint64(nil), c.stats.HitsByPos...)
	return n
}

// DirtyLines counts the dirty lines currently resident (test/diagnostic
// helper).
func (c *Cache) DirtyLines() int {
	n := 0
	for _, d := range c.dirty {
		n += bits.OnesCount64(d)
	}
	return n
}
