package main

// Layer replays: each recorded stream is replayed alone, in a tight loop,
// on a clone of its layer's state at the start of the recording, so the
// layer being timed is the only work done. A replay also checks that the
// layer returns what it returned while recording.

import (
	"time"

	"mct/internal/hierarchy"
	"mct/internal/sim"
	"mct/internal/trace"
)

// slowdown injects a busy-wait per call into one layer's replay. The
// benchmark's own test uses it to check that a slowed layer is attributed
// to that layer; a run never sets it.
type slowdown struct {
	layer string
	per   time.Duration
}

func (s slowdown) on(layer string) time.Duration {
	if s.layer == layer {
		return s.per
	}
	return 0
}

func spin(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
	}
}

// replayFill regenerates the recording's accesses with Generator.Fill.
func replayFill(r *recording, slow time.Duration) time.Duration {
	g := r.gen.Clone()
	buf := make([]trace.Access, sim.StepBatchSize)
	t0 := time.Now()
	for n := r.accesses; n > 0; {
		k := min(len(buf), n)
		g.Fill(buf[:k])
		if slow > 0 {
			spin(slow * time.Duration(k))
		}
		n -= k
	}
	return time.Since(t0)
}

// replayCache replays the LLC stream; with accessOnly it replays only the
// cache.Access calls, leaving out the eager scans. It returns the time and
// the number of eager-scan responses that differ from the recording.
func replayCache(r *recording, accessOnly bool, scanSets int, slow time.Duration) (time.Duration, int) {
	c := r.llc.Clone()
	bad := 0
	t0 := time.Now()
	for i := range r.llcCalls {
		k := &r.llcCalls[i]
		switch k.kind {
		case opAccess:
			c.Access(k.addr, k.write)
		case opUseless:
			if !accessOnly && uint64(c.UselessPositions(k.arg)) != k.ret {
				bad++
			}
		case opVictim:
			if !accessOnly {
				if addr, ok := c.NextEagerVictim(k.arg, scanSets); addr != k.ret || ok != k.write {
					bad++
				}
			}
		}
		if slow > 0 {
			spin(slow)
		}
	}
	return time.Since(t0), bad
}

// memTimes is the outcome of one memory-tier replay.
type memTimes struct {
	total time.Duration
	// byKind and count are per call kind, from the per-call timed pass;
	// byKind is net of the timer's own cost.
	byKind [opConfig + 1]time.Duration
	count  [opConfig + 1]int
	bad    int
}

// replayMem replays calls on a fresh tier from newTier, once timed as a
// whole and once more timing every call. configure applies an opConfig
// entry.
func replayMem(newTier func() (hierarchy.Mem, *stubMem), calls []call, configure func(hierarchy.Mem, int), timerNs time.Duration, slow time.Duration) memTimes {
	var out memTimes
	t, stub := newTier()
	t0 := time.Now()
	for i := range calls {
		out.bad += applyMem(t, &calls[i], configure)
		if slow > 0 {
			spin(slow)
		}
	}
	out.total = time.Since(t0)
	if stub != nil {
		out.bad += stub.bad
	}
	t, _ = newTier()
	for i := range calls {
		k := &calls[i]
		c0 := time.Now()
		applyMem(t, k, configure)
		if slow > 0 {
			spin(slow)
		}
		out.byKind[k.kind] += time.Since(c0) - timerNs
		out.count[k.kind]++
	}
	return out
}

// applyMem performs one recorded call and reports 1 when the response
// differs from the recorded one.
func applyMem(t hierarchy.Mem, k *call, configure func(hierarchy.Mem, int)) int {
	switch k.kind {
	case opRead:
		if t.Read(k.addr, k.now) != k.ret {
			return 1
		}
	case opWrite:
		if t.Write(k.addr, k.now) != k.ret {
			return 1
		}
	case opEager:
		if t.EagerWrite(k.addr, k.now) != k.write {
			return 1
		}
	case opSpace:
		if t.EagerSpace() != k.write {
			return 1
		}
	case opDrain:
		if t.Drain(k.now) != k.ret {
			return 1
		}
	case opConfig:
		configure(t, k.arg)
	}
	return 0
}

// stubMem stands in for the tier below the DRAM tier: it returns the
// recorded responses of that tier, in order, and counts calls that differ
// from the recorded ones.
type stubMem struct {
	calls []call
	i     int
	bad   int
	// missing answers calls past the end of the recording.
	missing call
}

func (s *stubMem) next(kind uint8, addr uint64) *call {
	for s.i < len(s.calls) && s.calls[s.i].kind == opConfig {
		s.i++
	}
	if s.i >= len(s.calls) {
		s.bad++
		return &s.missing
	}
	k := &s.calls[s.i]
	s.i++
	if k.kind != kind || k.addr != addr {
		s.bad++
	}
	return k
}

func (s *stubMem) Name() string                     { return "stub" }
func (s *stubMem) Read(addr, now uint64) uint64     { return s.next(opRead, addr).ret }
func (s *stubMem) Write(addr, now uint64) uint64    { return s.next(opWrite, addr).ret }
func (s *stubMem) EagerWrite(addr, now uint64) bool { return s.next(opEager, addr).write }
func (s *stubMem) EagerSpace() bool                 { return s.next(opSpace, 0).write }
func (s *stubMem) Drain(now uint64) uint64          { return s.next(opDrain, 0).ret }

// timerCost is the median cost of one time.Now/time.Since pair, the
// overhead subtracted from every per-call timing.
func timerCost() time.Duration {
	var ds []float64
	for i := 0; i < 2001; i++ {
		t0 := time.Now()
		ds = append(ds, float64(time.Since(t0)))
	}
	return time.Duration(median(ds))
}
