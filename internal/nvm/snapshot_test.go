package nvm

import (
	"math/rand"
	"reflect"
	"testing"

	"mct/internal/config"
)

// applyTraffic drives a deterministic mixed op sequence derived from seed,
// starting at time start, and returns the final time. Used to replay the
// identical workload onto a controller and its clone/restored twin.
func applyTraffic(c *Controller, seed int64, n int, start uint64) uint64 {
	rng := rand.New(rand.NewSource(seed))
	now := start
	for i := 0; i < n; i++ {
		now += uint64(rng.Intn(120))
		addr := uint64(rng.Intn(1<<14)) * 64
		switch rng.Intn(4) {
		case 0, 1:
			c.Read(addr, now)
		case 2:
			c.Write(addr, now)
		default:
			c.EagerWrite(addr, now)
		}
	}
	return now
}

// observable flattens everything a controller exposes for equality checks.
type observable struct {
	Now       uint64
	WriteQLen int
	EagerQLen int
	Stats     Stats
	Config    config.Config
}

func observe(c *Controller) observable {
	return observable{
		Now:       c.Now(),
		WriteQLen: c.WriteQueueLen(),
		EagerQLen: c.EagerQueueLen(),
		Stats:     c.Stats(),
		Config:    c.Config(),
	}
}

// TestControllerCloneEquivalence: a clone taken mid-simulation, driven with
// the identical remaining workload, produces byte-identical observable
// state — including after a full drain.
func TestControllerCloneEquivalence(t *testing.T) {
	for _, cfg := range []config.Config{
		config.Default(),
		config.StaticBaseline(),
	} {
		c := mustNew(t, cfg, smallParams())
		mid := applyTraffic(c, 11, 800, 0)

		cl := c.Clone()
		endA := applyTraffic(c, 12, 800, mid)
		endB := applyTraffic(cl, 12, 800, mid)
		if endA != endB {
			t.Fatalf("replay times diverged: %d vs %d", endA, endB)
		}
		c.Drain(endA)
		cl.Drain(endB)
		if a, b := observe(c), observe(cl); !reflect.DeepEqual(a, b) {
			t.Errorf("clone diverged from parent under identical traffic\nparent: %+v\nclone:  %+v", a, b)
		}
	}
}

// TestControllerCloneIsolation: churning a clone leaves every observable
// bit of the parent untouched.
func TestControllerCloneIsolation(t *testing.T) {
	c := mustNew(t, config.StaticBaseline(), smallParams())
	mid := applyTraffic(c, 21, 600, 0)

	before := observe(c)
	cl := c.Clone()
	end := applyTraffic(cl, 22, 2000, mid)
	cl.Drain(end)
	if err := cl.SetConfig(config.Default()); err != nil {
		t.Fatal(err)
	}
	if after := observe(c); !reflect.DeepEqual(before, after) {
		t.Errorf("clone activity perturbed the parent\nbefore: %+v\nafter:  %+v", before, after)
	}
}

// TestControllerSnapshotRoundTrip: FromSnapshot(c.Snapshot()) continues the
// identical simulation, including in-flight ops and queued writes.
func TestControllerSnapshotRoundTrip(t *testing.T) {
	c := mustNew(t, config.StaticBaseline(), smallParams())
	mid := applyTraffic(c, 31, 900, 0)

	r, err := FromSnapshot(c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	endA := applyTraffic(c, 32, 900, mid)
	endB := applyTraffic(r, 32, 900, mid)
	c.Drain(endA)
	r.Drain(endB)
	if a, b := observe(c), observe(r); !reflect.DeepEqual(a, b) {
		t.Errorf("snapshot round trip diverged\noriginal: %+v\nrestored: %+v", a, b)
	}
}

// TestFromSnapshotValidates rejects geometry-inconsistent snapshots rather
// than building a controller that would index out of bounds.
func TestFromSnapshotValidates(t *testing.T) {
	c := mustNew(t, config.Default(), smallParams())
	applyTraffic(c, 41, 200, 0)

	good := c.Snapshot()
	if _, err := FromSnapshot(good); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}

	bad := c.Snapshot()
	bad.Banks = bad.Banks[:len(bad.Banks)-1]
	if _, err := FromSnapshot(bad); err == nil {
		t.Error("bank-count mismatch accepted")
	}

	bad = c.Snapshot()
	bad.Tokens = append(bad.Tokens, 0)
	if _, err := FromSnapshot(bad); err == nil {
		t.Error("token-count mismatch accepted")
	}

	bad = c.Snapshot()
	bad.Stats.WearByBank = nil
	if _, err := FromSnapshot(bad); err == nil {
		t.Error("wear-vector mismatch accepted")
	}
}

// TestFromSnapshotRejectsCorruptQueues feeds snapshots whose queue totals
// or in-flight token disagree with the rest of the state to the restore
// path: each must fail there with an error, not load and panic later.
func TestFromSnapshotRejectsCorruptQueues(t *testing.T) {
	c := mustNew(t, config.StaticBaseline(), smallParams())
	end := applyTraffic(c, 61, 400, 0)
	for i := uint64(0); i < 4; i++ { // back-to-back writes to one row queue up
		c.Write(i*64, end)
	}
	good := c.Snapshot()
	opBank := -1
	for i, b := range good.Banks {
		if b.Op != nil {
			opBank = i
			break
		}
	}
	if opBank < 0 || good.WriteQLen == 0 {
		t.Fatalf("test traffic left no in-flight op (bank %d) or no queued write (%d)", opBank, good.WriteQLen)
	}

	cases := []struct {
		name    string
		corrupt func(s *Snapshot)
	}{
		{"write queue length too high", func(s *Snapshot) { s.WriteQLen++ }},
		{"write queue length too low", func(s *Snapshot) { s.WriteQLen-- }},
		{"eager queue length too high", func(s *Snapshot) { s.EagerQLen++ }},
		{"negative eager queue length", func(s *Snapshot) { s.EagerQLen = -1 }},
		{"token past the last", func(s *Snapshot) { s.Banks[opBank].Op.Token = len(s.Tokens) }},
		{"negative token", func(s *Snapshot) { s.Banks[opBank].Op.Token = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := c.Snapshot()
			tc.corrupt(&bad)
			if _, err := FromSnapshot(bad); err == nil {
				t.Error("corrupt snapshot accepted")
			}
		})
	}
}

// TestStatsCloneIsDeep: mutating a cloned Stats' slice/map never shows up
// in the original.
func TestStatsCloneIsDeep(t *testing.T) {
	c := mustNew(t, config.StaticBaseline(), smallParams())
	end := applyTraffic(c, 51, 500, 0)
	c.Drain(end)

	orig := c.Stats()
	cl := orig.Clone()
	if !reflect.DeepEqual(orig, cl) {
		t.Fatalf("clone not equal to original:\n%+v\n%+v", orig, cl)
	}
	if len(cl.WearByBank) == 0 || len(cl.WritesByRatio) == 0 {
		t.Fatal("test traffic produced no writes; wear/ratio maps empty")
	}
	cl.WearByBank[0] += 42
	for k := range cl.WritesByRatio {
		cl.WritesByRatio[k] += 7
	}
	if reflect.DeepEqual(orig.WearByBank, cl.WearByBank) || reflect.DeepEqual(orig.WritesByRatio, cl.WritesByRatio) {
		t.Error("Stats.Clone shares backing storage with the original")
	}
}
