package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"mct/internal/config"
	"mct/internal/sim"
	"mct/internal/trace"
)

// smallRecording records accesses of app under the static baseline (eager
// writebacks on), after the default warmup, with or without the DRAM tier.
func smallRecording(t *testing.T, app string, withDRAM bool, accesses int) *recording {
	t.Helper()
	spec, err := trace.ByName(app)
	if err != nil {
		t.Fatal(err)
	}
	opt := sim.DefaultOptions()
	opt.Tiers.DRAMCache = withDRAM
	cfg := config.StaticBaseline()
	comp, err := newComposition(spec, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	comp.warmup(sim.DefaultWarmupAccesses)
	rec, err := comp.record(app, func(c *composition) error {
		c.runAccesses(accesses)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := sim.NewMachine(spec, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	warm.Warmup(sim.DefaultWarmupAccesses)
	rec.machine = func() (*sim.Machine, time.Duration, error) {
		m := warm.Clone()
		t0 := time.Now()
		m.RunAccesses(accesses)
		return m, time.Since(t0), nil
	}
	rec.stepHasDrain = true
	var tl tally
	if _, err := checkMachine(&tl, rec, comp.counters()); err != nil || tl.failed != 0 {
		t.Fatalf("%s (dram %v): %v %v", app, withDRAM, err, tl.notes)
	}
	return rec
}

// byLayer returns the attributed layers by name.
func (c layerCosts) byLayer() map[string]float64 {
	return map[string]float64{"trace": c.fill, "cache": c.cache, "dram": c.dram, "nvm": c.nvm}
}

// TestSlowedLayerIsFlagged injects a delay into one layer's replay at a
// time and checks that the extra time is attributed to that layer: its
// per-access cost rises by about the injected delay, more than any other
// layer's.
func TestSlowedLayerIsFlagged(t *testing.T) {
	recs := []*recording{
		smallRecording(t, "lbm", false, 20_000),
		smallRecording(t, "stream", true, 20_000),
	}
	// Medians of five replay rounds each, as the traced run takes them.
	measure := func(slow slowdown) layerCosts {
		_, c, bad, err := measureLayers(recs, sim.DefaultOptions().EagerScanSets, time.Now(), 5, slow)
		if err != nil {
			t.Fatal(err)
		}
		if bad != 0 {
			t.Fatalf("slowdown %+v: %d replay responses differ from the recording", slow, bad)
		}
		return c
	}
	base := measure(slowdown{})
	t.Logf("per-access ns: %+v, unattributed %.3f", base, base.unattributed())
	if u := base.unattributed(); u > closureTolerance || u < -closureTolerance {
		t.Errorf("closure: unattributed share %.3f outside ±%.2f (%+v)", u, closureTolerance, base)
	}
	const per = 400 * time.Nanosecond
	for _, layer := range []string{"trace", "cache", "dram", "nvm"} {
		b, s := base.byLayer(), measure(slowdown{layer: layer, per: per}).byLayer()
		flagged, most := "", 0.0
		for name := range b {
			if d := s[name] - b[name]; d > most {
				flagged, most = name, d
			}
		}
		if flagged != layer {
			t.Errorf("slowed %s, but the largest rise is %s (+%.1f ns/access); before %v, after %v", layer, flagged, most, b, s)
		}
		if most < float64(per)/10 {
			t.Errorf("slowed %s by %v per call, but it rose by only %.1f ns/access", layer, per, most)
		}
	}
}

// TestBenchmarkJSONMatchesLayers checks BENCHMARK.json against the
// benchmark's own tables.
func TestBenchmarkJSONMatchesLayers(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, layers.go %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, lm := range layerMetrics {
		if got := spec.PerLayer[i]; got != (entry{lm.name, lm.unit, lm.better}) {
			t.Errorf("per_layer[%d] = %+v, layers.go has %+v", i, got, lm)
		}
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %d", names, len(workloads))
	}
	for i, w := range workloads {
		if names[i] != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, names[i], w.name)
		}
	}
	want := map[string]string{"setup_s": "s", "wall_s": "s", "alloc_mib": "MiB", "job_p50_s": "s"}
	// Every layer metric names the end-to-end metric and the workload it
	// should move (or says it moves none).
	for _, lm := range layerMetrics {
		if strings.HasPrefix(lm.moves, "none") {
			continue
		}
		if !containsAny(lm.moves, []string{"setup_s", "wall_s", "alloc_mib", "job_p50_s"}) || !containsAny(lm.moves, names) {
			t.Errorf("%s: %q names no end-to-end metric and workload", lm.name, lm.moves)
		}
	}
	for _, e := range spec.EndToEnd {
		if want[e.Name] != e.Unit || e.Better != "lower" {
			t.Errorf("end_to_end %+v not reported by the benchmark with that unit", e)
		}
		delete(want, e.Name)
	}
	if len(want) != 0 {
		t.Errorf("BENCHMARK.json lacks end-to-end metrics %v", want)
	}
}

func containsAny(s string, subs []string) bool {
	for _, sub := range subs {
		if strings.Contains(s, sub) {
			return true
		}
	}
	return false
}
