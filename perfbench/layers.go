package main

import (
	"fmt"
	"sort"
	"time"
)

// layerMetric is one per-layer metric of the traced run, with the
// end-to-end metric it should move and on which workloads.
type layerMetric struct {
	name, unit, better string
	moves              string
}

// layerMetrics lists every per-layer metric. BENCHMARK.json's per_layer
// list must match it (checked by TestBenchmarkJSONMatchesLayers). Prefixes
// are the repository's module names; "bench" is the benchmark itself.
var layerMetrics = []layerMetric{
	{"trace.fill_ns_per_access", "ns", "lower", "wall_s on sweep and mct-online"},
	{"cache.access_ns", "ns", "lower", "wall_s, alloc_mib on sweep"},
	{"cache.eager_scan_ns", "ns", "lower", "wall_s on sweep"},
	{"cache.clone_us", "us", "lower", "wall_s, alloc_mib on sweep"},
	{"cache.hit_ratio", "ratio", "higher", "wall_s on sweep"},
	{"nvm.read_ns", "ns", "lower", "wall_s on sweep and mct-online"},
	{"nvm.write_ns", "ns", "lower", "wall_s on sweep and mct-online"},
	{"nvm.eager_write_ns", "ns", "lower", "wall_s on sweep and mct-online"},
	{"nvm.drain_us", "us", "lower", "wall_s on sweep"},
	{"nvm.clone_us", "us", "lower", "wall_s, alloc_mib on sweep"},
	{"nvm.calls_per_kaccess", "calls/kaccess", "lower", "wall_s on sweep and mct-online; little on hybrid-job"},
	{"dram.read_ns", "ns", "lower", "wall_s, job_p50_s on hybrid-job"},
	{"dram.write_ns", "ns", "lower", "wall_s, job_p50_s on hybrid-job"},
	{"dram.clone_us", "us", "lower", "wall_s, job_p50_s on hybrid-job"},
	{"dram.hit_ratio", "ratio", "higher", "wall_s, job_p50_s on hybrid-job"},
	{"sim.step_ns_per_access", "ns", "lower", "wall_s on sweep and mct-online"},
	{"sim.unattributed_frac", "ratio", "lower", "wall_s on sweep and mct-online"},
	{"sim.clone_us", "us", "lower", "wall_s, alloc_mib on sweep"},
	{"sim.prepare_ms", "ms", "lower", "wall_s, job_p50_s on sweep"},
	{"sim.evaluate_ms_p50", "ms", "lower", "wall_s, job_p50_s on sweep"},
	{"sim.evaluate_ms_p99", "ms", "lower", "wall_s on sweep"},
	{"sim.run_window_us", "us", "lower", "wall_s on mct-online"},
	{"sim.checkpoint_save_ms", "ms", "lower", "job_p50_s on hybrid-job"},
	{"sim.checkpoint_load_ms", "ms", "lower", "job_p50_s on hybrid-job"},
	{"sim.checkpoint_bytes", "bytes", "lower", "job_p50_s, alloc_mib on hybrid-job"},
	{"engine.busy_frac", "ratio", "higher", "wall_s on sweep"},
	{"core.machine_frac", "ratio", "higher", "wall_s on mct-online"},
	{"core.decide_ms", "ms", "lower", "wall_s, job_p50_s on mct-online"},
	{"core.windows", "count", "lower", "wall_s on mct-online"},
	{"ml.fit_ms", "ms", "lower", "wall_s on mct-online"},
	{"ml.predict_ns", "ns", "lower", "wall_s on mct-online"},
	{"ml.predict_all_ms", "ms", "lower", "wall_s on mct-online"},
	{"ml.predict_all_allocs", "count", "lower", "alloc_mib on mct-online"},
	{"server.execute_s", "s", "lower", "job_p50_s on hybrid-job"},
	{"server.checkpoint_frac", "ratio", "lower", "job_p50_s on hybrid-job"},
	{"server.overhead_ms", "ms", "lower", "job_p50_s on hybrid-job"},
	{"server.queue_wait_ms", "ms", "lower", "job_p50_s on hybrid-job"},
	{"bench.trace_overhead_s", "s", "lower", "none: traced minus untraced wall time of one round"},
}

// closureTolerance bounds |sim.unattributed_frac|: the layers' replayed
// costs times their call counts must explain the step loop's time within
// this share.
const closureTolerance = 0.25

// layerCosts is the per-access cost of every stream layer over a set of
// recordings, in ns.
type layerCosts struct {
	fill, cache, dram, nvm, step float64
}

func (c layerCosts) unattributed() float64 {
	return 1 - (c.fill+c.cache+c.dram+c.nvm)/c.step
}

// replayRound replays every recording's layers once and returns the
// per-access costs and the per-call figures of this round. bad counts
// responses that differ from the recording.
func replayRound(recs []*recording, scanSets int, timerNs time.Duration, slow slowdown) (layerCosts, map[string]float64, int, error) {
	var (
		acc                                        int
		fill, cacheFull, cacheAcc, dramT, nvmT, st time.Duration
		accessCalls, uselessCalls                  int
		nvmK, dramK                                memTimes
		bad                                        int
	)
	for _, r := range recs {
		acc += r.accesses
		fill += replayFill(r, slow.on("trace"))
		full, b := replayCache(r, false, scanSets, slow.on("cache"))
		bad += b
		only, _ := replayCache(r, true, scanSets, slow.on("cache"))
		cacheFull += full
		cacheAcc += only
		for i := range r.llcCalls {
			switch r.llcCalls[i].kind {
			case opAccess:
				accessCalls++
			case opUseless:
				uselessCalls++
			}
		}
		nt := replayMem(r.newNVM, r.nvmCalls, r.configureNVM, timerNs, slow.on("nvm"))
		bad += nt.bad
		nvmT += nt.total
		addTimes(&nvmK, nt)
		if !r.stepHasDrain {
			nvmT -= nt.byKind[opDrain]
		}
		if r.dram != nil {
			dt := replayMem(r.newDRAM, r.dramCalls, nil, timerNs, slow.on("dram"))
			bad += dt.bad
			dramT += dt.total
			addTimes(&dramK, dt)
			if !r.stepHasDrain {
				dramT -= dt.byKind[opDrain]
			}
		}
		_, d, err := r.machine()
		if err != nil {
			return layerCosts{}, nil, bad, err
		}
		st += d
	}
	if acc == 0 {
		return layerCosts{}, nil, bad, fmt.Errorf("no accesses recorded")
	}
	per := func(d time.Duration) float64 { return float64(d) / float64(acc) }
	costs := layerCosts{fill: per(fill), cache: per(cacheFull), dram: per(dramT), nvm: per(nvmT), step: per(st)}
	m := map[string]float64{
		"trace.fill_ns_per_access": costs.fill,
		"cache.access_ns":          float64(cacheAcc) / float64(max(accessCalls, 1)),
		"sim.step_ns_per_access":   costs.step,
		"sim.unattributed_frac":    costs.unattributed(),
	}
	if uselessCalls > 0 {
		m["cache.eager_scan_ns"] = float64(cacheFull-cacheAcc) / float64(uselessCalls)
	}
	perCall(m, "nvm", nvmK)
	perCall(m, "dram", dramK)
	return costs, m, bad, nil
}

func addTimes(dst *memTimes, t memTimes) {
	dst.total += t.total
	for k := range t.byKind {
		dst.byKind[k] += t.byKind[k]
		dst.count[k] += t.count[k]
	}
}

// perCall adds a tier's per-call costs for the kinds it received. The
// DRAM tier's writes are its Write and EagerWrite calls together: an
// eager-writeback configuration can send it no plain writes at all.
func perCall(m map[string]float64, tier string, t memTimes) {
	if n := t.count[opRead]; n > 0 {
		m[tier+".read_ns"] = float64(t.byKind[opRead]) / float64(n)
	}
	if tier == "dram" {
		if n := t.count[opWrite] + t.count[opEager]; n > 0 {
			m["dram.write_ns"] = float64(t.byKind[opWrite]+t.byKind[opEager]) / float64(n)
		}
		return
	}
	if n := t.count[opWrite]; n > 0 {
		m["nvm.write_ns"] = float64(t.byKind[opWrite]) / float64(n)
	}
	if n := t.count[opEager]; n > 0 {
		m["nvm.eager_write_ns"] = float64(t.byKind[opEager]) / float64(n)
	}
	if n := t.count[opDrain]; n > 0 {
		m["nvm.drain_us"] = float64(t.byKind[opDrain]) / float64(n) / 1e3
	}
}

// measureLayers replays the recordings round after round until the
// deadline (at least minRounds) and returns the median of every figure,
// the median costs, and the count of mismatched responses.
func measureLayers(recs []*recording, scanSets int, until time.Time, minRounds int, slow slowdown) (map[string]float64, layerCosts, int, error) {
	timerNs := timerCost()
	vals := map[string][]float64{}
	var fill, cache, dramC, nvmC, step []float64
	bad := 0
	for i := 0; i < minRounds || time.Now().Before(until); i++ {
		c, m, b, err := replayRound(recs, scanSets, timerNs, slow)
		if err != nil {
			return nil, layerCosts{}, 0, err
		}
		bad += b
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			vals[k] = append(vals[k], m[k])
		}
		fill, cache = append(fill, c.fill), append(cache, c.cache)
		dramC, nvmC, step = append(dramC, c.dram), append(nvmC, c.nvm), append(step, c.step)
	}
	out := map[string]float64{}
	for k, v := range vals {
		out[k] = median(v)
	}
	costs := layerCosts{fill: median(fill), cache: median(cache), dram: median(dramC), nvm: median(nvmC), step: median(step)}
	// Counts and ratios of the recorded streams themselves.
	var acc, nvmCalls int
	var llcHits, llcLookups, dramHits, dramLookups uint64
	for _, r := range recs {
		acc += r.accesses
		for i := range r.nvmCalls {
			switch r.nvmCalls[i].kind {
			case opRead, opWrite, opEager, opDrain:
				nvmCalls++
			}
		}
		llcHits, llcLookups = llcHits+r.llcHits, llcLookups+r.llcLookups
		dramHits, dramLookups = dramHits+r.dramHits, dramLookups+r.dramLookups
	}
	out["nvm.calls_per_kaccess"] = 1000 * float64(nvmCalls) / float64(acc)
	out["cache.hit_ratio"] = float64(llcHits) / float64(max(llcLookups, 1))
	if dramLookups > 0 {
		out["dram.hit_ratio"] = float64(dramHits) / float64(dramLookups)
	}
	return out, costs, bad, nil
}
