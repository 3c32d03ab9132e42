package sim

import (
	"reflect"
	"testing"

	"mct/internal/config"
	"mct/internal/rng"
	"mct/internal/trace"
)

// measureTrace materializes a prepared workload's measurement stream from
// the warm machine's generator position, leaving the warm machine alone.
func measureTrace(p *Prepared) []trace.Access {
	return trace.Collect(trace.FromState(p.warm.cores[0].gen.Snapshot()), p.nMeasure)
}

// TestTraceDefensiveCopy: a materialized measurement stream is caller-owned
// — mutating it must perturb neither later evaluations nor later
// materializations. (The pre-streaming implementation handed out its
// internal measurement slice; a caller writing through it silently
// corrupted every subsequent evaluation.)
func TestTraceDefensiveCopy(t *testing.T) {
	p, err := Prepare("lbm", 2000, 4000, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default()
	before, err := p.Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}

	tr := measureTrace(p)
	want := append([]trace.Access(nil), tr...)
	for i := range tr {
		tr[i] = trace.Access{InstGap: 1, Addr: 0xDEAD_0000, Write: true}
	}

	after, err := p.Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Error("mutating a materialized measurement stream changed a later evaluation")
	}
	if got := measureTrace(p); !reflect.DeepEqual(got, want) {
		t.Error("mutating a materialized measurement stream changed a later materialization")
	}
}

// TestTraceIsTheMeasurementStream: the stream measureTrace materializes is exactly
// what evaluations measure — replaying it on a clone of the warm state
// yields the byte-identical metrics of Evaluate.
func TestTraceIsTheMeasurementStream(t *testing.T) {
	p, err := Prepare("ocean", 3000, 5000, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default()
	streamed, err := p.Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Replay the materialized trace on a fresh clone of the warm machine.
	m := p.warm.Clone()
	if err := m.SetConfig(cfg); err != nil {
		t.Fatal(err)
	}
	m.beginWindow()
	m.runSource(trace.NewReplay(measureTrace(p)))
	m.finishRun()
	replayed := m.windowMetrics()

	if !reflect.DeepEqual(streamed, replayed) {
		t.Errorf("materialized-trace replay diverged from the streamed evaluation:\n%+v\nvs\n%+v", streamed, replayed)
	}
}

// TestEvaluateStreamingMatchesMaterialized: the thin-wrapper contract of the
// refactor — Evaluate (incremental generation) and EvaluateSource replaying
// the equivalent materialized slice produce byte-identical metrics.
func TestEvaluateStreamingMatchesMaterialized(t *testing.T) {
	const n = 30_000
	opt := DefaultOptions()
	cfg := config.Default()
	cfg.FastCancellation = true
	cfg.SlowCancellation = true

	streamed, err := Evaluate("gups", n, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := trace.ByName("gups")
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.Collect(trace.NewGenerator(spec, rng.NewRand(opt.Seed)), n)
	materialized, err := EvaluateSource(trace.NewReplay(tr), spec, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(streamed, materialized) {
		t.Errorf("streaming Evaluate diverged from the materialized replay:\n%+v\nvs\n%+v", streamed, materialized)
	}
}

// TestRunSourceMatchesRunAccesses: stepping a machine from a replayed
// source equals stepping an identical machine from its own generator.
func TestRunSourceMatchesRunAccesses(t *testing.T) {
	const n = 20_000
	spec, err := trace.ByName("milc")
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	a, err := NewMachine(spec, config.Default(), opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewMachine(spec, config.Default(), opt)
	if err != nil {
		t.Fatal(err)
	}
	own := a.RunAccesses(n)
	tr := trace.Collect(trace.NewGenerator(spec, rng.NewRand(opt.Seed)), n)
	replay := b.RunSource(trace.NewReplay(tr))
	if !reflect.DeepEqual(own, replay) {
		t.Errorf("RunSource over the materialized stream diverged from RunAccesses:\n%+v\nvs\n%+v", own, replay)
	}
}
