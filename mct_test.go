package mct_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"mct"
)

func TestQuickstartFlow(t *testing.T) {
	ctx := context.Background()
	m, err := mct.NewMachine(ctx, "lbm", mct.StaticBaseline())
	if err != nil {
		t.Fatal(err)
	}
	ro := mct.DefaultRuntimeOptions()
	ro.SamplingTotalInsts = 900_000
	ro.SampleUnitInsts = 10_000
	ro.BaselineInsts = 100_000
	rt, err := mct.NewRuntime(ctx, m, mct.DefaultObjective(8), mct.WithRuntimeOptions(ro))
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run(3_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Testing.IPC <= 0 || res.Testing.Instructions == 0 {
		t.Fatalf("degenerate result: %+v", res.Testing)
	}
	d := res.Phases[len(res.Phases)-1].Decision
	if err := d.Chosen.Validate(); err != nil {
		t.Fatalf("chosen config invalid: %v", err)
	}
}

func TestFacadeInventory(t *testing.T) {
	if len(mct.Benchmarks()) != 10 {
		t.Fatalf("benchmarks: %v", mct.Benchmarks())
	}
	if len(mct.Mixes()) != 6 {
		t.Fatalf("mixes: %v", mct.Mixes())
	}
	if len(mct.Experiments()) < 10 {
		t.Fatalf("experiments: %v", mct.Experiments())
	}
	if got := len(mct.EnumerateConfigs(mct.SpaceOptions{})); got != 2030 {
		t.Fatalf("space size %d", got)
	}
	if mct.NewSpace(mct.SpaceOptions{IncludeWearQuota: true}).Len() != 4060 {
		t.Fatal("wear-quota space size wrong")
	}
}

func TestFacadeEvaluate(t *testing.T) {
	ctx := context.Background()
	m, err := mct.Evaluate(ctx, "zeusmp", 100_000, mct.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.IPC <= 0 {
		t.Fatalf("IPC = %v", m.IPC)
	}
	if _, err := mct.Evaluate(ctx, "nope", 100, mct.DefaultConfig()); err == nil {
		t.Fatal("unknown benchmark must error")
	}
}

func TestFacadeMixMachine(t *testing.T) {
	ctx := context.Background()
	mm, err := mct.NewMixMachine(ctx, "mix1", mct.StaticBaseline())
	if err != nil {
		t.Fatal(err)
	}
	ro := mct.DefaultRuntimeOptions()
	ro.SamplingTotalInsts = 400_000
	ro.SampleUnitInsts = 4_000
	ro.BaselineInsts = 50_000
	ro.WarmupAccesses = 100_000
	rt, err := mct.NewRuntime(ctx, mm, mct.DefaultObjective(8), mct.WithRuntimeOptions(ro))
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run(1_200_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Overall.Instructions == 0 {
		t.Fatal("multi runtime ran nothing")
	}
}

func TestRunExperimentSpace(t *testing.T) {
	ctx := context.Background()
	var buf bytes.Buffer
	opt := mct.QuickExperimentOptions()
	if _, err := mct.RunExperiment(ctx, "space", mct.WithExperimentOptions(opt), mct.WithOutput(&buf)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "2030") {
		t.Fatalf("space report wrong:\n%s", buf.String())
	}
	if _, err := mct.RunExperiment(ctx, "nope", mct.WithExperimentOptions(opt)); err == nil {
		t.Fatal("unknown experiment must error")
	}
}
