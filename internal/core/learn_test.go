package core

import (
	"math"
	"testing"

	"mct/internal/config"
	"mct/internal/sim"
)

func sampleMetrics(ipc, life, energy float64) sim.Metrics {
	return sim.Metrics{IPC: ipc, LifetimeYears: life, EnergyJ: energy, Instructions: 1}
}

func TestTradeoffModelFitPredict(t *testing.T) {
	tm, err := NewTradeoffModel("gboost")
	if err != nil {
		t.Fatal(err)
	}
	if tm.Name() != "gboost" || tm.Fitted() {
		t.Fatal("fresh model state wrong")
	}

	// Synthetic relationship: IPC falls with fast latency, lifetime grows
	// quadratically, energy grows with latency.
	space := config.NewSpace(config.SpaceOptions{})
	var samples []config.Config
	var measured []sim.Metrics
	for i := 0; i < space.Len(); i += 25 {
		c := space.At(i)
		ipc := 1.0 / c.FastLatency
		life := 4 * c.FastLatency * c.SlowLatency
		energy := 0.01 * (1 + 0.2*c.SlowLatency)
		samples = append(samples, c)
		measured = append(measured, sampleMetrics(ipc, life, energy))
	}
	baseline := sampleMetrics(0.5, 10, 0.012)
	if err := tm.Fit(samples, measured, baseline); err != nil {
		t.Fatal(err)
	}
	if !tm.Fitted() {
		t.Fatal("model must be fitted")
	}

	// Predictions must approximately recover the synthetic law.
	probe := config.Config{FastLatency: 2, SlowLatency: 3, BankAware: true, BankAwareThreshold: 2}
	got := tm.Predict(probe)
	if math.Abs(got[MetricIPC]-0.5) > 0.1 {
		t.Fatalf("IPC prediction %v, want ≈0.5", got[MetricIPC])
	}
	if math.Abs(got[MetricLifetime]-24) > 6 {
		t.Fatalf("lifetime prediction %v, want ≈24", got[MetricLifetime])
	}

	preds := tm.PredictAll(space)
	if len(preds) != space.Len() {
		t.Fatal("PredictAll length mismatch")
	}
	// The batched path predicts exactly what Predict does, bit for bit.
	for i, p := range preds {
		want := tm.Predict(space.At(i))
		for m := range p {
			if math.Float64bits(p[m]) != math.Float64bits(want[m]) {
				t.Fatalf("config %d metric %d: PredictAll %v, Predict %v", i, m, p[m], want[m])
			}
		}
	}
}

// TestPredictAllIntoZeroAllocs: once the space's feature matrix exists,
// predicting the whole space into a caller-owned buffer allocates nothing.
func TestPredictAllIntoZeroAllocs(t *testing.T) {
	space := config.NewSpace(config.SpaceOptions{})
	var samples []config.Config
	var measured []sim.Metrics
	for i := 0; i < space.Len(); i += 27 {
		c := space.At(i)
		samples = append(samples, c)
		measured = append(measured, sampleMetrics(1/c.FastLatency, c.SlowLatency, c.FastLatency))
	}
	tm, err := NewTradeoffModel("gboost")
	if err != nil {
		t.Fatal(err)
	}
	if err := tm.Fit(samples, measured, sampleMetrics(1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	dst := make([][3]float64, space.Len())
	if a := testing.AllocsPerRun(5, func() { tm.PredictAllInto(space, dst) }); a != 0 {
		t.Fatalf("PredictAllInto allocates %v times per call, want 0", a)
	}
}

func TestTradeoffModelErrors(t *testing.T) {
	tm, err := NewTradeoffModel("quadratic-lasso")
	if err != nil {
		t.Fatal(err)
	}
	good := []config.Config{config.Default(), config.StaticBaseline()}
	m := []sim.Metrics{sampleMetrics(1, 8, 1), sampleMetrics(1, 8, 1)}

	if err := tm.Fit(nil, nil, sampleMetrics(1, 1, 1)); err == nil {
		t.Fatal("empty samples must fail")
	}
	if err := tm.Fit(good, m[:1], sampleMetrics(1, 1, 1)); err == nil {
		t.Fatal("length mismatch must fail")
	}
	if err := tm.Fit(good, m, sampleMetrics(0, 8, 1)); err == nil {
		t.Fatal("zero baseline must fail")
	}
	if _, err := NewTradeoffModel("nope"); err == nil {
		t.Fatal("unknown model must fail")
	}
}

func TestTradeoffModelNormalization(t *testing.T) {
	// If every sample equals the baseline, every prediction must equal
	// the baseline.
	tm, _ := NewTradeoffModel("linear")
	space := config.NewSpace(config.SpaceOptions{})
	var samples []config.Config
	var measured []sim.Metrics
	base := sampleMetrics(0.8, 12, 0.02)
	for i := 0; i < space.Len(); i += 100 {
		samples = append(samples, space.At(i))
		measured = append(measured, base)
	}
	if err := tm.Fit(samples, measured, base); err != nil {
		t.Fatal(err)
	}
	got := tm.Predict(config.StaticBaseline())
	for i, v := range got {
		want := [3]float64{0.8, 12, 0.02}[i]
		if math.Abs(v-want) > 1e-6*want {
			t.Fatalf("constant-data prediction[%d] = %v, want %v", i, v, want)
		}
	}
}
