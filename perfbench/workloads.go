package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"mct/api"
	"mct/internal/config"
	"mct/internal/core"
	"mct/internal/experiments"
	"mct/internal/rng"
	"mct/internal/server"
	"mct/internal/sim"
	"mct/internal/trace"
)

// Work sizes of one round. They are constants, not flags, so that a
// round's simulated output is a pure function of the seed and the golden
// digests in golden.json stay meaningful.
const (
	// sweepAccesses and sweepStride are experiments.QuickOptions: the
	// fidelity every quick experiment sweeps at.
	sweepAccesses = 8_000
	sweepStride   = 23
	// onlineInsts is the instruction budget of one MCT runtime.
	onlineInsts = 10_000_000
	// jobInsts is the measured instruction budget of one hybrid job; at
	// server.DefaultChunkInsts the daemon checkpoints it five times.
	jobInsts = 5_000_000
	// lifetimeTarget is the default objective's lifetime floor (years).
	lifetimeTarget = 8
)

// jobApps are the hybrid-job benchmarks: two streaming apps the DRAM tier
// absorbs (lbm, stream), one mixed (milc) and one low-MPKI app (zeusmp).
// Each gets two jobs a round, so a round's cost averages over eight drawn
// configurations.
var jobApps = []string{"lbm", "milc", "stream", "zeusmp", "lbm", "milc", "stream", "zeusmp"}

// opResult is the outcome of one operation: one app's sweep, one runtime,
// or one daemon job.
type opResult struct {
	name    string
	digest  string
	latency time.Duration
	err     error
}

// instance is one set-up workload, ready to run rounds.
type instance interface {
	// round runs the workload's fixed unit of work once.
	round(ctx context.Context) []opResult
	// close releases everything setup acquired.
	close() error
}

// workload describes one benchmark workload: how to set it up, and its
// traced procedure (traced.go).
type workload struct {
	name  string
	setup func(ctx context.Context, seed int64, dir string) (instance, error)
	trace func(ctx context.Context, p pathRun) (map[string]float64, error)
}

var workloads = []workload{
	{name: "sweep", setup: setupSweep, trace: traceSweep},
	{name: "mct-online", setup: setupOnline, trace: traceOnline},
	{name: "hybrid-job", setup: setupJob, trace: traceJob},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// digestOf hashes the printed form of v. fmt prints maps in sorted key
// order and floats in shortest round-trip form, so equal values give
// equal digests.
func digestOf(v any) string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v", v)
	return hex.EncodeToString(h.Sum(nil)[:12])
}

func digestBytes(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:12])
}

// ---- sweep ----------------------------------------------------------------

type sweepInstance struct {
	opt experiments.Options
}

func sweepOptions(seed int64) experiments.Options {
	o := experiments.DefaultOptions()
	o.Accesses = sweepAccesses
	o.Stride = sweepStride
	o.LifetimeTarget = lifetimeTarget
	o.Seed = seed
	return o
}

func setupSweep(_ context.Context, seed int64, _ string) (instance, error) {
	// Sweep caches stay off: no disk cache, and the in-process cache is
	// reset before every round.
	if err := os.Unsetenv("MCT_SWEEP_CACHE"); err != nil {
		return nil, err
	}
	opt := sweepOptions(seed)
	for _, b := range opt.Benchmarks {
		if _, err := trace.ByName(b); err != nil {
			return nil, err
		}
	}
	if err := checkSpace(config.SpaceOptions{}); err != nil {
		return nil, err
	}
	return &sweepInstance{opt: opt}, nil
}

// checkSpace checks that a workload's configuration space enumerates.
func checkSpace(o config.SpaceOptions) error {
	if config.NewSpace(o).Len() == 0 {
		return fmt.Errorf("empty configuration space %+v", o)
	}
	return nil
}

func (s *sweepInstance) round(ctx context.Context) []opResult {
	experiments.ResetSweepCache()
	out := make([]opResult, 0, len(s.opt.Benchmarks))
	for _, b := range s.opt.Benchmarks {
		t0 := time.Now()
		sw, err := experiments.RunSweep(ctx, b, false, s.opt)
		r := opResult{name: b, latency: time.Since(t0), err: err}
		if err == nil {
			r.digest = sweepDigest(sw.Indices, sw.Metrics, sw.Baseline, sw.Default)
		}
		out = append(out, r)
	}
	return out
}

func sweepDigest(indices []int, ms []sim.Metrics, baseline, def sim.Metrics) string {
	return digestOf([]any{indices, ms, baseline, def})
}

func (s *sweepInstance) close() error { return nil }

// ---- mct-online -------------------------------------------------------------

type onlineInstance struct {
	seed  int64
	specs []trace.Spec
	obj   core.Objective
	ro    core.Options
}

// onlineOptions is the Fig. 7 runtime: the default gboost model with phase
// detection on.
func onlineOptions(seed int64) core.Options {
	ro := core.DefaultOptions()
	ro.EnablePhaseDetection = true
	ro.Seed = seed
	return ro
}

func onlineSimOptions(seed int64) sim.Options {
	o := sim.DefaultOptions()
	o.Seed = seed
	return o
}

func setupOnline(_ context.Context, seed int64, _ string) (instance, error) {
	in := &onlineInstance{seed: seed, obj: core.Default(lifetimeTarget), ro: onlineOptions(seed)}
	if err := in.obj.Validate(); err != nil {
		return nil, err
	}
	if err := in.ro.Validate(); err != nil {
		return nil, err
	}
	if err := checkSpace(in.ro.Space); err != nil {
		return nil, err
	}
	for _, b := range trace.Names() {
		spec, err := trace.ByName(b)
		if err != nil {
			return nil, err
		}
		in.specs = append(in.specs, spec)
	}
	return in, nil
}

func (o *onlineInstance) round(_ context.Context) []opResult {
	out := make([]opResult, 0, len(o.specs))
	for _, spec := range o.specs {
		t0 := time.Now()
		res, err := runOnline(spec, o.seed, o.obj, o.ro, nil)
		r := opResult{name: spec.Name, latency: time.Since(t0), err: err}
		if err == nil {
			r.digest = digestOf(res)
		}
		out = append(out, r)
	}
	return out
}

// runOnline runs one MCT runtime on a fresh machine. wrap, when non-nil,
// interposes on the machine (the traced run's timing wrapper).
func runOnline(spec trace.Spec, seed int64, obj core.Objective, ro core.Options, wrap func(*sim.Machine) core.System) (core.Result, error) {
	m, err := sim.NewMachine(spec, config.StaticBaseline(), onlineSimOptions(seed))
	if err != nil {
		return core.Result{}, err
	}
	var sys core.System = m
	if wrap != nil {
		sys = wrap(m)
	}
	rt, err := core.New(sys, obj, ro)
	if err != nil {
		return core.Result{}, err
	}
	return rt.Run(onlineInsts)
}

func (o *onlineInstance) close() error { return nil }

// ---- hybrid-job -------------------------------------------------------------

// jobSpecs draws the hybrid jobs of a seed: for each of jobApps a
// configuration from the learning space and a DRAM promotion threshold.
func jobSpecs(seed int64) []api.JobSpec {
	r := rng.New(seed)
	space := config.NewSpace(config.SpaceOptions{})
	thresholds := config.PromoteThresholdGrid
	specs := make([]api.JobSpec, 0, len(jobApps))
	for _, app := range jobApps {
		cfg := api.FromConfig(space.At(r.Intn(space.Len())))
		specs = append(specs, api.JobSpec{
			V:                    api.Version,
			Kind:                 api.KindEvaluate,
			Benchmark:            app,
			Config:               &cfg,
			Insts:                jobInsts,
			DRAMCache:            true,
			DRAMPromoteThreshold: thresholds[r.Intn(len(thresholds))],
		})
	}
	return specs
}

// jobInstance is an in-process mctd: server.New plus its Handler on a
// loopback listener, driven by one closed-loop client over one connection.
type jobInstance struct {
	specs  []api.JobSpec
	dir    string
	hs     *http.Server
	base   string
	client *http.Client
	cancel context.CancelFunc
	// wg tracks the runner and the HTTP server goroutines; each sends its
	// exit error on exits.
	wg    sync.WaitGroup
	exits chan error
}

func setupJob(ctx context.Context, seed int64, dir string) (instance, error) {
	specs := jobSpecs(seed)
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, err
		}
	}
	state, err := os.MkdirTemp(dir, "mctd-state-")
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Options{StateDir: state})
	if err != nil {
		return nil, errors.Join(err, os.RemoveAll(state))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, os.RemoveAll(state))
	}
	rctx, cancel := context.WithCancel(ctx)
	j := &jobInstance{
		specs: specs,
		dir:   state,
		hs:    &http.Server{Handler: srv.Handler()},
		base:  "http://" + ln.Addr().String(),
		// One connection; the timeout turns a hung daemon into a failed
		// job instead of a hung benchmark.
		client: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
			Timeout:   time.Minute,
		},
		cancel: cancel,
		exits:  make(chan error, 2), // one send from each goroutine
	}
	j.wg.Add(2)
	go func() {
		defer j.wg.Done()
		j.exits <- srv.Run(rctx)
	}()
	go func() {
		defer j.wg.Done()
		j.exits <- j.hs.Serve(ln)
	}()
	if _, err := j.get("/healthz"); err != nil {
		return nil, errors.Join(err, j.close())
	}
	return j, nil
}

func (j *jobInstance) get(path string) ([]byte, error) {
	resp, err := j.client.Get(j.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, strings.TrimSpace(string(body)))
	}
	return body, nil
}

// jobTimes are the client-side timestamps of one job.
type jobTimes struct {
	submitted time.Time // submit response received
	running   time.Time // first frame reporting the job running or finished
}

// runJob submits spec, follows its event stream to the terminal frame and
// fetches the artifact: one closed-loop request cycle.
func (j *jobInstance) runJob(spec api.JobSpec) ([]byte, jobTimes, error) {
	var tm jobTimes
	resp, err := j.client.Post(j.base+"/v1/jobs", "application/json", bytes.NewReader(api.Encode(spec)))
	if err != nil {
		return nil, tm, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, tm, err
	}
	if resp.StatusCode != http.StatusCreated {
		return nil, tm, fmt.Errorf("submit: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	tm.submitted = time.Now()
	st, err := api.DecodeJobStatus(body)
	if err != nil {
		return nil, tm, err
	}
	state, err := j.follow(st.ID, &tm)
	if err != nil {
		return nil, tm, err
	}
	if state != api.StateDone {
		return nil, tm, fmt.Errorf("job %s ended %s", st.ID, state)
	}
	art, err := j.get("/v1/jobs/" + st.ID + "/artifact")
	return art, tm, err
}

// follow reads the job's SSE stream until the terminal status frame and
// returns the terminal state.
func (j *jobInstance) follow(id string, tm *jobTimes) (string, error) {
	resp, err := j.client.Get(j.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events %s: %s", id, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var e api.Event
		if err := json.Unmarshal([]byte(data), &e); err != nil {
			return "", err
		}
		if e.Kind != "status" {
			continue
		}
		if tm.running.IsZero() && e.Text != api.StateQueued {
			tm.running = time.Now()
		}
		if e.Text == api.StateDone || e.Text == api.StateFailed {
			// Drain the rest so the connection can be reused.
			_, err := io.Copy(io.Discard, resp.Body)
			return e.Text, err
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("events %s: stream ended before a terminal frame", id)
}

func (j *jobInstance) round(_ context.Context) []opResult {
	out := make([]opResult, 0, len(j.specs))
	for i, spec := range j.specs {
		t0 := time.Now()
		art, _, err := j.runJob(spec)
		r := opResult{name: fmt.Sprintf("%d-%s", i, spec.Benchmark), latency: time.Since(t0), err: err}
		if err == nil {
			r.digest = digestBytes(art)
		}
		out = append(out, r)
	}
	return out
}

// close stops the runner and the HTTP server, waits for both, and removes
// the state directory.
func (j *jobInstance) close() error {
	j.cancel()
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errs := []error{j.hs.Shutdown(sctx)}
	j.wg.Wait()
	for i := 0; i < 2; i++ {
		if err := <-j.exits; !errors.Is(err, context.Canceled) && !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	j.client.CloseIdleConnections()
	errs = append(errs, os.RemoveAll(j.dir))
	return errors.Join(errs...)
}

// stateDirPath is where a workload keeps files: inside the checkout, under
// the benchmark's build directory.
func stateDirPath() string { return filepath.Join(".bench_build", "perfbench-run") }
