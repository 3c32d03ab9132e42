// Command perfbench is the MCT reproduction's benchmark. It runs one
// workload for a fixed time and prints, as the last line of standard
// output, one JSON object: whether every operation's simulated output was
// correct, how many operations were attempted and failed, and the metrics.
//
// Usage, from the root of a checkout:
//
//	bash perfbench/run.sh --workload sweep --seed 1 --seconds 30 --trace 0
//
// Workloads (all load from this one process, at most nproc goroutines):
//
//   - sweep: warm-clone brute-force configuration sweeps of all ten apps
//     (experiments.RunSweep, sweep caches off) on nproc workers.
//   - mct-online: one core.Runtime.Run per app over all ten apps, serially,
//     with the default gboost model and phase detection on.
//   - hybrid-job: an in-process mctd driven over loopback HTTP by one
//     closed-loop client submitting DRAM-tier evaluate jobs.
//
// With --trace 0 it reports the end-to-end metrics, all in host time:
// setup_s (median of batches of set-ups), alloc_mib (median over the
// rounds of the workload's fixed unit of work), wall_s (median round time)
// and job_p50_s (median latency of one job: one app's sweep, one runtime,
// or one daemon job from submit to artifact). The times leave out rounds
// during which the host stole markedly more CPU time than in the calmest
// one (calmRounds). With --trace 1 it runs the separate traced run of
// traced.go and reports the per-layer metrics listed in layers.go.
//
// The simulator is deterministic, so simulated statistics are correctness
// checks, not metrics: every operation's output is digested and compared
// with golden.json at the default seed, and across rounds at any seed. The
// model has no real-hardware reference in this repository, so it is
// unvalidated and no accuracy figure is reported.
package main

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the seed golden.json records digests for.
const defaultSeed = 1

// setupBatchTime is the length of one batch of back-to-back set-ups. A
// batch runs before every round; setup_s is the median batch mean over the
// calm rounds (see calmRounds). Batching keeps set-ups of a few microseconds
// as steady as those of milliseconds, and spreading the batches over the
// run lets them share the rounds' selection by host steal.
const setupBatchTime = 20 * time.Millisecond

func nproc() int { return runtime.NumCPU() }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// meta is the run metadata printed on the line before the result.
type meta struct {
	Workload   string    `json:"workload"`
	Seed       int64     `json:"seed"`
	Seconds    int       `json:"seconds"`
	Trace      int       `json:"trace"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	NProc      int       `json:"nproc"`
	CPU        string    `json:"cpu"`
	GoVersion  string    `json:"go_version"`
	Commit     string    `json:"commit"`
	Rounds     int       `json:"rounds"`
	RoundWalls []float64 `json:"round_walls,omitempty"`
	RoundCPUs  []float64 `json:"round_cpus,omitempty"`
	RoundSteal []float64 `json:"round_steal,omitempty"`
	Ops        int       `json:"ops"`
	// Notes carries the traced run's checks (fidelity, closure) and the
	// failures, one line each.
	Notes []string `json:"notes,omitempty"`
}

func main() {
	// Worker pools default to GOMAXPROCS; capping it at nproc keeps the
	// benchmark's load within nproc goroutines.
	if runtime.GOMAXPROCS(0) > nproc() {
		runtime.GOMAXPROCS(nproc())
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: sweep, mct-online or hybrid-job")
	seed := fl.Int64("seed", defaultSeed, "input seed")
	seconds := fl.Int("seconds", 20, "measured time in seconds")
	traced := fl.Int("trace", 0, "0: end-to-end metrics; 1: the traced run's per-layer metrics")
	record := fl.Bool("record-golden", false, "run two rounds at the default seed and record their digests in perfbench/golden.json")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		return 2
	}
	gold, err := loadGolden()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	dir := stateDirPath()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	if *record {
		if err := recordGolden(ctx, w, dir); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}

	md := meta{
		Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *traced,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: nproc(),
		CPU: cpuModel(), GoVersion: runtime.Version(), Commit: commit(),
	}
	var (
		res  result
		rerr error
	)
	deadline := time.Duration(*seconds) * time.Second
	if *traced == 1 {
		res, rerr = runTraced(ctx, w, *seed, deadline, dir, gold, &md)
	} else {
		res, rerr = runEndToEnd(ctx, w, *seed, deadline, dir, gold, &md)
	}
	if rerr != nil {
		fmt.Fprintln(stderr, "perfbench:", rerr)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(md); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// checker counts operations and failures. At the default seed an
// operation fails when its digest differs from golden.json; at any seed
// when it differs from the same operation's digest in an earlier round,
// or when it returned an error.
type checker struct {
	golden map[string]string // nil when the seed has no recorded digests
	first  map[string]string
	ops    int
	failed int
	notes  []string
}

func newChecker(gold goldenFile, workload string, seed int64) *checker {
	c := &checker{first: map[string]string{}}
	if seed == defaultSeed {
		c.golden = gold.Digests[workload]
		if c.golden == nil {
			c.golden = map[string]string{}
		}
	}
	return c
}

func (c *checker) check(rs []opResult) {
	for _, r := range rs {
		c.ops++
		if msg := c.problem(r); msg != "" {
			c.failed++
			if len(c.notes) < 10 {
				c.notes = append(c.notes, msg)
			}
		}
	}
}

func (c *checker) problem(r opResult) string {
	if r.err != nil {
		return fmt.Sprintf("%s: %v", r.name, r.err)
	}
	if c.golden != nil {
		if want, ok := c.golden[r.name]; !ok || want != r.digest {
			return fmt.Sprintf("%s: digest %s, golden %q", r.name, r.digest, want)
		}
	}
	if prev, ok := c.first[r.name]; ok && prev != r.digest {
		return fmt.Sprintf("%s: digest %s differs from an earlier round's %s", r.name, r.digest, prev)
	}
	c.first[r.name] = r.digest
	return ""
}

// setupBatch sets the workload up back to back for setupBatchTime and
// returns the mean set-up time in seconds. It closes every instance but,
// with keep, the last, which it returns.
func setupBatch(ctx context.Context, w workload, seed int64, dir string, keep bool) (instance, float64, error) {
	var spent time.Duration
	for n := 1; ; n++ {
		t0 := time.Now()
		in, err := w.setup(ctx, seed, dir)
		spent += time.Since(t0)
		if err != nil {
			return nil, 0, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		done := spent >= setupBatchTime
		if done && keep {
			return in, spent.Seconds() / float64(n), nil
		}
		if err := in.close(); err != nil {
			return nil, 0, err
		}
		if done {
			return nil, spent.Seconds() / float64(n), nil
		}
	}
}

// roundStat is one round of the timed body.
type roundStat struct {
	// setup is the mean set-up time of the batch run just before the
	// round.
	setup, wall, alloc, cpu float64
	// steal is the share of the host's CPU ticks stolen from this virtual
	// machine during the round.
	steal float64
	lats  []float64
}

// runEndToEnd sets the workload up, then runs rounds until the measured
// time is used up (at least two, so every seed gets a run-to-run identity
// check). alloc_mib is the median over all rounds; the times come from
// the calm rounds (see calmRounds).
func runEndToEnd(ctx context.Context, w workload, seed int64, budget time.Duration, dir string, gold goldenFile, md *meta) (result, error) {
	in, _, err := setupBatch(ctx, w, seed, dir, true)
	if err != nil {
		return result{}, err
	}
	chk := newChecker(gold, w.name, seed)
	var rounds []roundStat
	var walls []float64
	start := time.Now()
	for len(rounds) < 2 || time.Since(start)+time.Duration(median(walls)*float64(time.Second)) <= budget {
		if err := ctx.Err(); err != nil {
			return result{}, errJoinClose(err, in)
		}
		s0, h0 := hostSteal()
		_, setup, err := setupBatch(ctx, w, seed, dir, false)
		if err != nil {
			return result{}, errJoinClose(err, in)
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		c0 := cpuSeconds()
		t0 := time.Now()
		rs := in.round(ctx)
		st := roundStat{setup: setup, wall: time.Since(t0).Seconds(), cpu: cpuSeconds() - c0}
		s1, h1 := hostSteal()
		runtime.ReadMemStats(&ms1)
		st.steal = float64(s1-s0) / float64(max(h1-h0, 1))
		st.alloc = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
		for _, r := range rs {
			st.lats = append(st.lats, r.latency.Seconds())
		}
		chk.check(rs)
		rounds = append(rounds, st)
		walls = append(walls, st.wall)
		md.RoundWalls = append(md.RoundWalls, st.wall)
		md.RoundCPUs = append(md.RoundCPUs, st.cpu)
		md.RoundSteal = append(md.RoundSteal, st.steal)
	}
	if err := in.close(); err != nil {
		return result{}, err
	}
	var allocs, setups, calmWalls, lats []float64
	for _, st := range rounds {
		allocs = append(allocs, st.alloc)
	}
	for _, st := range calmRounds(rounds) {
		setups = append(setups, st.setup)
		calmWalls = append(calmWalls, st.wall)
		lats = append(lats, st.lats...)
	}
	md.Rounds, md.Ops, md.Notes = len(rounds), chk.ops, chk.notes
	return result{
		Correct:   chk.failed == 0,
		Attempted: chk.ops,
		Failed:    chk.failed,
		Metrics: map[string]metric{
			"setup_s":   {median(setups), "s"},
			"wall_s":    {median(calmWalls), "s"},
			"alloc_mib": {median(allocs), "MiB"},
			"job_p50_s": {median(lats), "s"},
		},
	}, nil
}

// stealSlack is how much more of the host's CPU may be stolen during a
// round than during the run's calmest round for the round's times to
// count.
const stealSlack = 0.02

// calmRounds returns the rounds during which the host stole at most
// stealSlack more CPU time from this virtual machine than during the
// calmest round. On a shared host, round times rise with the steal share
// (measured here: from about 2.7 s at 3% steal to 4.6 s at 30% for one
// sweep round), which is noise from other tenants, not a property of the
// program. Without steal accounting every round counts.
func calmRounds(rounds []roundStat) []roundStat {
	lo := slices.MinFunc(rounds, func(a, b roundStat) int { return cmp.Compare(a.steal, b.steal) }).steal
	var calm []roundStat
	for _, r := range rounds {
		if r.steal <= lo+stealSlack {
			calm = append(calm, r)
		}
	}
	return calm
}

func errJoinClose(err error, in instance) error {
	if cerr := in.close(); cerr != nil {
		return fmt.Errorf("%w (close: %v)", err, cerr)
	}
	return err
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// hostSteal returns the host's stolen and total CPU ticks from /proc/stat.
func hostSteal() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// cpuModel reads the CPU model name, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit identifies the code under test: the VCS revision ("+dirty" with
// uncommitted changes) when the binary was built inside a repository,
// otherwise a digest of every Go source file and go.mod under the working
// directory (the checkout root).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", p, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "src-" + hex.EncodeToString(h.Sum(nil)[:8])
}
