// Command sepbench is the repository's benchmark: it runs one verifier
// workload for a fixed time, checks every verdict, and prints its metrics.
//
//	bash sepbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// run.sh builds this package from source and runs it from the repository
// root. Workloads:
//
//	randomized-kernel   randomized checking of the honest kernel and the
//	                    planted leaks, witness capture/replay and triage
//	exhaustive-minisue  2-shard exhaustive sweeps of the MiniSUE targets
//	                    with shard artifacts written, read back and merged
//	watch-cycles        sepwatch cycles with a /status scrape after every
//	                    ledger append
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics; with --trace 1 the run first measures untraced,
// then repeats the same passes with timing decorators on the model systems
// and spans around each module call, checks that both runs reached
// byte-identical verdicts, and reports per-layer metrics per job. The lines
// before the JSON are a human-readable report: every metric with its unit,
// the workload-specific metrics, non-test lines of code per module and the
// run's provenance.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/minisue"
	"repro/internal/verifysys"
)

// workload is one benchmark workload. A pass is a fixed, seeded set of jobs;
// runs measure whole passes.
type workload interface {
	// setup prepares fresh state under dir; it is repeated to time set-up.
	setup(dir string) error
	// warmup runs unmeasured work so lazy set-up and heap growth finish
	// before timing.
	warmup()
	// pass runs pass p's jobs, tracing into sp when it is non-nil.
	pass(p int, sp *spans) []job
}

// job is one unit of work with its oracle verdict.
type job struct {
	dur     time.Duration
	kind    int    // which of the pass's jobs this is: configuration, target or cycle
	checks  int    // condition instances verified
	err     error  // non-nil when the oracle rejected the job
	fp      string // verdict fingerprint, compared between traced and untraced runs
	scrapes []scrape
}

// timeJob runs fn as one job and records its duration.
func timeJob(fn func(j *job) error) job {
	var j job
	t0 := time.Now()
	j.err = fn(&j)
	j.dur = time.Since(t0)
	return j
}

// window is one measured stretch of whole passes.
type window struct {
	jobs    []job
	passes  int
	wall    time.Duration
	mallocs uint64
	bytes   uint64
	sp      *spans
}

// measure runs passes until the deadline has passed (passes == 0) or
// exactly passes passes, always finishing the pass in progress.
func measure(w workload, sp *spans, d time.Duration, passes int) *window {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	win := &window{sp: sp}
	t0 := time.Now()
	deadline := t0.Add(d)
	for p := 0; ; p++ {
		if passes > 0 && p == passes || passes == 0 && p > 0 && !time.Now().Before(deadline) {
			break
		}
		win.jobs = append(win.jobs, w.pass(p, sp)...)
		win.passes++
	}
	win.wall = time.Since(t0)
	runtime.ReadMemStats(&m1)
	win.mallocs = m1.Mallocs - m0.Mallocs
	win.bytes = m1.TotalAlloc - m0.TotalAlloc
	return win
}

func (win *window) jobSeconds() []float64 {
	out := make([]float64, len(win.jobs))
	for i, j := range win.jobs {
		out[i] = j.dur.Seconds()
	}
	return out
}

// jobP50 is the geometric mean over job kinds of each kind's median time.
// A pass mixes kinds whose times differ several-fold, so a median over all
// jobs falls at the edge of one kind and moves with the pass count; the
// median of each kind does not.
func (win *window) jobP50() float64 {
	kinds := win.kindSeconds()
	logSum := 0.0
	for _, xs := range kinds {
		logSum += math.Log(quantile(xs, 0.5))
	}
	return math.Exp(logSum / float64(max(len(kinds), 1)))
}

// kindSeconds groups the job times by kind, in kind order.
func (win *window) kindSeconds() [][]float64 {
	byKind := map[int][]float64{}
	for _, j := range win.jobs {
		byKind[j.kind] = append(byKind[j.kind], j.dur.Seconds())
	}
	kinds := make([]int, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Ints(kinds)
	out := make([][]float64, len(kinds))
	for i, k := range kinds {
		out[i] = byKind[k]
	}
	return out
}

func (win *window) scrapes() []scrape {
	var out []scrape
	for _, j := range win.jobs {
		out = append(out, j.scrapes...)
	}
	return out
}

func (win *window) checks() int {
	n := 0
	for _, j := range win.jobs {
		n += j.checks
	}
	return n
}

// failures lists the oracle failures of jobs and scrapes.
func (win *window) failures() []string {
	var out []string
	for i, j := range win.jobs {
		if j.err != nil {
			out = append(out, fmt.Sprintf("job %d: %v", i, j.err))
		}
	}
	for i, s := range win.scrapes() {
		if s.err != nil {
			out = append(out, fmt.Sprintf("scrape %d: %v", i, s.err))
		}
	}
	return out
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupReps is how many times set-up is timed; setup_s is the median.
const setupReps = 21

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "randomized-kernel, exhaustive-minisue or watch-cycles")
	seed := flag.Int64("seed", 1, "seed all inputs are derived from")
	seconds := flag.Float64("seconds", 10, "measured time per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	scratch := flag.String("scratch", ".bench_build", "directory for the run's temporary files")
	flag.Parse()
	if *trace != 0 && *trace != 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "sepbench: --trace must be 0 or 1 and --seconds positive")
		return 2
	}
	var w workload
	switch *name {
	case "randomized-kernel":
		w = &randomizedKernel{seed: *seed}
	case "exhaustive-minisue":
		w = &exhaustiveMinisue{seed: *seed}
	case "watch-cycles":
		w = &watchCycles{seed: *seed}
	default:
		fmt.Fprintf(os.Stderr, "sepbench: unknown workload %q\n", *name)
		return 2
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "sepbench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(*scratch, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "sepbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	fmt.Printf("workload %s seed %d seconds %g trace %d\n", *name, *seed, *seconds, *trace)
	fmt.Printf("provenance go=%s GOMAXPROCS=%d nproc=%d revision=%s\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), revision())
	for _, m := range locModules {
		n, err := countLines(m)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sepbench: counting lines:", err)
			return 1
		}
		fmt.Printf("loc %-28s %6d\n", m, n)
	}

	var selfErrs []string
	if err := checkFidelity(); err != nil {
		selfErrs = append(selfErrs, "decorator fidelity: "+err.Error())
	}

	setups := make([]float64, setupReps)
	for i := range setups {
		// Each set-up starts from a collected heap, so the garbage left by
		// the previous one does not decide when the collector runs.
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(filepath.Join(tmp, fmt.Sprint("setup-", i))); err != nil {
			fmt.Fprintln(os.Stderr, "sepbench: setup:", err)
			return 1
		}
		setups[i] = time.Since(t0).Seconds()
	}
	w.warmup()

	d := time.Duration(*seconds * float64(time.Second))
	res := result{Metrics: map[string]metric{}}
	var wins []*window
	if *trace == 0 {
		win := measure(w, nil, d, 0)
		wins = append(wins, win)
		endToEnd(res.Metrics, win, quantile(setups, 0.5))
	} else {
		base := measure(w, nil, d/2, 0)
		traced := measure(w, &spans{}, 0, base.passes)
		wins = append(wins, base, traced)
		selfErrs = append(selfErrs, compareVerdicts(base, traced)...)
		perLayer(res.Metrics, base, traced)
	}

	var fails []string
	for _, win := range wins {
		res.Attempted += len(win.jobs) + len(win.scrapes())
		fails = append(fails, win.failures()...)
	}
	res.Failed = len(fails) + len(selfErrs)
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if rk, ok := w.(*randomizedKernel); ok {
		// A missed leak is also a failed job, so it already clears Correct.
		caught := len(rk.configs) - 1
		for _, c := range rk.caught {
			caught = min(caught, c)
		}
		fmt.Printf("metric %-28s %14d of %d (fewest in any pass)\n", "leaks_caught", caught, len(rk.configs)-1)
	}
	fmt.Printf("metric %-28s %14.6g (%d failed of %d attempted)\n", "error_rate",
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	for i, f := range append(selfErrs, fails...) {
		if i == 20 {
			fmt.Printf("FAIL ... %d more\n", res.Failed-i)
			break
		}
		fmt.Println("FAIL", f)
	}
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("metric %-28s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sepbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// checkFidelity runs the decorator fidelity check on a kernel adapter and a
// MiniSUE system.
func checkFidelity() error {
	a, err := verifysys.FromSpec(verifysys.SpecFor("", true, false))
	if err != nil {
		return err
	}
	return fidelity(a, minisue.New(minisue.Secure))
}

// endToEnd fills the metrics a user of the verifier sees, and prints the
// workload-specific ones that are not in every workload's result.
func endToEnd(m map[string]metric, win *window, setup float64) {
	js := win.jobSeconds()
	n := float64(len(win.jobs))
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	m["setup_s"] = metric{setup, "s"}
	m["job_s.p50"] = metric{win.jobP50(), "s"}
	m["checks_per_s"] = metric{float64(win.checks()) / win.wall.Seconds(), "1/s"}
	m["allocs_per_job"] = metric{float64(win.mallocs) / n, "count"}
	m["alloc_mb_per_job"] = metric{float64(win.bytes) / n / (1 << 20), "MB"}
	m["peak_rss_mb"] = metric{float64(ru.Maxrss) / 1024, "MB"}

	fmt.Printf("metric %-28s %14d jobs in %d passes, %.3f s wall\n", "jobs", len(win.jobs), win.passes, win.wall.Seconds())
	fmt.Printf("metric %-28s %14.6g s over all jobs (job_s.p50 is the geometric mean of per-kind medians)\n",
		"job_s.median", quantile(js, 0.5))
	for k, xs := range win.kindSeconds() {
		fmt.Printf("metric %-28s %14.6g s (kind %d, n=%d, p25 %.6g, p75 %.6g)\n", "job_s.kind.p50",
			quantile(xs, 0.5), k, len(xs), quantile(xs, 0.25), quantile(xs, 0.75))
	}
	if len(js) >= 100 {
		fmt.Printf("metric %-28s %14.6g s (n=%d)\n", "job_s.p90", quantile(js, 0.9), len(js))
	} else {
		fmt.Printf("metric %-28s %14s (n=%d < 100 jobs)\n", "job_s.p90", "n/a", len(js))
	}
	if scrapes := win.scrapes(); len(scrapes) > 0 {
		lat := make([]float64, len(scrapes))
		for i, s := range scrapes {
			lat[i] = float64(s.latency) / float64(time.Millisecond)
		}
		fmt.Printf("metric %-28s %14.6g ms (n=%d, %.4g scrapes per cycle, one per ledger append)\n", "status_ms.p50",
			quantile(lat, 0.5), len(lat), float64(len(lat))/n)
		fmt.Printf("metric %-28s %14.6g ms (n=%d)\n", "status_ms.p90", quantile(lat, 0.9), len(lat))
	}
}

// compareVerdicts checks that the traced window reached byte-identical
// verdicts, witness IDs and shard-result IDs to the untraced one.
func compareVerdicts(base, traced *window) []string {
	if len(base.jobs) != len(traced.jobs) {
		return []string{fmt.Sprintf("traced run ran %d jobs, untraced %d", len(traced.jobs), len(base.jobs))}
	}
	var out []string
	for i := range base.jobs {
		if base.jobs[i].fp != traced.jobs[i].fp {
			out = append(out, fmt.Sprintf("job %d: traced verdict %q, untraced %q",
				i, traced.jobs[i].fp, base.jobs[i].fp))
		}
	}
	return out
}

// layerMetric is one per-layer metric: a total over a traced window,
// reported per job.
type layerMetric struct {
	name, unit string
	total      func(win *window) float64
}

func spanS(l layer) func(*window) float64 {
	return func(win *window) float64 { return float64(win.sp.a[l].ns) / 1e9 }
}

func spanSelfS(l layer) func(*window) float64 {
	return func(win *window) float64 { return float64(win.sp.a[l].selfNs) / 1e9 }
}

func spanCalls(l layer) func(*window) float64 {
	return func(win *window) float64 { return float64(win.sp.a[l].calls) }
}

func countOf(c count, scale float64) func(*window) float64 {
	return func(win *window) float64 { return float64(win.sp.n[c]) * scale }
}

// layerMetrics are reported per job of the traced window (per scrape where
// the unit says so). Each is 0 on a workload that bypasses its layer.
var layerMetrics = []layerMetric{
	{"kernel.step.calls", "calls/job", spanCalls(kStep)},
	{"kernel.step.s", "s/job", spanS(kStep)},
	{"kernel.digest.calls", "calls/job", spanCalls(kDigest)},
	{"kernel.digest.s", "s/job", spanS(kDigest)},
	{"kernel.abstract.calls", "calls/job", spanCalls(kAbstract)},
	{"kernel.abstract.s", "s/job", spanS(kAbstract)},
	{"kernel.perturb.s", "s/job", spanS(kPerturb)},
	{"kernel.input.s", "s/job", spanS(kInput)},
	{"kernel.randomize.s", "s/job", spanS(kRandomize)},
	{"kernel.extract.s", "s/job", spanS(kExtract)},
	{"kernel.checkpoint.calls", "calls/job", spanCalls(kCheckpoint)},
	{"kernel.checkpoint.s", "s/job", spanS(kCheckpoint)},
	{"kernel.saverestore.calls", "calls/job", spanCalls(kSaveRestore)},
	{"kernel.saverestore.s", "s/job", spanS(kSaveRestore)},
	{"kernel.control.s", "s/job", spanS(kControl)},
	{"kernel.codec.s", "s/job", spanS(kCodec)},
	{"separability.randomized.s", "s/job", spanS(sRandomized)},
	{"separability.randomized.self_s", "s/job", spanSelfS(sRandomized)},
	{"minisue.abstract.calls", "calls/job", spanCalls(mAbstract)},
	{"minisue.abstract.s", "s/job", spanS(mAbstract)},
	{"minisue.extract.calls", "calls/job", spanCalls(mExtract)},
	{"minisue.extract.s", "s/job", spanS(mExtract)},
	{"minisue.step.s", "s/job", spanS(mStep)},
	{"minisue.input.s", "s/job", spanS(mInput)},
	{"minisue.saverestore.calls", "calls/job", spanCalls(mSaveRestore)},
	{"minisue.saverestore.s", "s/job", spanS(mSaveRestore)},
	{"minisue.control.s", "s/job", spanS(mControl)},
	{"minisue.enumerate.s", "s/job", spanS(mEnumerate)},
	{"separability.shard.s", "s/job", spanS(sShard)},
	{"separability.shard.self_s", "s/job", spanSelfS(sShard)},
	{"separability.shard_write.s", "s/job", spanS(sShardWrite)},
	{"separability.shard_read.s", "s/job", spanS(sShardRead)},
	{"separability.merge.s", "s/job", spanS(sMerge)},
	{"separability.shard_bytes", "B/job", countOf(cShardBytes, 1)},
	{"witness.capture.s", "s/job", spanS(wCapture)},
	{"witness.count", "count/job", countOf(cWitnesses, 1)},
	{"witness.steps", "count/job", countOf(cWitnessSteps, 1)},
	{"witness.shrink_replays", "count/job", countOf(cShrinkReplays, 1)},
	{"witness.replay.s", "s/job", spanS(wReplay)},
	{"staticflow.analyze.s", "s/job", spanS(fAnalyze)},
	{"triage.classify.s", "s/job", spanS(tClassify)},
	{"separability.trial.s", "s/job", countOf(cTrialNs, 1e-9)},
	{"watch.cycle.self_s", "s/job", countOf(cCycleSelfNs, 1e-9)},
	{"watch.ledger.bytes", "B/job", countOf(cLedgerBytes, 1)},
	{"watch.status.calls", "calls/job", func(win *window) float64 { return float64(len(win.scrapes())) }},
	{"watch.status.s", "s/job", func(win *window) float64 {
		var ns int64
		for _, s := range win.scrapes() {
			ns += int64(s.latency - s.late)
		}
		return float64(ns) / 1e9
	}},
	{"verifysys.build.s", "s/job", spanS(vBuild)},
}

// perLayer fills the per-layer metrics of the traced window, the
// per-scrape watch metrics and the tracing overhead against the untraced
// window over the same passes.
func perLayer(m map[string]metric, base, traced *window) {
	n := float64(max(len(traced.jobs), 1))
	for _, lm := range layerMetrics {
		m[lm.name] = metric{lm.total(traced) / n, lm.unit}
	}
	var late, records float64
	scrapes := traced.scrapes()
	for _, s := range scrapes {
		late += s.late.Seconds()
		records += float64(s.records)
	}
	ns := float64(max(len(scrapes), 1))
	m["watch.scrape_late_s"] = metric{late / ns, "s/scrape"}
	m["watch.ledger.records"] = metric{records / ns, "records/scrape"}
	m["trace.overhead"] = metric{traced.jobP50()/base.jobP50() - 1, "ratio"}
	fmt.Printf("traced %d jobs in %d passes; untraced job_s.p50 %.6g s, traced %.6g s\n", len(traced.jobs),
		traced.passes, base.jobP50(), traced.jobP50())
}
