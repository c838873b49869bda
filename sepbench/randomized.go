package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/separability"
	"repro/internal/staticflow"
	"repro/internal/staticflow/triage"
	"repro/internal/verifysys"
	"repro/internal/witness"
)

// randomizedKernel is the `sepverify -witness-dir` / `sepflow -triage` loop
// over the honest kernel (cut) and the planted leaks, one job per
// configuration in sorted leak-name order (honest first).
type randomizedKernel struct {
	seed    int64
	dir     string
	configs []rkConfig
	// caught records, per pass, how many leak configurations failed.
	caught []int
}

type rkConfig struct {
	name   string // leak name, "" for the honest kernel
	spec   witness.SystemSpec
	sched  bool // E8's rule: scheduling extension for honest and SchedulerSnoop
	secure bool
}

// triageLeak is the configuration whose witnesses confirm exactly one
// residual flow of the kernel SWAP analysis (the R5 restore).
const triageLeak = "RegisterLeak"

func (r *randomizedKernel) setup(dir string) error {
	leaks := kernel.AllLeaks()
	names := []string{""}
	for n := range leaks {
		names = append(names, n)
	}
	sort.Strings(names)
	r.dir, r.configs = dir, nil
	for _, n := range names {
		c := rkConfig{name: n, spec: verifysys.SpecFor(n, true, false),
			sched: n == "" || leaks[n].SchedulerSnoop, secure: n == ""}
		if _, err := verifysys.FromSpec(c.spec); err != nil {
			return err
		}
		r.configs = append(r.configs, c)
	}
	return nil
}

func (r *randomizedKernel) warmup() { r.pass(-1, nil) }

func (r *randomizedKernel) pass(p int, sp *spans) []job {
	seed := deriveSeed(r.seed, p)
	cleanPass := false
	caught := 0
	jobs := make([]job, 0, len(r.configs))
	for i, c := range r.configs {
		j := r.job(p, seed, c, sp, &cleanPass)
		j.kind = i
		if c.name != "" && j.err == nil {
			caught++
		}
		jobs = append(jobs, j)
	}
	if p >= 0 {
		r.caught = append(r.caught, caught)
	}
	// The stores are per pass; dropping them keeps later passes' disk
	// footprint independent of run length.
	os.RemoveAll(filepath.Join(r.dir, fmt.Sprint("p", p)))
	return jobs
}

// build makes a fresh system for spec, wrapped in the timing decorator
// when tracing.
func build(spec witness.SystemSpec, sp *spans) (model.Perturbable, error) {
	var a *kernel.Adapter
	var err error
	sp.timed(vBuild, nil, func() { a, err = verifysys.FromSpec(spec) })
	if err != nil || sp == nil {
		return a, err
	}
	return wrapKernel(a, sp), nil
}

func (r *randomizedKernel) job(p int, seed int64, c rkConfig, sp *spans, cleanPass *bool) job {
	return timeJob(func(j *job) error {
		sys, err := build(c.spec, sp)
		if err != nil {
			return err
		}
		opt := separability.Options{Trials: 10, StepsPerTrial: 100, Seed: seed,
			Workers: 1, CheckScheduling: c.sched}
		var res *separability.Result
		sp.timed(sRandomized, kernelLayers, func() { res = separability.CheckRandomized(sys, opt) })
		j.checks = totalChecks(res)
		j.fp = res.Summary()
		if res.Passed() != c.secure {
			return fmt.Errorf("%s: %s", label(c.name), res.Summary())
		}
		if c.secure {
			*cleanPass = true
			return nil
		}
		dir := filepath.Join(r.dir, fmt.Sprint("p", p), c.name)
		loaded, err := captureAndReplay(sys, opt, res, c.spec, dir, sp, j)
		if err != nil {
			return fmt.Errorf("%s: %w", label(c.name), err)
		}
		if c.name == triageLeak {
			return triageSwap(loaded, *cleanPass, sp, j)
		}
		return nil
	})
}

// captureAndReplay captures shrunk witnesses for res into a fresh store,
// reloads the store and replays every witness on a freshly built system.
func captureAndReplay(sys model.Perturbable, opt separability.Options, res *separability.Result,
	spec witness.SystemSpec, dir string, sp *spans, j *job) ([]*witness.Witness, error) {

	var ws []*witness.Witness
	var err error
	sp.timed(wCapture, kernelLayers, func() {
		ws, err = witness.Capture(sys, opt, res, witness.Options{Dir: dir, System: spec})
	})
	if err != nil {
		return nil, err
	}
	loaded, err := witness.Load(dir)
	if err != nil {
		return nil, err
	}
	if len(ws) == 0 || len(loaded) != len(ws) {
		return nil, fmt.Errorf("captured %d witnesses, store holds %d", len(ws), len(loaded))
	}
	for i, w := range loaded {
		if w.ID != ws[i].ID {
			return nil, fmt.Errorf("store witness %d is %s, captured %s", i, w.ID, ws[i].ID)
		}
		j.fp += " " + w.ID
		if sp != nil {
			sp.n[cWitnesses]++
			sp.n[cWitnessSteps] += int64(len(w.Steps))
			sp.n[cShrinkReplays] += int64(w.ShrinkReplays)
		}
		var rerr error
		sp.timed(wReplay, nil, func() {
			if rerr = w.LoadState(dir); rerr != nil {
				return
			}
			fresh, err := build(w.System, sp)
			if err != nil {
				rerr = err
				return
			}
			_, rerr = witness.Replay(fresh, w)
		})
		if rerr != nil {
			return nil, fmt.Errorf("replay: %w", rerr)
		}
	}
	return loaded, nil
}

// triageSwap runs the static analysis of the kernel SWAP and triages its
// residual flows against the witness store: exactly the R5 restore is
// confirmed, the rest are spurious given this pass's clean honest run.
func triageSwap(ws []*witness.Witness, cleanPass bool, sp *spans, j *job) error {
	var rep *staticflow.Report
	var err error
	sp.timed(fAnalyze, nil, func() {
		rep, err = staticflow.AnalyzeKernelSwap([]staticflow.Colour{"red", "black"}, 0, 1)
	})
	if err != nil {
		return err
	}
	var fs []triage.Finding
	sp.timed(tClassify, nil, func() {
		fs = triage.Classify(rep, triage.Options{Witnesses: ws, CleanPass: cleanPass,
			CleanNote: "honest kernel passed in this pass"})
	})
	j.fp += " " + triage.Summary(fs)
	n := triage.Count(fs)
	if n[triage.Confirmed] != 1 || n[triage.Spurious] != 6 || n[triage.Undecided] != 0 {
		return fmt.Errorf("triage: %s, want 1 CONFIRMED, 6 SPURIOUS, 0 UNDECIDED", triage.Summary(fs))
	}
	return nil
}

func label(leak string) string {
	if leak == "" {
		return "honest"
	}
	return leak
}

func totalChecks(res *separability.Result) int {
	n := 0
	for _, c := range res.Checks {
		n += c
	}
	return n
}
