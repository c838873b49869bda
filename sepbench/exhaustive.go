package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/minisue"
	"repro/internal/model"
	"repro/internal/separability"
	"repro/internal/verifysys"
)

// exhaustiveMinisue runs each MiniSUE target as a 2-shard exhaustive sweep
// with shard artifacts written, read back and merged. Every pass runs all
// targets, in an order drawn from the pass seed.
type exhaustiveMinisue struct {
	seed    int64
	dir     string
	targets []verifysys.ExhaustiveTarget
	// ref holds each target's unsharded Summary, the merge oracle.
	ref map[string]string
}

const exhaustiveShards = 2

func (e *exhaustiveMinisue) setup(dir string) error {
	e.dir, e.targets = dir, nil
	for _, t := range verifysys.ExhaustiveTargets() {
		if !strings.HasPrefix(t.Name, "minisue:") {
			continue
		}
		sys := t.Build()
		states, inputs := 0, 0
		sys.EnumerateStates(func(model.StateRef) bool { states++; return true })
		sys.EnumerateInputs(func(model.Input) bool { inputs++; return true })
		if states == 0 || inputs == 0 {
			return fmt.Errorf("%s enumerates %d states, %d inputs", t.Name, states, inputs)
		}
		e.targets = append(e.targets, t)
	}
	if len(e.targets) == 0 {
		return fmt.Errorf("no minisue exhaustive targets registered")
	}
	return nil
}

// warmup computes the unsharded reference verdicts, which also brings the
// heap to its working size before measuring.
func (e *exhaustiveMinisue) warmup() {
	e.ref = map[string]string{}
	for _, t := range e.targets {
		res := separability.CheckExhaustiveOpt(t.Build(), separability.ExhaustiveOptions{Workers: 1})
		e.ref[t.Name] = res.Summary()
	}
}

func (e *exhaustiveMinisue) pass(p int, sp *spans) []job {
	order := rand.New(rand.NewSource(deriveSeed(e.seed, p))).Perm(len(e.targets))
	dir := filepath.Join(e.dir, fmt.Sprint("p", p))
	jobs := make([]job, 0, len(order))
	for _, i := range order {
		j := e.job(e.targets[i], dir, sp)
		j.kind = i
		jobs = append(jobs, j)
	}
	os.RemoveAll(dir)
	return jobs
}

func (e *exhaustiveMinisue) job(t verifysys.ExhaustiveTarget, dir string, sp *spans) job {
	return timeJob(func(j *job) error {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		srs := make([]*separability.ShardResult, 0, exhaustiveShards)
		for k := 0; k < exhaustiveShards; k++ {
			var sys model.Enumerable
			sp.timed(vBuild, nil, func() { sys = t.Build() })
			if sp != nil {
				sys = wrapMinisue(sys.(*minisue.System), sp)
			}
			var sr *separability.ShardResult
			var err error
			sp.timed(sShard, minisueLayers, func() {
				sr, err = separability.CheckExhaustiveShard(sys, separability.ExhaustiveOptions{
					Workers: 1, Shard: k, Shards: exhaustiveShards, Target: t.Name})
			})
			if err != nil {
				return fmt.Errorf("%s shard %d: %w", t.Name, k, err)
			}
			path := filepath.Join(dir, fmt.Sprintf("%s-%d.json", strings.ReplaceAll(t.Name, ":", "-"), k))
			sp.timed(sShardWrite, nil, func() { err = sr.WriteFile(path) })
			if err != nil {
				return err
			}
			if sp != nil {
				if fi, err := os.Stat(path); err == nil {
					sp.n[cShardBytes] += fi.Size()
				}
			}
			var back *separability.ShardResult
			sp.timed(sShardRead, nil, func() { back, err = separability.ReadShardResult(path) })
			if err != nil {
				return err
			}
			if back.ID != sr.ID {
				return fmt.Errorf("%s shard %d read back as %s, wrote %s", t.Name, k, back.ID, sr.ID)
			}
			j.fp += sr.ID + " "
			srs = append(srs, back)
		}
		var res *separability.Result
		var err error
		sp.timed(sMerge, nil, func() { res, err = separability.MergeShards(srs) })
		if err != nil {
			return err
		}
		j.checks = totalChecks(res)
		j.fp += res.Summary()
		if got := res.Summary(); got != e.ref[t.Name] {
			return fmt.Errorf("%s merged %q, unsharded %q", t.Name, got, e.ref[t.Name])
		}
		if res.Passed() != t.Secure {
			return fmt.Errorf("%s: %s", t.Name, res.Summary())
		}
		return nil
	})
}
