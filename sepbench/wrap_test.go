package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"

	"repro/internal/minisue"
	"repro/internal/model"
	"repro/internal/separability"
	"repro/internal/verifysys"
)

func TestDecoratorFidelity(t *testing.T) {
	if err := checkFidelity(); err != nil {
		t.Fatal(err)
	}
	// A decorator that gained a capability the wrapped type lacks is
	// caught: the minisue decorator's capabilities differ from a kernel's.
	a, _ := verifysys.FromSpec(verifysys.SpecFor("", true, false))
	if capabilities(a) == capabilities(wrapMinisue(minisue.New(minisue.Secure), &spans{})) {
		t.Fatal("capabilities does not tell a kernel adapter from a MiniSUE decorator")
	}
}

func TestDecoratedRandomizedMatches(t *testing.T) {
	spec := verifysys.SpecFor("RegisterLeak", true, false)
	opt := separability.Options{Trials: 3, StepsPerTrial: 60, Seed: 5, Workers: 1}
	raw, err := verifysys.FromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := separability.CheckRandomized(raw, opt).Summary()
	sp := &spans{}
	sys, err := build(spec, sp)
	if err != nil {
		t.Fatal(err)
	}
	if got := separability.CheckRandomized(sys, opt).Summary(); got != want {
		t.Fatalf("decorated summary %q, raw %q", got, want)
	}
	if sp.a[kStep].calls == 0 || sp.a[kDigest].calls == 0 || sp.a[kCheckpoint].calls == 0 {
		t.Fatalf("decorator recorded no step/digest/checkpoint calls: %+v", sp.a)
	}
}

func TestDecoratedShardMatches(t *testing.T) {
	opt := separability.ExhaustiveOptions{Workers: 1, Shard: 1, Shards: 2, Target: "minisue:register-leak"}
	raw, err := separability.CheckExhaustiveShard(minisue.New(minisue.RegisterLeak), opt)
	if err != nil {
		t.Fatal(err)
	}
	sp := &spans{}
	got, err := separability.CheckExhaustiveShard(wrapMinisue(minisue.New(minisue.RegisterLeak), sp), opt)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != raw.ID {
		t.Fatalf("decorated shard ID %s, raw %s", got.ID, raw.ID)
	}
	if sp.a[mAbstract].calls == 0 || sp.a[mEnumerate].calls == 0 {
		t.Fatalf("decorator recorded no abstract/enumerate calls: %+v", sp.a)
	}
}

func TestSpansSelfTime(t *testing.T) {
	sp := &spans{}
	sp.timed(sRandomized, kernelLayers, func() {
		t0 := time.Now()
		time.Sleep(2 * time.Millisecond)
		sp.end(kStep, t0)
	})
	a := sp.a[sRandomized]
	if a.calls != 1 || a.selfNs < 0 || a.selfNs >= a.ns || a.ns < sp.a[kStep].ns {
		t.Fatalf("span %+v with child %+v", a, sp.a[kStep])
	}
}

func TestDeriveSeed(t *testing.T) {
	seen := map[int64]bool{}
	for s := int64(0); s < 4; s++ {
		for p := -1; p < 50; p++ {
			d := deriveSeed(s, p)
			if d == 0 || seen[d] || d != deriveSeed(s, p) {
				t.Fatalf("deriveSeed(%d, %d) = %d repeats or is zero", s, p, d)
			}
			seen[d] = true
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if q := quantile(xs, 0.5); q != 2.5 {
		t.Fatalf("median %v, want 2.5", q)
	}
	if q := quantile(xs, 1); q != 4 {
		t.Fatalf("max %v, want 4", q)
	}
	if xs[0] != 4 {
		t.Fatal("quantile sorted its input in place")
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json's metric lists in
// step with the metrics the runs print.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	win := &window{jobs: []job{{dur: time.Millisecond, checks: 1}}, wall: time.Second, sp: &spans{}}
	e2e := map[string]metric{}
	endToEnd(e2e, win, 1)
	layers := map[string]metric{}
	perLayer(layers, win, win)
	for _, c := range []struct {
		name   string
		listed []struct{ Name, Unit string }
		got    map[string]metric
	}{{"end_to_end", spec.EndToEnd, e2e}, {"per_layer", spec.PerLayer, layers}} {
		if len(c.listed) != len(c.got) {
			t.Errorf("%s lists %d metrics, runs report %d", c.name, len(c.listed), len(c.got))
		}
		for _, m := range c.listed {
			if g, ok := c.got[m.Name]; !ok || g.Unit != m.Unit {
				t.Errorf("%s metric %s (%s): run reports %+v", c.name, m.Name, m.Unit, g)
			}
		}
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	want := []string{"exhaustive-minisue", "randomized-kernel", "watch-cycles"}
	if len(names) != len(want) {
		t.Fatalf("workloads %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("workloads %v, want %v", names, want)
		}
	}
}

var _ model.Perturbable = (*kernelSys)(nil)
var _ model.Enumerable = (*minisueSys)(nil)

// TestWatchScraperDuringCycle scrapes /status after every ledger append
// while the cycle goes on appending (run it with -race).
func TestWatchScraperDuringCycle(t *testing.T) {
	w := &watchCycles{seed: 1}
	if err := w.setup(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	jobs := w.session(0, 2, nil)
	for _, j := range jobs {
		if j.err != nil {
			t.Fatal(j.err)
		}
		if len(j.scrapes) != len(w.deploys) {
			t.Fatalf("cycle made %d scrapes, want %d", len(j.scrapes), len(w.deploys))
		}
		for _, s := range j.scrapes {
			if s.err != nil {
				t.Error(s.err)
			}
		}
	}
}
