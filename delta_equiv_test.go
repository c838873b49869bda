package repro

// End-to-end equivalence of the delta-snapshot fast path: the randomized
// verifier must produce byte-identical Results whether the system exposes
// the O(dirty) Checkpointer API or only legacy full Save/Restore.

import (
	"reflect"
	"testing"

	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/separability"
	"repro/internal/verifysys"
)

// noCheckpoint wraps a Perturbable and hides its Checkpointer, forcing the
// checkers onto the full Save/Restore path. Digests and the op classifier
// are forwarded so both paths compare and bucket identically; Clone wraps
// its result so worker replicas stay checkpoint-free too.
type noCheckpoint struct {
	model.Perturbable
}

func (n noCheckpoint) AbstractDigest(c model.Colour) uint64 {
	return model.AbstractDigest(n.Perturbable, c)
}

func (n noCheckpoint) ClassifyOp(op model.OpID) string {
	return model.OpClass(n.Perturbable, op)
}

func (n noCheckpoint) Clone() model.SharedSystem {
	rep, ok := n.Perturbable.(model.Replicable)
	if !ok {
		return nil
	}
	inner, ok := rep.Clone().(model.Perturbable)
	if !ok || inner == nil {
		return nil
	}
	return noCheckpoint{inner}
}

// TestDeltaPathMatchesFullSnapshots runs the randomized checker twice over
// the same kernel system — once through Checkpoint/Rollback, once through
// legacy Save/Restore — and requires identical Results: same summary, same
// violations, same per-condition and per-op check counts. Covered for the
// honest kernel and for planted leaks, at 1 and at 4 workers.
func TestDeltaPathMatchesFullSnapshots(t *testing.T) {
	leaks := []kernel.Leaks{
		{},
		{RegisterLeak: true},
		{ChannelAlias: true},
	}
	for _, l := range leaks {
		for _, workers := range []int{1, 4} {
			opt := separability.Options{
				Trials: 3, StepsPerTrial: 30, Seed: 41, Workers: workers,
			}

			sys, err := verifysys.Build(verifysys.ProbeFor(l), l, true)
			if err != nil {
				t.Fatal(err)
			}
			fast := separability.CheckRandomized(sys, opt)

			sys2, err := verifysys.Build(verifysys.ProbeFor(l), l, true)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := model.SharedSystem(sys2).(model.Checkpointer); !ok {
				t.Fatal("adapter no longer implements Checkpointer; test is vacuous")
			}
			slow := separability.CheckRandomized(noCheckpoint{sys2}, opt)

			name := func() string {
				switch {
				case l.RegisterLeak:
					return "register-leak"
				case l.ChannelAlias:
					return "channel-alias"
				}
				return "honest"
			}()
			if fast.Summary() != slow.Summary() {
				t.Errorf("%s workers=%d: summary diverged\n delta: %s\n  full: %s",
					name, workers, fast.Summary(), slow.Summary())
			}
			if !reflect.DeepEqual(fast.Violations, slow.Violations) {
				t.Errorf("%s workers=%d: violations diverged\n delta: %v\n  full: %v",
					name, workers, fast.Violations, slow.Violations)
			}
			if !reflect.DeepEqual(fast.Checks, slow.Checks) {
				t.Errorf("%s workers=%d: per-condition counts diverged\n delta: %v\n  full: %v",
					name, workers, fast.Checks, slow.Checks)
			}
			if !reflect.DeepEqual(fast.OpChecks, slow.OpChecks) {
				t.Errorf("%s workers=%d: per-op counts diverged\n delta: %v\n  full: %v",
					name, workers, fast.OpChecks, slow.OpChecks)
			}
			if fast.States != slow.States {
				t.Errorf("%s workers=%d: states %d vs %d", name, workers, fast.States, slow.States)
			}
		}
	}
}
