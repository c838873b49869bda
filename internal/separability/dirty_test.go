package separability_test

import (
	"testing"

	"repro/internal/model"
	"repro/internal/separability"
)

// trackedToy wraps ToySystem with a Checkpointer and an *exact*
// DirtyTracker: checkpoints are full saves, and DirtyColours answers by
// honestly comparing each colour's digest against its checkpoint-time
// value. Exact tracking is the strongest mask an implementation may legally
// return, so verdict equivalence here bounds every sound tracker.
type trackedToy struct {
	*separability.ToySystem
}

type toyCheckpoint struct {
	ref model.StateRef
	phi []uint64
}

func (tt *trackedToy) Checkpoint() model.Checkpoint {
	cp := &toyCheckpoint{ref: tt.Save()}
	for _, c := range tt.Colours() {
		cp.phi = append(cp.phi, model.AbstractDigest(tt.ToySystem, c))
	}
	return cp
}

func (tt *trackedToy) Rollback(cp model.Checkpoint) { tt.Restore(cp.(*toyCheckpoint).ref) }
func (tt *trackedToy) Release(cp model.Checkpoint)  { tt.Restore(cp.(*toyCheckpoint).ref) }

func (tt *trackedToy) DirtyColours(cp model.Checkpoint) (uint64, bool) {
	st := cp.(*toyCheckpoint)
	var mask uint64
	for ci, c := range tt.Colours() {
		if model.AbstractDigest(tt.ToySystem, c) != st.phi[ci] {
			mask |= 1 << uint(ci)
		}
	}
	return mask, true
}

func (tt *trackedToy) Clone() model.SharedSystem {
	return &trackedToy{ToySystem: tt.ToySystem.Clone().(*separability.ToySystem)}
}

// TestExhaustiveDirtyTrackerEquivalence: the footprint shortcut must be
// invisible in verdicts. For every toy variant — secure and each planted
// leak — CheckExhaustive over the tracked wrapper must produce the same
// summary, violations and check counts as over the plain system, serial
// and sharded.
func TestExhaustiveDirtyTrackerEquivalence(t *testing.T) {
	for v := separability.ToySecure; v <= separability.ToyNextOpLeak; v++ {
		name := separability.ToyVariantName(v)
		plain := separability.CheckExhaustiveOpt(separability.NewToySystem(v),
			separability.ExhaustiveOptions{Workers: 1})
		tracked := separability.CheckExhaustiveOpt(&trackedToy{ToySystem: separability.NewToySystem(v)},
			separability.ExhaustiveOptions{Workers: 1})
		requireIdentical(t, plain, tracked, name+"/serial")
		par := separability.CheckExhaustiveOpt(&trackedToy{ToySystem: separability.NewToySystem(v)},
			separability.ExhaustiveOptions{Workers: 4})
		requireIdentical(t, plain, par, name+"/parallel")
	}
}

// allCleanToy lies: every colour is always reported clean. Illegal as a
// real tracker, but it proves the checker actually consults the mask — on
// a direct-write leak the planted violations vanish, because the checker
// reuses anchor digests instead of recomputing Φ after each mutation.
type allCleanToy struct {
	trackedToy
}

func (at *allCleanToy) DirtyColours(model.Checkpoint) (uint64, bool) { return 0, true }

func TestExhaustiveDirtyTrackerIsConsulted(t *testing.T) {
	honest := separability.CheckExhaustiveOpt(separability.NewToySystem(separability.ToyDirectWrite),
		separability.ExhaustiveOptions{Workers: 1})
	if len(honest.Violations) == 0 {
		t.Fatal("direct-write variant should violate condition 2")
	}
	lying := separability.CheckExhaustiveOpt(&allCleanToy{
		trackedToy{ToySystem: separability.NewToySystem(separability.ToyDirectWrite)}},
		separability.ExhaustiveOptions{Workers: 1})
	if len(lying.Violations) != 0 {
		t.Fatalf("all-clean tracker should mask the violations (checker not consulting the mask?): %d reported",
			len(lying.Violations))
	}
}
