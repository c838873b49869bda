package main

import (
	"fmt"
	"time"

	"repro/internal/kernel"
	"repro/internal/minisue"
	"repro/internal/model"
	"repro/internal/obs"
)

// Timing decorators for the model systems, used by the traced run. Each
// implements exactly the optional model interfaces of the type it wraps, so
// the checker takes the same code path with and without tracing; fidelity
// checks that at run time and wrap_test.go in the tests.

// tracerSetter is the event-tap capability witness capture and trace
// capture look for.
type tracerSetter interface{ SetTracer(obs.Tracer) }

// kernelSys times every method of a SUE-Go kernel adapter.
type kernelSys struct {
	in *kernel.Adapter
	sp *spans
}

func wrapKernel(a *kernel.Adapter, sp *spans) *kernelSys { return &kernelSys{in: a, sp: sp} }

func (k *kernelSys) Colours() []model.Colour {
	defer k.sp.end(kControl, time.Now())
	return k.in.Colours()
}

func (k *kernelSys) Save() model.StateRef {
	defer k.sp.end(kSaveRestore, time.Now())
	return k.in.Save()
}

func (k *kernelSys) Restore(r model.StateRef) {
	defer k.sp.end(kSaveRestore, time.Now())
	k.in.Restore(r)
}

func (k *kernelSys) Colour() model.Colour {
	defer k.sp.end(kControl, time.Now())
	return k.in.Colour()
}

func (k *kernelSys) NextOp() model.OpID {
	defer k.sp.end(kControl, time.Now())
	return k.in.NextOp()
}

func (k *kernelSys) Step() {
	defer k.sp.end(kStep, time.Now())
	k.in.Step()
}

func (k *kernelSys) ApplyInput(i model.Input) {
	defer k.sp.end(kInput, time.Now())
	k.in.ApplyInput(i)
}

func (k *kernelSys) CurrentOutput() model.Output {
	defer k.sp.end(kExtract, time.Now())
	return k.in.CurrentOutput()
}

func (k *kernelSys) Abstract(c model.Colour) string {
	defer k.sp.end(kAbstract, time.Now())
	return k.in.Abstract(c)
}

func (k *kernelSys) ExtractInput(c model.Colour, i model.Input) string {
	defer k.sp.end(kExtract, time.Now())
	return k.in.ExtractInput(c, i)
}

func (k *kernelSys) ExtractOutput(c model.Colour, o model.Output) string {
	defer k.sp.end(kExtract, time.Now())
	return k.in.ExtractOutput(c, o)
}

func (k *kernelSys) Randomize(r model.Rand) {
	defer k.sp.end(kRandomize, time.Now())
	k.in.Randomize(r)
}

func (k *kernelSys) PerturbOutside(c model.Colour, r model.Rand) {
	defer k.sp.end(kPerturb, time.Now())
	k.in.PerturbOutside(c, r)
}

func (k *kernelSys) RandomInput(r model.Rand) model.Input {
	defer k.sp.end(kInput, time.Now())
	return k.in.RandomInput(r)
}

func (k *kernelSys) RandomInputMatching(c model.Colour, i model.Input, r model.Rand) model.Input {
	defer k.sp.end(kInput, time.Now())
	return k.in.RandomInputMatching(c, i, r)
}

// Clone implements model.Replicable with a wrapped clone.
func (k *kernelSys) Clone() model.SharedSystem {
	return wrapKernel(k.in.Clone().(*kernel.Adapter), k.sp)
}

// AbstractDigest implements model.Digester.
func (k *kernelSys) AbstractDigest(c model.Colour) uint64 {
	defer k.sp.end(kDigest, time.Now())
	return k.in.AbstractDigest(c)
}

// ClassifyOp implements model.OpClassifier.
func (k *kernelSys) ClassifyOp(op model.OpID) string {
	defer k.sp.end(kControl, time.Now())
	return k.in.ClassifyOp(op)
}

// Checkpoint, Rollback and Release implement model.Checkpointer.
func (k *kernelSys) Checkpoint() model.Checkpoint {
	defer k.sp.end(kCheckpoint, time.Now())
	return k.in.Checkpoint()
}

func (k *kernelSys) Rollback(cp model.Checkpoint) {
	defer k.sp.end(kCheckpoint, time.Now())
	k.in.Rollback(cp)
}

func (k *kernelSys) Release(cp model.Checkpoint) {
	defer k.sp.end(kCheckpoint, time.Now())
	k.in.Release(cp)
}

// DirtyColours implements model.DirtyTracker.
func (k *kernelSys) DirtyColours(cp model.Checkpoint) (uint64, bool) {
	defer k.sp.end(kCheckpoint, time.Now())
	return k.in.DirtyColours(cp)
}

// EncodeState, DecodeState, EncodeInput and DecodeInput implement
// model.Portable.
func (k *kernelSys) EncodeState(ref model.StateRef) ([]byte, error) {
	defer k.sp.end(kCodec, time.Now())
	return k.in.EncodeState(ref)
}

func (k *kernelSys) DecodeState(data []byte) (model.StateRef, error) {
	defer k.sp.end(kCodec, time.Now())
	return k.in.DecodeState(data)
}

func (k *kernelSys) EncodeInput(i model.Input) ([]byte, error) {
	defer k.sp.end(kCodec, time.Now())
	return k.in.EncodeInput(i)
}

func (k *kernelSys) DecodeInput(data []byte) (model.Input, error) {
	defer k.sp.end(kCodec, time.Now())
	return k.in.DecodeInput(data)
}

// SetTracer forwards the event tap; attaching it is not timed.
func (k *kernelSys) SetTracer(t obs.Tracer) { k.in.SetTracer(t) }

// minisueSys times every method of a MiniSUE system.
type minisueSys struct {
	in *minisue.System
	sp *spans
}

func wrapMinisue(m *minisue.System, sp *spans) *minisueSys { return &minisueSys{in: m, sp: sp} }

func (m *minisueSys) Colours() []model.Colour {
	defer m.sp.end(mControl, time.Now())
	return m.in.Colours()
}

func (m *minisueSys) Save() model.StateRef {
	defer m.sp.end(mSaveRestore, time.Now())
	return m.in.Save()
}

func (m *minisueSys) Restore(r model.StateRef) {
	defer m.sp.end(mSaveRestore, time.Now())
	m.in.Restore(r)
}

func (m *minisueSys) Colour() model.Colour {
	defer m.sp.end(mControl, time.Now())
	return m.in.Colour()
}

func (m *minisueSys) NextOp() model.OpID {
	defer m.sp.end(mControl, time.Now())
	return m.in.NextOp()
}

func (m *minisueSys) Step() {
	defer m.sp.end(mStep, time.Now())
	m.in.Step()
}

func (m *minisueSys) ApplyInput(i model.Input) {
	defer m.sp.end(mInput, time.Now())
	m.in.ApplyInput(i)
}

func (m *minisueSys) CurrentOutput() model.Output {
	defer m.sp.end(mExtract, time.Now())
	return m.in.CurrentOutput()
}

func (m *minisueSys) Abstract(c model.Colour) string {
	defer m.sp.end(mAbstract, time.Now())
	return m.in.Abstract(c)
}

func (m *minisueSys) ExtractInput(c model.Colour, i model.Input) string {
	defer m.sp.end(mExtract, time.Now())
	return m.in.ExtractInput(c, i)
}

func (m *minisueSys) ExtractOutput(c model.Colour, o model.Output) string {
	defer m.sp.end(mExtract, time.Now())
	return m.in.ExtractOutput(c, o)
}

// EnumerateStates and EnumerateInputs charge only the enumerator's own
// time: the caller's callback runs outside the span.
func (m *minisueSys) EnumerateStates(fn func(model.StateRef) bool) {
	var inFn time.Duration
	t0 := time.Now()
	m.in.EnumerateStates(func(s model.StateRef) bool {
		t := time.Now()
		ok := fn(s)
		inFn += time.Since(t)
		return ok
	})
	m.sp.endExcluding(mEnumerate, t0, inFn)
}

func (m *minisueSys) EnumerateInputs(fn func(model.Input) bool) {
	var inFn time.Duration
	t0 := time.Now()
	m.in.EnumerateInputs(func(i model.Input) bool {
		t := time.Now()
		ok := fn(i)
		inFn += time.Since(t)
		return ok
	})
	m.sp.endExcluding(mEnumerate, t0, inFn)
}

// Randomize, PerturbOutside and the random-input generators are charged to
// the input layer; the exhaustive workload never calls them.
func (m *minisueSys) Randomize(r model.Rand) {
	defer m.sp.end(mInput, time.Now())
	m.in.Randomize(r)
}

func (m *minisueSys) PerturbOutside(c model.Colour, r model.Rand) {
	defer m.sp.end(mInput, time.Now())
	m.in.PerturbOutside(c, r)
}

func (m *minisueSys) RandomInput(r model.Rand) model.Input {
	defer m.sp.end(mInput, time.Now())
	return m.in.RandomInput(r)
}

func (m *minisueSys) RandomInputMatching(c model.Colour, i model.Input, r model.Rand) model.Input {
	defer m.sp.end(mInput, time.Now())
	return m.in.RandomInputMatching(c, i, r)
}

// Clone implements model.Replicable with a wrapped clone.
func (m *minisueSys) Clone() model.SharedSystem {
	return wrapMinisue(m.in.Clone().(*minisue.System), m.sp)
}

// capabilities lists which of the interfaces the checkers look for sys
// implements, in a fixed order.
func capabilities(sys any) string {
	has := func(ok bool) byte {
		if ok {
			return '1'
		}
		return '0'
	}
	_, perturbable := sys.(model.Perturbable)
	_, enumerable := sys.(model.Enumerable)
	_, checkpointer := sys.(model.Checkpointer)
	_, dirty := sys.(model.DirtyTracker)
	_, digester := sys.(model.Digester)
	_, portable := sys.(model.Portable)
	_, replicable := sys.(model.Replicable)
	_, classifier := sys.(model.OpClassifier)
	_, tracer := sys.(tracerSetter)
	return string([]byte{has(perturbable), has(enumerable), has(checkpointer), has(dirty),
		has(digester), has(portable), has(replicable), has(classifier), has(tracer)})
}

// fidelity checks that each decorator, and the clone it returns, implements
// exactly the interfaces of the system it wraps.
func fidelity(a *kernel.Adapter, m *minisue.System) error {
	sp := &spans{}
	pairs := []struct {
		name         string
		inner, outer any
	}{
		{"kernel", a, wrapKernel(a, sp)},
		{"kernel clone", a.Clone(), wrapKernel(a, sp).Clone()},
		{"minisue", m, wrapMinisue(m, sp)},
		{"minisue clone", m.Clone(), wrapMinisue(m, sp).Clone()},
	}
	for _, p := range pairs {
		if ci, co := capabilities(p.inner), capabilities(p.outer); ci != co {
			return fmt.Errorf("%s decorator capabilities %s, wrapped type has %s", p.name, co, ci)
		}
	}
	if _, ok := wrapKernel(a, sp).Clone().(*kernelSys); !ok {
		return fmt.Errorf("kernel decorator Clone does not return a decorator")
	}
	if _, ok := wrapMinisue(m, sp).Clone().(*minisueSys); !ok {
		return fmt.Errorf("minisue decorator Clone does not return a decorator")
	}
	return nil
}
