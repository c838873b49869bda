package main

import "time"

// layer names one per-layer accumulator. The benchmark records spans from
// its own code only: around each method of a wrapped model system and
// around its calls into each module's public functions.
type layer int

const (
	kStep layer = iota
	kDigest
	kAbstract
	kPerturb
	kInput
	kRandomize
	kExtract
	kCheckpoint
	kSaveRestore
	kControl
	kCodec

	mAbstract
	mExtract
	mStep
	mInput
	mSaveRestore
	mControl
	mEnumerate

	sRandomized
	sShard
	sShardWrite
	sShardRead
	sMerge

	wCapture
	wReplay

	fAnalyze
	tClassify

	vBuild

	nLayers
)

// kernelLayers and minisueLayers are the model-system layers whose time is
// subtracted from an engine span to give the engine's self time.
var (
	kernelLayers  = []layer{kStep, kDigest, kAbstract, kPerturb, kInput, kRandomize, kExtract, kCheckpoint, kSaveRestore, kControl, kCodec}
	minisueLayers = []layer{mAbstract, mExtract, mStep, mInput, mSaveRestore, mControl, mEnumerate}
)

type acc struct {
	calls  int64
	ns     int64
	selfNs int64 // ns minus the child layers' time inside these spans
}

// spans accumulates call counts and busy time per layer. It is used from
// one goroutine at a time: every workload runs its model systems and
// engine calls on the driving goroutine (Workers: 1).
type spans struct {
	a [nLayers]acc
	n [nCounts]int64
}

// count names one per-run total that is not a span.
type count int

const (
	cWitnesses count = iota
	cWitnessSteps
	cShrinkReplays
	cShardBytes
	cTrialNs
	cCycleSelfNs
	cLedgerBytes
	nCounts
)

// end closes a leaf span opened at t0.
func (s *spans) end(l layer, t0 time.Time) { s.endExcluding(l, t0, 0) }

// endExcluding closes a leaf span opened at t0, less the time it spent in
// the caller's code (an enumerator's callbacks).
func (s *spans) endExcluding(l layer, t0 time.Time, outside time.Duration) {
	d := int64(time.Since(t0) - outside)
	s.a[l].calls++
	s.a[l].ns += d
	s.a[l].selfNs += d
}

// sum totals the busy time of ls.
func (s *spans) sum(ls []layer) int64 {
	var ns int64
	for _, l := range ls {
		ns += s.a[l].ns
	}
	return ns
}

// timed runs fn as a span of layer l when s is non-nil, and charges the
// time the child layers accumulated meanwhile to them, not to l's self
// time.
func (s *spans) timed(l layer, children []layer, fn func()) {
	if s == nil {
		fn()
		return
	}
	before := s.sum(children)
	t0 := time.Now()
	fn()
	d := int64(time.Since(t0))
	s.a[l].calls++
	s.a[l].ns += d
	s.a[l].selfNs += d - (s.sum(children) - before)
}
