// Package minisue is a kernel-shaped system small enough to *prove*
// separable by exhaustive model checking — the executable analogue of the
// formal proof Rushby gives for a SUE-like kernel in the companion paper
// [31]. Where package separability's ToySystem calibrates the checker with
// arbitrary condition violations, MiniSUE has the *structure* of the real
// kernel: a shared CPU accumulator that context switches through per-regime
// save slots, per-regime program counters, interrupt pending flags fed by
// coloured inputs, and per-regime output latches.
//
// The state space (≈74k states × 4 inputs) is enumerated completely, so
// CheckExhaustiveOpt constitutes a genuine proof that the six conditions hold
// of the secure variant — and the fault-injected variants (mirroring the
// real kernel's Leaks) are refuted with counterexamples.
package minisue

import (
	"fmt"

	"repro/internal/model"
)

// Variant selects the kernel behaviour.
type Variant int

// Variants. Each insecure one mirrors a kernel.Leaks entry.
const (
	// Secure is the correct mini separation kernel.
	Secure Variant = iota
	// RegisterLeak omits reloading the accumulator from the incoming
	// regime's save slot on SWAP (kernel.Leaks.RegisterLeak).
	RegisterLeak
	// InterruptMisroute posts incoming interrupts to the other regime's
	// pending flag (kernel.Leaks.InterruptMisroute).
	InterruptMisroute
	// SharedCell gives both regimes' OUT operation a common scratch cell:
	// writer's accumulator parity lands where the other's INC reads it
	// (kernel.Leaks.SharedScratch).
	SharedCell
)

// VariantName names a variant.
func VariantName(v Variant) string {
	switch v {
	case Secure:
		return "secure"
	case RegisterLeak:
		return "register-leak"
	case InterruptMisroute:
		return "interrupt-misroute"
	case SharedCell:
		return "shared-cell"
	}
	return "unknown"
}

// Each regime runs the fixed three-instruction loop INC; OUT; SWAP.
const progLen = 3

// state is the complete concrete machine state.
type state struct {
	cur  int    // which regime holds the CPU
	acc  int    // the shared CPU accumulator (2 bits)
	save [2]int // per-regime accumulator save slots
	pc   [2]int // per-regime program counters (0..2)
	out  [2]int // per-regime output latches
	pend [2]int // per-regime interrupt pending flags
	cell int    // kernel-internal cell (used by SharedCell)
}

// input is one stimulus: an interrupt request bit per regime.
type input struct{ irq [2]int }

// Colours of the two regimes.
var Colours = []model.Colour{"red", "black"}

func colourIndex(c model.Colour) int {
	if c == Colours[0] {
		return 0
	}
	return 1
}

// System implements model.Enumerable and model.Perturbable.
type System struct {
	Variant Variant
	s       state
}

// New creates a MiniSUE in its boot state.
func New(v Variant) *System { return &System{Variant: v} }

// Clone implements model.Replicable: the whole machine state is one value,
// so a copy of the System is an independent replica.
func (m *System) Clone() model.SharedSystem {
	c := *m
	return &c
}

// Colours implements model.SharedSystem.
func (m *System) Colours() []model.Colour {
	return append([]model.Colour(nil), Colours...)
}

// Save implements model.SharedSystem.
func (m *System) Save() model.StateRef { s := m.s; return &s }

// Restore implements model.SharedSystem.
func (m *System) Restore(r model.StateRef) { m.s = *r.(*state) }

// Colour implements model.SharedSystem: interrupts are delivered to the
// current regime first, so the active colour is always the current one.
func (m *System) Colour() model.Colour { return Colours[m.s.cur] }

// NextOp implements model.SharedSystem. The operation is determined by
// the current regime's own state: deliver a pending interrupt, or execute
// its next program step.
func (m *System) NextOp() model.OpID {
	c := m.s.cur
	if m.s.pend[c] == 1 {
		return model.OpID(fmt.Sprintf("deliver:%s", Colours[c]))
	}
	names := [progLen]string{"inc", "out", "swap"}
	return model.OpID(fmt.Sprintf("%s:%s", names[m.s.pc[c]], Colours[c]))
}

// Step implements model.SharedSystem.
func (m *System) Step() {
	c := m.s.cur
	if m.s.pend[c] == 1 {
		// Interrupt delivery: the regime's handler bumps the accumulator
		// by 2 (a visible, regime-local effect) and the flag clears.
		m.s.pend[c] = 0
		m.s.acc = (m.s.acc + 2) & 3
		return
	}
	switch m.s.pc[c] {
	case 0: // INC
		m.s.acc = (m.s.acc + 1) & 3
		if m.Variant == SharedCell {
			// Insecure: the increment also absorbs the shared cell.
			m.s.acc = (m.s.acc + m.s.cell) & 3
		}
		m.s.pc[c] = 1
	case 1: // OUT
		m.s.out[c] = m.s.acc
		if m.Variant == SharedCell {
			m.s.cell = m.s.acc & 1
		}
		m.s.pc[c] = 2
	case 2: // SWAP — the context switch through the save slots.
		m.s.save[c] = m.s.acc
		m.s.cur = 1 - c
		if m.Variant != RegisterLeak {
			m.s.acc = m.s.save[1-c]
		}
		// (RegisterLeak: the incoming regime sees the outgoing
		// accumulator — the paper's exact SWAP hazard.)
		m.s.pc[c] = 0
	}
}

// ApplyInput implements model.SharedSystem: each regime's input bit raises
// its interrupt pending flag.
func (m *System) ApplyInput(in model.Input) {
	if in == nil {
		return
	}
	i := in.(input)
	for c := 0; c < 2; c++ {
		target := c
		if m.Variant == InterruptMisroute {
			target = 1 - c
		}
		if i.irq[c] == 1 {
			m.s.pend[target] = 1
		}
	}
}

// CurrentOutput implements model.SharedSystem.
func (m *System) CurrentOutput() model.Output { s := m.s; return &s }

// Abstract implements model.SharedSystem: a regime's abstract machine is
// its accumulator (live or saved), program counter, output latch and
// pending flag — exactly the per-regime view of the real adapter.
func (m *System) Abstract(c model.Colour) string {
	i := colourIndex(c)
	acc := m.s.save[i]
	if m.s.cur == i {
		acc = m.s.acc
	}
	return fmt.Sprintf("acc=%d;pc=%d;out=%d;pend=%d", acc, m.s.pc[i], m.s.out[i], m.s.pend[i])
}

// ExtractInput implements model.SharedSystem.
func (m *System) ExtractInput(c model.Colour, in model.Input) string {
	if in == nil {
		return ""
	}
	return fmt.Sprintf("irq=%d", in.(input).irq[colourIndex(c)])
}

// ExtractOutput implements model.SharedSystem.
func (m *System) ExtractOutput(c model.Colour, o model.Output) string {
	return fmt.Sprintf("out=%d", o.(*state).out[colourIndex(c)])
}

// EnumerateStates implements model.Enumerable: every concrete state.
func (m *System) EnumerateStates(fn func(model.StateRef) bool) {
	cells := 1
	if m.Variant == SharedCell {
		cells = 2
	}
	for cur := 0; cur < 2; cur++ {
		for acc := 0; acc < 4; acc++ {
			for s0 := 0; s0 < 4; s0++ {
				for s1 := 0; s1 < 4; s1++ {
					for p0 := 0; p0 < progLen; p0++ {
						for p1 := 0; p1 < progLen; p1++ {
							for o0 := 0; o0 < 4; o0++ {
								for o1 := 0; o1 < 4; o1++ {
									for q0 := 0; q0 < 2; q0++ {
										for q1 := 0; q1 < 2; q1++ {
											for cl := 0; cl < cells; cl++ {
												s := state{cur: cur, acc: acc,
													save: [2]int{s0, s1},
													pc:   [2]int{p0, p1},
													out:  [2]int{o0, o1},
													pend: [2]int{q0, q1},
													cell: cl}
												if !fn(&s) {
													return
												}
											}
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// EnumerateInputs implements model.Enumerable.
func (m *System) EnumerateInputs(fn func(model.Input) bool) {
	for r := 0; r < 2; r++ {
		for b := 0; b < 2; b++ {
			if !fn(input{irq: [2]int{r, b}}) {
				return
			}
		}
	}
}

// Randomize implements model.Perturbable.
func (m *System) Randomize(r model.Rand) {
	m.s = state{
		cur:  r.Intn(2),
		acc:  r.Intn(4),
		save: [2]int{r.Intn(4), r.Intn(4)},
		pc:   [2]int{r.Intn(progLen), r.Intn(progLen)},
		out:  [2]int{r.Intn(4), r.Intn(4)},
		pend: [2]int{r.Intn(2), r.Intn(2)},
	}
	if m.Variant == SharedCell {
		m.s.cell = r.Intn(2)
	}
}

// PerturbOutside implements model.Perturbable.
func (m *System) PerturbOutside(c model.Colour, r model.Rand) {
	o := 1 - colourIndex(c)
	if m.s.cur == o {
		m.s.acc = r.Intn(4)
	} else {
		m.s.save[o] = r.Intn(4)
	}
	m.s.pc[o] = r.Intn(progLen)
	m.s.out[o] = r.Intn(4)
	// pend[o] stays: flipping it would not change Φc, but it is part of
	// the other colour's control state the checker samples anyway.
	m.s.cell = r.Intn(2)
}

// RandomInput implements model.Perturbable.
func (m *System) RandomInput(r model.Rand) model.Input {
	return input{irq: [2]int{r.Intn(2), r.Intn(2)}}
}

// RandomInputMatching implements model.Perturbable.
func (m *System) RandomInputMatching(c model.Colour, in model.Input, r model.Rand) model.Input {
	i := colourIndex(c)
	out := input{irq: [2]int{r.Intn(2), r.Intn(2)}}
	if in != nil {
		out.irq[i] = in.(input).irq[i]
	} else {
		out.irq[i] = 0
	}
	return out
}
