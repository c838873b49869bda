package kernel_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/verifysys"
)

// phiOracle holds the adapter to the Φ digest contract over every state it
// observes: Abstract is byte-identical to the reference renderer, and two
// observations of one colour share a digest exactly when they share a text.
type phiOracle struct {
	t        *testing.T
	byDigest map[phiKey]string
	byText   map[model.Colour]map[string]uint64
}

type phiKey struct {
	c model.Colour
	d uint64
}

func newPhiOracle(t *testing.T) *phiOracle {
	return &phiOracle{t: t, byDigest: map[phiKey]string{},
		byText: map[model.Colour]map[string]uint64{}}
}

// observe checks every colour of a's current state; where names the state
// in failure messages.
func (o *phiOracle) observe(a *kernel.Adapter, where string) {
	o.t.Helper()
	for _, c := range a.Colours() {
		text, d := a.Abstract(c), a.AbstractDigest(c)
		if ref := kernel.ReferenceAbstract(a, c); text != ref {
			o.t.Fatalf("%s: Abstract(%s) differs from the reference renderer:\n got %q\nwant %q",
				where, c, text, ref)
		}
		if prev, ok := o.byDigest[phiKey{c, d}]; ok && prev != text {
			o.t.Fatalf("%s: colour %s: digest %#x shared by different texts:\n%q\n%q",
				where, c, d, prev, text)
		}
		if o.byText[c] == nil {
			o.byText[c] = map[string]uint64{}
		}
		if prev, ok := o.byText[c][text]; ok && prev != d {
			o.t.Fatalf("%s: colour %s: one text digests to %#x and %#x", where, c, prev, d)
		}
		o.byDigest[phiKey{c, d}] = text
		o.byText[c][text] = d
	}
}

// cloneSnapshot deep-copies a machine snapshot so one word can be mutated.
func cloneSnapshot(s *machine.Snapshot) *machine.Snapshot {
	c := *s
	c.RAM = append([]machine.Word(nil), s.RAM...)
	c.Devices = make([][]machine.Word, len(s.Devices))
	for i, d := range s.Devices {
		c.Devices[i] = append([]machine.Word(nil), d...)
	}
	return &c
}

// mutateWords applies single-word mutations of every Φ field class to the
// current state, one at a time, observing each mutated state and restoring
// the original afterwards: live registers and condition codes, every
// save-area word (r0–r5, sp, pc, cc, st, pend, ipl of a descheduled
// regime), partition words, owned device state including a change of its
// length, and channel headers and buffers.
func mutateWords(o *phiOracle, a *kernel.Adapter, rng *rand.Rand) {
	m := a.K.Machine()
	cfg := a.K.Config()
	base := m.Snapshot()
	restore := func(s *machine.Snapshot) {
		if err := m.Restore(s); err != nil {
			o.t.Fatal(err)
		}
	}
	try := func(what string, mut func(s *machine.Snapshot)) {
		s := cloneSnapshot(base)
		mut(s)
		restore(s)
		o.observe(a, what)
	}
	for r := 0; r < 8; r++ {
		try("register", func(s *machine.Snapshot) { s.Regs[r] ^= 1 })
	}
	try("condition codes", func(s *machine.Snapshot) { s.PSW ^= machine.FlagC })
	for ri, spec := range cfg.Regimes {
		sb := kernel.SaveBase(ri)
		for off := machine.Word(0); off < kernel.SaveAreaStride; off++ {
			try("save area", func(s *machine.Snapshot) { s.RAM[sb+off] ^= 1 })
		}
		for _, off := range []machine.Word{0, spec.Size - 1,
			machine.Word(rng.Intn(int(spec.Size))), machine.Word(rng.Intn(int(spec.Size)))} {
			v := machine.Word(1 + rng.Intn(0xffff))
			try("partition", func(s *machine.Snapshot) { s.RAM[spec.Base+off] ^= v })
		}
	}
	chans := kernel.ChannelAreaBase(len(cfg.Regimes))
	for _, ch := range cfg.Channels {
		size := machine.Word(8 + 2*ch.Capacity)
		for off := machine.Word(0); off < size; off++ {
			// Every header word; a sample of the buffer words.
			if off >= 8 && rng.Intn(16) != 0 {
				continue
			}
			try("channel", func(s *machine.Snapshot) { s.RAM[chans+off] ^= 1 })
		}
		chans += size
	}
	for di, d := range m.Devices() {
		if _, ok := d.(*machine.TTY); !ok {
			o.t.Fatalf("device %s: mutations know only the TTY state layout", d.Name())
		}
		for j := range base.Devices[di] {
			// Words 8 and 9 are the TTY's own queue lengths; changing one
			// alone is not a restorable state. The Inject below changes
			// the state's length instead.
			if j != 8 && j != 9 {
				try("device", func(s *machine.Snapshot) { s.Devices[di][j] ^= 1 })
			}
		}
		restore(base)
		m.Inject(d, []machine.Word{machine.Word(rng.Intn(0x100))})
		o.observe(a, "device length")
	}
	restore(base)
}

// TestPhiDigestOracle is the property test of the Φ digest contract over
// random states of the standard verification system: the honest kernel
// and every planted leak, with channels cut and uncut. Besides the states
// of a random walk it observes PerturbOutside twins (equal Φ^c by
// construction, different elsewhere) and single-word mutations of every
// field class (the near misses a weak digest would collide on).
func TestPhiDigestOracle(t *testing.T) {
	names := []string{""}
	for name := range kernel.AllLeaks() {
		names = append(names, name)
	}
	sort.Strings(names)
	for ni, name := range names {
		for _, cut := range []bool{true, false} {
			leaks := kernel.AllLeaks()[name]
			a, err := verifysys.Build(verifysys.ProbeFor(leaks), leaks, cut)
			if err != nil {
				t.Fatal(err)
			}
			o := newPhiOracle(t)
			rng := rand.New(rand.NewSource(int64(100 + ni)))
			for trial := 0; trial < 2; trial++ {
				a.Randomize(rng)
				for step := 0; step < 24; step++ {
					o.observe(a, "walk")
					if step%8 == 7 {
						s := a.Save()
						for _, c := range a.Colours() {
							a.PerturbOutside(c, rng)
							o.observe(a, "perturbed twin")
							a.Restore(s)
						}
					}
					if trial == 0 && step == 15 {
						mutateWords(o, a, rng)
					}
					mutateAdapter(a, rng)
				}
			}
		}
	}
}

// referenceExtract renders EXTRACT(c, vec) with fmt, independently of the
// adapter: c's entries of vec as "name=<%04x words>;" in name order.
func referenceExtract(cfg kernel.Config, c model.Colour, vec map[string][]machine.Word) string {
	var names []string
	for _, r := range cfg.Regimes {
		for _, d := range r.Devices {
			if _, ok := vec[d.Name()]; ok && r.Name == string(c) {
				names = append(names, d.Name())
			}
		}
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%s=", name)
		for _, w := range vec[name] {
			fmt.Fprintf(&b, "%04x", w)
		}
		b.WriteByte(';')
	}
	return b.String()
}

// TestExtractMatchesReference pins ExtractInput and ExtractOutput to the
// reference renderer byte for byte: condition 5 persists FNV digests of
// these strings in Violation.Want/Got.
func TestExtractMatchesReference(t *testing.T) {
	a, err := verifysys.Build(verifysys.ProbePlain, kernel.Leaks{}, true)
	if err != nil {
		t.Fatal(err)
	}
	cfg := a.K.Config()
	rng := rand.New(rand.NewSource(5))
	a.Randomize(rng)
	for step := 0; step < 200; step++ {
		in := a.RandomInput(rng)
		out := a.CurrentOutput()
		for _, c := range a.Colours() {
			if got, want := a.ExtractInput(c, in), referenceExtract(cfg, c, in.(kernel.InputVec)); got != want {
				t.Fatalf("step %d: ExtractInput(%s) = %q, want %q", step, c, got, want)
			}
			got, want := a.ExtractOutput(c, out), referenceExtract(cfg, c, out.(kernel.OutputVec))
			if got != want {
				t.Fatalf("step %d: ExtractOutput(%s) = %q, want %q", step, c, got, want)
			}
		}
		a.ApplyInput(in)
		a.Step()
	}
	if a.ExtractInput(a.Colours()[0], nil) != "" {
		t.Fatal("ExtractInput of a nil input is not empty")
	}
	// Outputs are cumulative: a non-empty one now means the loop compared
	// non-empty output extracts too.
	if len(a.CurrentOutput().(kernel.OutputVec)["tty0"]) == 0 {
		t.Fatal("the TTY produced no output, so no non-empty extract was compared")
	}
}
