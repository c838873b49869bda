package machine

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// Snapshot captures the complete architectural state of a machine: CPU,
// MMU, RAM and every attached device. Two machines with equal snapshots
// and identical future stimuli behave identically.
type Snapshot struct {
	Regs     [8]Word
	AltSP    Word
	PSW      Word
	SegBase  [NumSegments]Word
	SegCtl   [NumSegments]Word
	MMUStat  Word
	MMUAddr  Word
	Halted   bool
	Waiting  bool
	TrapCode Word
	RAM      []Word
	Devices  [][]Word // one entry per attached device, in bus order
}

// Snapshot returns a deep copy of the machine's state.
func (m *Machine) Snapshot() *Snapshot {
	s := &Snapshot{
		Regs:     m.regs,
		AltSP:    m.altSP,
		PSW:      m.psw,
		SegBase:  m.mmu.Base,
		SegCtl:   m.mmu.Ctl,
		MMUStat:  m.mmu.AbortReason,
		MMUAddr:  m.mmu.AbortVaddr,
		Halted:   m.halted,
		Waiting:  m.waiting,
		TrapCode: m.trapCode,
		RAM:      append([]Word(nil), m.ram...),
	}
	for _, d := range m.devices {
		s.Devices = append(s.Devices, d.SnapshotState())
	}
	return s
}

// Restore overwrites the machine's state from a snapshot taken on a machine
// with the same RAM size and device complement.
func (m *Machine) Restore(s *Snapshot) error {
	if len(s.RAM) != m.ramWords {
		return fmt.Errorf("machine: snapshot RAM %d words, machine has %d", len(s.RAM), m.ramWords)
	}
	if len(s.Devices) != len(m.devices) {
		return fmt.Errorf("machine: snapshot has %d devices, machine has %d", len(s.Devices), len(m.devices))
	}
	m.regs = s.Regs
	m.altSP = s.AltSP
	m.psw = s.PSW
	m.mmu.Base = s.SegBase
	m.mmu.Ctl = s.SegCtl
	m.mmu.AbortReason = s.MMUStat
	m.mmu.AbortVaddr = s.MMUAddr
	m.halted = s.Halted
	m.waiting = s.Waiting
	m.trapCode = s.TrapCode
	if m.delta != nil {
		// A full restore under an active delta must journal like any other
		// write, so DeltaRestore can still undo it: diff word-by-word
		// (typically few words differ between checker states) and touch
		// every device.
		for i, v := range s.RAM {
			if m.ram[i] != v {
				m.writeRAM(Word(i), v)
			}
		}
	} else {
		copy(m.ram, s.RAM)
	}
	for i, d := range m.devices {
		m.touchDevice(i)
		d.RestoreState(s.Devices[i])
	}
	return nil
}

// Encode serializes the snapshot canonically; equal states produce equal
// encodings.
func (s *Snapshot) Encode() []byte {
	var buf bytes.Buffer
	w := func(v any) { binary.Write(&buf, binary.LittleEndian, v) }
	w(s.Regs[:])
	w(s.AltSP)
	w(s.PSW)
	w(s.SegBase[:])
	w(s.SegCtl[:])
	w(s.MMUStat)
	w(s.MMUAddr)
	w(boolWord(s.Halted))
	w(boolWord(s.Waiting))
	w(s.TrapCode)
	w(s.RAM)
	for _, dv := range s.Devices {
		w(Word(len(dv)))
		w(dv)
	}
	return buf.Bytes()
}

// Hash returns a digest of the canonical encoding.
func (s *Snapshot) Hash() [32]byte { return sha256.Sum256(s.Encode()) }

// Equal reports whether two snapshots are identical.
func (s *Snapshot) Equal(o *Snapshot) bool {
	return bytes.Equal(s.Encode(), o.Encode())
}

// Clone returns a deep copy of the snapshot.
func (s *Snapshot) Clone() *Snapshot {
	c := *s
	c.RAM = append([]Word(nil), s.RAM...)
	c.Devices = nil
	for _, dv := range s.Devices {
		c.Devices = append(c.Devices, append([]Word(nil), dv...))
	}
	return &c
}

func boolWord(b bool) Word {
	if b {
		return 1
	}
	return 0
}
