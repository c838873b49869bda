package kernel

import (
	"repro/internal/machine"
	"repro/internal/model"
)

// Φ footprints: which RAM words each regime's Φ^c reads, so that
// DirtyColours can name the colours a checkpointed mutation may have
// touched. Each regime's Φ^c is a pure function of (a) a fixed set of RAM
// words — its partition, its save area, the channel areas it can see —
// (b) its owned devices' state, and (c), only while the regime is current
// and in user mode, the live register file and condition codes. While a
// machine delta is active every RAM write is journaled and every device
// mutation bumps that device's version counter, which covers (a) and (b);
// DirtyColours covers (c) by marking the regimes that held the CPU.
type phiFootprint struct {
	// mask[a] has bit ri set when RAM word a is in regime ri's Φ read set.
	// Over-marking is safe (spurious dirty bits); under-marking is not.
	mask  []uint32
	owned [][]int // regime index -> owned devices' machine bus indices
}

// ensureFootprint builds the footprint mask once per adapter (post-boot,
// so channel areas are laid out). More than 32 regimes would overflow the
// per-word bitmask; DirtyColours then declines to answer.
func (a *Adapter) ensureFootprint() {
	if a.foot != nil {
		return
	}
	k := a.K
	if len(k.cfg.Regimes) > 32 {
		a.foot = &phiFootprint{}
		return
	}
	fp := &phiFootprint{
		mask:  make([]uint32, k.m.RAMWords()),
		owned: make([][]int, len(k.cfg.Regimes)),
	}
	mark := func(base, size Word, bits uint32) {
		for off := Word(0); off < size; off++ {
			if w := int(base + off); w < len(fp.mask) {
				fp.mask[w] |= bits
			}
		}
	}
	ridx := map[string]int{}
	for ri, r := range k.cfg.Regimes {
		ridx[r.Name] = ri
		bit := uint32(1) << ri
		mark(r.Base, r.Size, bit)
		mark(saveBase(ri), saveStride, bit)
		for _, d := range r.Devices {
			for mi, dd := range k.m.Devices() {
				if dd == d {
					fp.owned[ri] = append(fp.owned[ri], mi)
				}
			}
		}
	}
	for ci, ch := range k.cfg.Channels {
		var bits uint32
		if fi, ok := ridx[ch.From]; ok {
			bits |= 1 << fi
		}
		if ti, ok := ridx[ch.To]; ok {
			bits |= 1 << ti
		}
		// Under the ChannelAlias leak chanBase maps every channel onto
		// channel 0's area, so that area accumulates every aliased
		// channel's From/To bits — conservative and correct.
		capi := ci
		if k.cfg.Leaks.ChannelAlias && ci > 0 {
			capi = 0
		}
		mark(k.chanBase(ci), 8+2*k.chanCap[capi], bits)
	}
	a.foot = fp
}

// adapterCheckpoint is the model.Checkpoint payload: the machine's delta
// plus the kernel-level dead flag — exactly the components adapterState
// restores on the full-snapshot path — and, for DirtyColours, the
// checkpoint-time current regime and device version counters.
type adapterCheckpoint struct {
	delta   *machine.Delta
	dead    bool
	current int
	devVer  []uint64
}

// Checkpoint implements model.Checkpointer. Returns nil (caller falls back
// to Save/Restore) when a delta is already active on the machine.
func (a *Adapter) Checkpoint() model.Checkpoint {
	d := a.K.m.DeltaSnapshot()
	if d == nil {
		return nil
	}
	a.ensureFootprint()
	cp := &adapterCheckpoint{delta: d, dead: a.K.dead, current: a.K.current()}
	if n := len(a.K.m.Devices()); n > 0 {
		cp.devVer = make([]uint64, n)
		for i := 0; i < n; i++ {
			cp.devVer[i] = a.K.m.DeviceVersion(i)
		}
	}
	return cp
}

// DirtyColours implements model.DirtyTracker over the per-word footprint
// masks: the delta journal names every RAM word written since the
// checkpoint (rollbacks clear it), each word's mask bit names the regimes
// whose Φ reads it, device versions cover owned-device mutations, and the
// live-CPU contribution is covered by conservatively marking the regimes
// that held the CPU at either end of the window (a regime that was current
// only transiently in between has its registers in its save area by now —
// journaled words like any other).
func (a *Adapter) DirtyColours(cp model.Checkpoint) (uint64, bool) {
	st, ok := cp.(*adapterCheckpoint)
	if !ok || st.delta == nil {
		return 0, false
	}
	fp := a.foot
	k := a.K
	m := k.m
	if fp == nil || fp.mask == nil || !m.DeltaActive() {
		return 0, false
	}
	if k.dead != st.dead {
		// System-level liveness changed; don't reason about footprints.
		return 0, false
	}
	var mask uint64
	for _, addr := range m.DeltaAddrs() {
		mask |= uint64(fp.mask[addr])
	}
	for ri := range fp.owned {
		for _, mi := range fp.owned[ri] {
			if m.DeviceVersion(mi) != st.devVer[mi] {
				mask |= 1 << uint(ri)
			}
		}
	}
	if cur := st.current; cur >= 0 && cur < len(fp.owned) {
		mask |= 1 << uint(cur)
	}
	if cur := k.current(); cur >= 0 && cur < len(fp.owned) {
		mask |= 1 << uint(cur)
	}
	return mask, true
}

// Rollback implements model.Checkpointer.
func (a *Adapter) Rollback(cp model.Checkpoint) {
	st := cp.(*adapterCheckpoint)
	a.K.m.DeltaRestore(st.delta)
	a.K.dead = st.dead
}

// Release implements model.Checkpointer: roll back, then stop tracking.
func (a *Adapter) Release(cp model.Checkpoint) {
	st := cp.(*adapterCheckpoint)
	a.K.m.DeltaRestore(st.delta)
	a.K.m.EndDelta(st.delta)
	a.K.dead = st.dead
}
