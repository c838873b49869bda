package kernel

import (
	"fmt"
	"strings"

	"repro/internal/machine"
	"repro/internal/model"
)

// ReferenceAbstract renders Φ^c with fmt straight from machine state. It
// shares no code with walkPhi or Abstract, so the property tests hold
// Abstract to it byte for byte.
func ReferenceAbstract(a *Adapter, c model.Colour) string {
	k := a.K
	i := k.RegimeIndex(string(c))
	if i < 0 {
		return ""
	}
	r := k.cfg.Regimes[i]
	var b strings.Builder

	// Register file and control state, as the regime would observe it.
	for reg := 0; reg < 6; reg++ {
		fmt.Fprintf(&b, "r%d=%04x;", reg, k.RegimeReg(i, reg))
	}
	fmt.Fprintf(&b, "sp=%04x;pc=%04x;cc=%x;", k.RegimeReg(i, machine.RegSP),
		k.RegimeReg(i, machine.RegPC), k.RegimePSW(i))
	sb := saveBase(i)
	fmt.Fprintf(&b, "st=%x;pend=%04x;ipl=%x;", k.m.ReadPhys(sb+saveState),
		k.m.ReadPhys(sb+savePending), k.m.ReadPhys(sb+saveIPL))

	// The partition, word by word.
	b.WriteString("mem=")
	for off := Word(0); off < r.Size; off++ {
		fmt.Fprintf(&b, "%04x", k.m.ReadPhys(r.Base+off))
	}
	b.WriteByte(';')

	// Owned devices.
	for _, d := range r.Devices {
		fmt.Fprintf(&b, "dev:%s=", d.Name())
		for _, w := range d.AppendState(nil) {
			fmt.Fprintf(&b, "%04x", w)
		}
		b.WriteByte(';')
	}

	// Channel views: what this regime could learn via SEND/RECV/POLL.
	for ci, ch := range k.cfg.Channels {
		base := k.chanBase(ci)
		capa := k.m.ReadPhys(base + 3)
		switch string(c) {
		case ch.From:
			fmt.Fprintf(&b, "ch:%s:free=%d;", ch.Name, capa-k.m.ReadPhys(base+2))
		case ch.To:
			if k.cfg.CutChannels {
				cnt := k.m.ReadPhys(base + 6)
				head := k.m.ReadPhys(base + 4)
				fmt.Fprintf(&b, "ch:%s:rd=%d:", ch.Name, cnt)
				for j := Word(0); j < cnt; j++ {
					fmt.Fprintf(&b, "%04x", k.m.ReadPhys(base+8+capa+(head+j)%capa))
				}
				b.WriteByte(';')
			} else {
				cnt := k.m.ReadPhys(base + 2)
				head := k.m.ReadPhys(base + 0)
				fmt.Fprintf(&b, "ch:%s:rd=%d:", ch.Name, cnt)
				for j := Word(0); j < cnt; j++ {
					fmt.Fprintf(&b, "%04x", k.m.ReadPhys(base+8+(head+j)%capa))
				}
				b.WriteByte(';')
			}
		}
	}
	return b.String()
}
