package machine

// TTY is a serial line: a receiver fed by external input and a transmitter
// whose bytes accumulate in an externally observable output buffer. It is
// the SM11 analogue of a DL11 console interface.
//
// Register map:
//
//	0 RSTAT  bit0 ready (read), bit6 receiver interrupt enable (read/write)
//	1 RDATA  reading consumes the current input word and clears ready
//	2 XSTAT  bit0 ready (read), bit6 transmitter interrupt enable (read/write)
//	3 XDATA  writing queues one word for output
type TTY struct {
	name string

	rxQueue []Word // external input not yet presented
	rxData  Word   // currently presented input word
	rxReady bool
	rxIE    bool
	rxDelay int // ticks until next queued word is presented
	rxRate  int // presentation interval in ticks

	txBusy int // ticks until transmitter is ready again
	txRate int
	txIE   bool
	out    []Word // everything transmitted since reset/drain

	// Interrupt request latches: set on a ready transition (or on enabling
	// interrupts while ready), cleared by Ack. Edge-latching keeps a slow
	// handler from seeing an interrupt storm.
	rxPend bool
	txPend bool

	prio int
}

const (
	ttyStatReady Word = 1 << 0
	ttyStatIE    Word = 1 << 6
)

// NewTTY creates a TTY with the given name. rate is the number of ticks a
// word takes to move through either side of the interface (1 = every tick).
func NewTTY(name string, rate int) *TTY {
	if rate < 1 {
		rate = 1
	}
	return &TTY{name: name, rxRate: rate, txRate: rate, prio: 4}
}

// Replicate implements Replicator.
func (t *TTY) Replicate() Device {
	n := NewTTY(t.name, 1)
	n.rxRate = t.rxRate
	n.txRate = t.txRate
	n.prio = t.prio
	return n
}

// Name implements Device.
func (t *TTY) Name() string { return t.name }

// Size implements Device.
func (t *TTY) Size() int { return 4 }

// Priority implements Device.
func (t *TTY) Priority() int { return t.prio }

// Reset implements Device.
func (t *TTY) Reset() {
	t.rxQueue = nil
	t.rxData = 0
	t.rxReady = false
	t.rxIE = false
	t.rxDelay = 0
	t.txBusy = 0
	t.txIE = false
	t.out = nil
	t.rxPend = false
	t.txPend = false
}

// InjectInput implements InputSink.
func (t *TTY) InjectInput(ws []Word) { t.rxQueue = append(t.rxQueue, ws...) }

// InjectString queues the bytes of s as input words.
func (t *TTY) InjectString(s string) {
	for i := 0; i < len(s); i++ {
		t.rxQueue = append(t.rxQueue, Word(s[i]))
	}
}

// PeekOutput implements OutputSource.
func (t *TTY) PeekOutput() []Word { return append([]Word(nil), t.out...) }

// DrainOutput implements OutputSource.
func (t *TTY) DrainOutput() []Word {
	o := t.out
	t.out = nil
	return o
}

// OutputString renders the accumulated output as a byte string.
func (t *TTY) OutputString() string {
	b := make([]byte, len(t.out))
	for i, w := range t.out {
		b[i] = byte(w)
	}
	return string(b)
}

// ReadReg implements Device.
func (t *TTY) ReadReg(off int) Word {
	switch off {
	case 0:
		var v Word
		if t.rxReady {
			v |= ttyStatReady
		}
		if t.rxIE {
			v |= ttyStatIE
		}
		return v
	case 1:
		t.rxReady = false
		t.rxDelay = t.rxRate
		return t.rxData
	case 2:
		var v Word
		if t.txBusy == 0 {
			v |= ttyStatReady
		}
		if t.txIE {
			v |= ttyStatIE
		}
		return v
	case 3:
		return 0
	}
	return 0
}

// WriteReg implements Device.
func (t *TTY) WriteReg(off int, v Word) {
	switch off {
	case 0:
		was := t.rxIE
		t.rxIE = v&ttyStatIE != 0
		if !was && t.rxIE && t.rxReady {
			t.rxPend = true
		}
	case 2:
		was := t.txIE
		t.txIE = v&ttyStatIE != 0
		if !was && t.txIE && t.txBusy == 0 {
			t.txPend = true
		}
	case 3:
		if t.txBusy == 0 {
			t.out = append(t.out, v)
			t.txBusy = t.txRate
		}
	}
}

// Tick implements Device.
func (t *TTY) Tick() {
	if t.txBusy > 0 {
		t.txBusy--
		if t.txBusy == 0 && t.txIE {
			t.txPend = true
		}
	}
	if !t.rxReady && len(t.rxQueue) > 0 {
		if t.rxDelay > 0 {
			t.rxDelay--
		}
		if t.rxDelay == 0 {
			t.rxData = t.rxQueue[0]
			t.rxQueue = t.rxQueue[1:]
			t.rxReady = true
			if t.rxIE {
				t.rxPend = true
			}
		}
	}
}

// Pending implements Device.
func (t *TTY) Pending() bool { return t.rxPend || t.txPend }

// Ack implements Device: taking the interrupt clears the request latches;
// the handler learns the cause from the status registers.
func (t *TTY) Ack() {
	t.rxPend = false
	t.txPend = false
}

// AppendState implements Device.
func (t *TTY) AppendState(dst []Word) []Word {
	dst = append(dst,
		boolWord(t.rxReady), boolWord(t.rxIE), t.rxData,
		Word(t.rxDelay), Word(t.txBusy), boolWord(t.txIE),
		boolWord(t.rxPend), boolWord(t.txPend),
		Word(len(t.rxQueue)), Word(len(t.out)))
	dst = append(dst, t.rxQueue...)
	return append(dst, t.out...)
}

// RestoreState implements Device.
func (t *TTY) RestoreState(ws []Word) {
	t.rxReady = ws[0] != 0
	t.rxIE = ws[1] != 0
	t.rxData = ws[2]
	t.rxDelay = int(ws[3])
	t.txBusy = int(ws[4])
	t.txIE = ws[5] != 0
	t.rxPend = ws[6] != 0
	t.txPend = ws[7] != 0
	nq, no := int(ws[8]), int(ws[9])
	// Both buffers are private (PeekOutput copies, DrainOutput hands its
	// buffer over), so a rollback refills them in place.
	t.rxQueue = append(t.rxQueue[:0], ws[10:10+nq]...)
	t.out = append(t.out[:0], ws[10+nq:10+nq+no]...)
}
