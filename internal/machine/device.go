package machine

// Device is a memory-mapped peripheral. Its registers occupy a contiguous
// block of the I/O page; the machine assigns the block base and an interrupt
// vector when the device is attached. SM11 has no DMA — following the SUE
// design, devices can only be reached through their registers, so the MMU
// protects them "just like ordinary memory locations" and the kernel can
// give each regime exclusive ownership of its devices by mapping only that
// regime's register blocks.
type Device interface {
	// Name identifies the device for diagnostics and snapshots.
	Name() string
	// Size is the number of Word registers the device exposes.
	Size() int
	// Reset returns the device to its power-on state.
	Reset()
	// ReadReg reads register off (0 <= off < Size).
	ReadReg(off int) Word
	// WriteReg writes register off.
	WriteReg(off int, v Word)
	// Tick advances the device by one machine cycle.
	Tick()
	// Pending reports whether the device is requesting an interrupt.
	Pending() bool
	// Priority is the device's fixed interrupt priority (1..7).
	Priority() int
	// Ack tells the device its interrupt has been taken.
	Ack()
	// AppendState appends all security-relevant device state to dst and
	// returns the extended slice; dst's prefix is left as it was.
	AppendState(dst []Word) []Word
	// RestoreState is the inverse of AppendState: it reads a state
	// AppendState produced, without retaining ws.
	RestoreState(ws []Word)
}

// Replicator is implemented by devices that can manufacture a fresh,
// power-on copy of themselves with the same configuration (name, rates,
// priority). Replication is what lets a whole machine be cloned for
// parallel verification: the clone attaches replicas in the original bus
// order and then restores a Snapshot over them, which carries the dynamic
// state across. Devices wired to shared environment state (link endpoints)
// deliberately do not implement Replicator — a replica could not share the
// wire without coupling the clone to the original.
type Replicator interface {
	Device
	// Replicate returns the power-on copy, or nil if this instance cannot
	// be replicated.
	Replicate() Device
}

// InputSink is implemented by devices that accept stimuli from the outside
// world (the model's INPUT function delivers to these).
type InputSink interface {
	Device
	// InjectInput makes the given words available as external input.
	InjectInput(ws []Word)
}

// OutputSource is implemented by devices that emit data to the outside
// world (the model's OUTPUT function observes these).
type OutputSource interface {
	Device
	// PeekOutput returns the output emitted so far without consuming it.
	PeekOutput() []Word
	// DrainOutput returns and clears the emitted output.
	DrainOutput() []Word
}

// I/O page layout (physical word addresses). Everything at or above IOBase
// is an I/O register rather than RAM.
const (
	// IOBase is the first word address of the I/O page.
	IOBase Word = 0xF000

	// MMU control registers.
	IOSegBase Word = 0xF000 // +i: segment i physical base
	IOSegCtl  Word = 0xF010 // +i: segment i limit|access
	IOMMUStat Word = 0xF020 // latched abort reason
	IOMMUAddr Word = 0xF021 // latched abort virtual address

	// IODevBase is where device register blocks begin; blocks are assigned
	// upward from here at Attach time, rounded to 8-word boundaries.
	IODevBase Word = 0xF040
)

// Interrupt and trap vectors (physical word addresses of two-word
// [newPC, newPSW] entries). Device vectors are assigned from VecDevBase.
const (
	VecIllegal Word = 0x04 // illegal instruction or privileged op in user mode
	VecMMU     Word = 0x08 // MMU abort (user-mode access violation)
	VecTRAP    Word = 0x0C // TRAP instruction (kernel service call)
	VecDevBase Word = 0x20
)

// Handle describes an attached device's location on the bus.
type Handle struct {
	Base   Word // first word address of the register block
	Vector Word // interrupt vector assigned to the device
}
