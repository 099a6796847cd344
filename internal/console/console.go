// Package console models the prototype's remote console/terminal
// (Figure 1 of the paper), generalized from a write-only side channel
// into a full environment device on the generic device layer:
//
//   - OUTPUT: bytes stored to the data register appear on the shared
//     transcript. Under replication only the I/O-active hypervisor's
//     writes reach it (a backup suppresses — and records — its own);
//     output writes carry an ordinal so a promoted backup can re-emit
//     the failover epoch's suppressed output EXACTLY ONCE (the device
//     dedups by ordinal watermark, the way output-commit systems dedup
//     by sequence number).
//
//   - INPUT: the environment can script keystrokes arriving at given
//     virtual times. Like the paper's dual-ported disk, the console is
//     ONE shared environment object with a Port per processor: every
//     port sees the same input stream (each byte tagged with a global
//     sequence number) and raises its host's interrupt line. The
//     I/O-active hypervisor captures the pending bytes as a completion
//     record (rule P1) and forwards them; every replica applies the
//     record at the epoch boundary (P5), consuming its own port's
//     pending input through the record's watermark — so after a
//     failover the promoted backup's port holds exactly the input the
//     environment delivered but no replica consumed, which rule P7's
//     generalization drains.
//
// Tests compare the transcript of a replicated run — including runs
// with failover and reintegration — against a bare single-machine run.
package console

import (
	"hash/fnv"

	"repro/internal/device"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// Register offsets (word registers within the console window).
const (
	RegData    uint32 = 0x00 // write: emit low byte; read: 0
	RegStatus  uint32 = 0x04 // read: bit0 output ready (always), bit1 input pending
	RegIn      uint32 = 0x08 // read: pop next pending input byte (0 when none)
	RegInSeq   uint32 = 0x0C // read: sequence number of the head input byte (0 when none)
	RegConsume uint32 = 0x10 // write: retire pending input with sequence <= value
	RegOutSeq  uint32 = 0x14 // write: ordinal for the NEXT data write (dedup tag)

	// Window is the size of the console register bank.
	Window uint32 = 0x20
)

// Status register bits.
const (
	StatusReady   uint32 = 1 << 0 // output always ready
	StatusRxAvail uint32 = 1 << 1 // input pending
)

// popsOnRead is the console's one purity rule: a load of RegIn pops the
// input FIFO; every other register reads without side effect.
// Port.MMIOPure (a bare machine's loads) and Shadow.PureLoad (a
// hypervisor's) both answer from it.
func popsOnRead(off uint32) bool { return off == RegIn }

// Input is one scripted environment input event: Data arrives at
// virtual time At.
type Input struct {
	At   sim.Time
	Data []byte
}

// Console is the SHARED environment console: one transcript, one input
// script, dual-ported like the paper's disk via Port.
type Console struct {
	out []byte
	// Writes counts data-register stores that appended to the
	// transcript (suppressed and deduplicated writes are not seen by
	// the device).
	Writes uint64

	// highWater is the output-ordinal dedup watermark: an
	// explicitly-tagged write with ordinal <= highWater is a
	// retransmission (a promoted backup re-emitting the failover
	// epoch's suppressed output) and is dropped.
	highWater uint32

	nextSeq uint32 // input sequence numbers assigned so far
	ports   []*Port

	// OnInput, when set, observes every scripted input event as it is
	// delivered to the ports (session event streams).
	OnInput func(seq uint32, data []byte)
}

// New returns an empty console.
func New() *Console { return &Console{} }

// NewPort attaches one processor's endpoint. irq (optional) raises the
// host's external interrupt line when input arrives.
func (c *Console) NewPort(irq func()) *Port {
	p := &Port{c: c, irq: irq}
	c.ports = append(c.ports, p)
	return p
}

// Input delivers environment input: each byte gets the next global
// sequence number and lands in every port's pending FIFO.
func (c *Console) Input(data []byte) {
	if len(data) == 0 {
		return
	}
	first := c.nextSeq + 1
	c.nextSeq += uint32(len(data))
	for _, p := range c.ports {
		p.push(first, data)
	}
	if c.OnInput != nil {
		c.OnInput(c.nextSeq, data)
	}
}

// Schedule registers the script's input events with the simulation
// kernel. Ports attached later (a reintegrated node) automatically see
// events that fire after their creation.
func (c *Console) Schedule(k *sim.Kernel, script []Input) {
	for _, ev := range script {
		data := ev.Data
		k.At(ev.At, func() { c.Input(data) })
	}
}

// Output returns the transcript so far.
func (c *Console) Output() string { return string(c.out) }

// Reset clears the transcript (test setup; input state is unaffected).
func (c *Console) Reset() { c.out = nil; c.Writes = 0 }

// DisableOutputDedup disables the ordinal high-water dedup in append,
// re-exposing the duplicate-output-after-promotion bug the ordinals
// exist to prevent. Fault-injection hook for the chaos campaign's
// self-test (it must catch and shrink exactly this class of bug);
// never set in production paths.
var DisableOutputDedup = false

// append applies one output byte, honoring the ordinal dedup watermark
// (ordinal 0 = untagged write, always applied).
func (c *Console) append(ordinal uint32, b byte) {
	if ordinal != 0 && !DisableOutputDedup {
		if ordinal <= c.highWater {
			return // retransmission of output the environment already saw
		}
		c.highWater = ordinal
	}
	c.out = append(c.out, b)
	c.Writes++
}

// StateDigest returns a deterministic hash of the console's dynamic
// state: transcript, watermarks, and every port's pending input
// (snapshot verification).
func (c *Console) StateDigest() uint64 {
	h := fnv.New64a()
	h.Write(c.out)
	var b [20]byte
	put32 := func(off int, v uint32) {
		b[off], b[off+1], b[off+2], b[off+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	}
	put32(0, c.highWater)
	put32(4, c.nextSeq)
	put32(8, uint32(c.Writes))
	put32(12, uint32(c.Writes>>32))
	put32(16, uint32(len(c.ports)))
	h.Write(b[:])
	for _, p := range c.ports {
		for _, e := range p.fifo {
			put32(0, e.seq)
			b[4] = e.b
			h.Write(b[:5])
		}
		b[0] = 0xFE
		h.Write(b[:1])
	}
	return h.Sum64()
}

// rxEntry is one pending input byte with its global sequence number.
type rxEntry struct {
	seq uint32
	b   byte
}

// Port is one processor's view of the console: a register bank on the
// host's MMIO bus. It implements machine.MMIOHandler semantics for its
// window.
type Port struct {
	c    *Console
	irq  func()
	fifo []rxEntry

	// outSeq is a pending explicit output ordinal (set by RegOutSeq,
	// consumed by the next RegData write; 0 = untagged).
	outSeq uint32

	// Detached is set when the host has failstopped: input stops
	// raising its interrupt line (no interrupt reaches a dead host).
	Detached bool
}

// push files arriving input (first is the sequence of data[0]).
func (p *Port) push(first uint32, data []byte) {
	for i, b := range data {
		p.fifo = append(p.fifo, rxEntry{seq: first + uint32(i), b: b})
	}
	if p.irq != nil && !p.Detached {
		p.irq()
	}
}

// consume retires pending input with sequence <= seq.
func (p *Port) consume(seq uint32) {
	i := 0
	for i < len(p.fifo) && p.fifo[i].seq <= seq {
		i++
	}
	if i > 0 {
		n := copy(p.fifo, p.fifo[i:])
		p.fifo = p.fifo[:n]
	}
}

// Pending reports how many input bytes await consumption (tests).
func (p *Port) Pending() int { return len(p.fifo) }

// MMIOLoad implements machine.MMIOHandler.
func (p *Port) MMIOLoad(off uint32, size int) (uint32, error) {
	switch off {
	case RegData:
		return 0, nil
	case RegStatus:
		s := StatusReady
		if len(p.fifo) > 0 {
			s |= StatusRxAvail
		}
		return s, nil
	case RegIn:
		if len(p.fifo) == 0 {
			return 0, nil
		}
		b := p.fifo[0].b
		n := copy(p.fifo, p.fifo[1:])
		p.fifo = p.fifo[:n]
		return uint32(b), nil
	case RegInSeq:
		if len(p.fifo) == 0 {
			return 0, nil
		}
		return p.fifo[0].seq, nil
	case RegConsume, RegOutSeq:
		return 0, nil
	}
	return 0, errBadReg(off)
}

// MMIOPure implements machine.MMIOHandler (see popsOnRead).
func (p *Port) MMIOPure(off uint32) bool { return !popsOnRead(off) }

// MMIOStore implements machine.MMIOHandler.
func (p *Port) MMIOStore(off uint32, size int, v uint32) error {
	switch off {
	case RegData:
		ord := p.outSeq
		p.outSeq = 0
		p.c.append(ord, byte(v))
		return nil
	case RegStatus:
		return nil // ignored
	case RegIn, RegInSeq:
		return nil // read-only
	case RegConsume:
		p.consume(v)
		return nil
	case RegOutSeq:
		p.outSeq = v
		return nil
	}
	return errBadReg(off)
}

// StateDigest hashes the port's dynamic state (snapshot verification).
func (p *Port) StateDigest() uint64 {
	h := fnv.New64a()
	var b [5]byte
	for _, e := range p.fifo {
		b[0], b[1], b[2], b[3] = byte(e.seq), byte(e.seq>>8), byte(e.seq>>16), byte(e.seq>>24)
		b[4] = e.b
		h.Write(b[:])
	}
	b[0] = 0
	if p.Detached {
		b[0] = 1
	}
	h.Write(b[:1])
	b[0], b[1], b[2], b[3] = byte(p.outSeq), byte(p.outSeq>>8), byte(p.outSeq>>16), byte(p.outSeq>>24)
	h.Write(b[:4])
	return h.Sum64()
}

type badReg uint32

func (b badReg) Error() string { return "console: bad register offset" }

func errBadReg(off uint32) error { return badReg(off) }

// Shadow is the hypervisor-side virtual console: the guest-visible
// register bank. Output stores are classified EffectOutput (the
// hypervisor gates them on I/O-activity); input becomes visible to the
// guest only when a captured completion record is applied at an epoch
// boundary — so terminal input, like disk completions, arrives on every
// replica at the same instruction-stream position.
type Shadow struct {
	rx []byte // delivered input awaiting guest reads
}

// NewShadow returns an empty virtual console.
func NewShadow() *Shadow { return &Shadow{} }

var _ device.Shadow = (*Shadow)(nil)

// Load implements device.Shadow. Reading RegIn pops the delivered-input
// FIFO — a deterministic shadow-state mutation (both replicas execute
// the same loads).
func (s *Shadow) Load(off uint32) uint32 {
	switch off {
	case RegStatus:
		v := StatusReady
		if len(s.rx) > 0 {
			v |= StatusRxAvail
		}
		return v
	case RegIn:
		if len(s.rx) == 0 {
			return 0
		}
		b := s.rx[0]
		s.rx = s.rx[1:]
		return uint32(b)
	}
	return 0
}

// PureLoad implements device.Shadow (see popsOnRead).
func (s *Shadow) PureLoad(off uint32) bool { return !popsOnRead(off) }

// Store implements device.Shadow: a data write is environment output.
func (s *Shadow) Store(off uint32, v uint32) device.Effect {
	if off == RegData {
		return device.EffectOutput
	}
	return device.EffectNone
}

// Output implements device.Shadow: forward one output byte to the real
// console, tagged with its ordinal so re-emission after a failover
// cannot duplicate bytes the environment already saw.
func (s *Shadow) Output(bus device.Bus, off, v uint32, ordinal uint32) {
	bus.Store(RegOutSeq, ordinal)
	bus.Store(RegData, v)
}

// Start implements device.Shadow (the console has no doorbell).
func (s *Shadow) Start(bus device.Bus) {}

// Capture implements device.Shadow: drain the port's pending input into
// one completion record carrying the bytes and the sequence watermark.
func (s *Shadow) Capture(bus device.Bus, mem device.Memory) (device.Completion, bool) {
	var c device.Completion
	for bus.Load(RegStatus)&StatusRxAvail != 0 {
		c.Seq = bus.Load(RegInSeq)
		c.Data = append(c.Data, byte(bus.Load(RegIn)))
	}
	if len(c.Data) == 0 {
		return device.Completion{}, false
	}
	c.Status = StatusRxAvail
	return c, true
}

// Apply implements device.Shadow: make the delivered input visible to
// the guest and retire the real port's pending bytes through the
// record's watermark (a no-op on the node that captured them).
func (s *Shadow) Apply(c device.Completion, mem device.Memory, bus device.Bus) {
	s.rx = append(s.rx, c.Data...)
	bus.Store(RegConsume, c.Seq)
}

// Recover implements device.Shadow: at failover, input the environment
// delivered but no replica consumed is still pending on this node's
// port — capture it now so the promoted virtual machine receives it.
// Bytes covered by records already awaiting delivery (the dead
// coordinator captured and forwarded them for the failover epoch) are
// drained but NOT re-captured: they arrive with those records.
// (These are environment events, not uncertain completions: count 0.)
func (s *Shadow) Recover(bus device.Bus, mem device.Memory, outstanding bool, buffered []device.Completion) ([]device.Completion, int) {
	var covered uint32
	for _, b := range buffered {
		if b.Seq > covered {
			covered = b.Seq
		}
	}
	var c device.Completion
	for bus.Load(RegStatus)&StatusRxAvail != 0 {
		seq := bus.Load(RegInSeq)
		b := byte(bus.Load(RegIn))
		if seq <= covered {
			continue // will be applied with its forwarded record
		}
		c.Seq = seq
		c.Data = append(c.Data, b)
	}
	if len(c.Data) == 0 {
		return nil, 0
	}
	c.Status = StatusRxAvail
	return []device.Completion{c}, 0
}

// CodeState implements device.Shadow: the delivered input the guest has
// not read yet.
func (s *Shadow) CodeState(c *snapshot.Codec) { c.Bytes(&s.rx) }
