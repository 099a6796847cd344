// Package scsi models the shared disk of the paper's prototype: a
// dual-ported SCSI-ish block device reachable from both the primary and
// the backup processor (the I/O Device Accessibility Assumption), with
// the two interface properties the replication protocol relies on (§2.2):
//
//	IO1: if an I/O instruction is issued and performed, the issuing
//	     processor receives a completion interrupt.
//	IO2: if the processor receives an UNCERTAIN interrupt, the I/O may or
//	     may not have been performed.
//
// Uncertain interrupts model SCSI CHECK_CONDITION: drivers must retry,
// and the device tolerates repetition — which rule P7 exploits at
// failover. Transient faults are injectable deterministically.
//
// Each host sees the disk through an Adapter: a bank of memory-mapped
// registers (command, block, DMA address, byte count, status, doorbell)
// that DMAs into the host's RAM and raises an interrupt line on
// completion. The Disk itself serializes commands from both adapters and
// keeps an operation log for environment-consistency checking.
package scsi

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"slices"

	"repro/internal/free"
	"repro/internal/sim"
)

// Command opcodes written to the adapter's CMD register.
const (
	CmdRead    uint32 = 1 // disk block -> host memory
	CmdWrite   uint32 = 2 // host memory -> disk block
	CmdInquiry uint32 = 3 // device identification -> STATUS2 register
)

// Status register bits.
const (
	StatusBusy      uint32 = 1 << 0 // command in progress
	StatusDone      uint32 = 1 << 1 // completed successfully (IO1)
	StatusUncertain uint32 = 1 << 2 // CHECK_CONDITION: may or may not have happened (IO2)
	StatusError     uint32 = 1 << 3 // hard error (bad block/command)
)

// Adapter register offsets (word registers within the adapter window).
const (
	RegCmd      uint32 = 0x00
	RegBlock    uint32 = 0x04
	RegAddr     uint32 = 0x08
	RegCount    uint32 = 0x0C
	RegStatus   uint32 = 0x10 // read status; write 1-bits to clear
	RegDoorbell uint32 = 0x14 // write anything to start CMD
	RegInfo     uint32 = 0x18 // inquiry result / last-op detail

	// AdapterWindow is the size of the adapter's register bank.
	AdapterWindow uint32 = 0x20
)

// popsOnRead is the adapter's one purity rule: its registers are plain
// latches and none pops on a read. Adapter.MMIOPure (a bare machine's
// loads) and Shadow.PureLoad (a hypervisor's) both answer from it.
func popsOnRead(off uint32) bool { return false }

// Arena owns the block-sized buffers of the disks built over it
// (NewDiskIn): their written blocks, which Release hands back for the
// next disk the arena serves, and the write-DMA latches, each held from
// a write's issue to its completion. It has one owner at a time and no
// lock.
type Arena struct {
	blocks  free.List[[]byte]
	latches free.List[[]byte]
}

// buffer returns a block's worth of bytes off l, recycled when l has
// one; what they hold is unspecified.
func buffer(l *free.List[[]byte]) []byte {
	if buf, ok := l.Get(); ok {
		return buf[:BlockSize]
	}
	return make([]byte, BlockSize)
}

// block returns a zeroed block, recycled when a has one.
func (a *Arena) block() []byte {
	blk := buffer(&a.blocks)
	clear(blk)
	return blk
}

// The disk's geometry.
const (
	// Blocks is the number of blocks on a disk.
	Blocks = 4096
	// BlockSize is bytes per block: 8 KiB, the paper's unit.
	BlockSize = 8192
)

// zeroBlock is what every never-written block of every disk reads as,
// shared process-wide and never written: the write path (Disk.block)
// replaces it before handing a block out.
var zeroBlock [BlockSize]byte

// shared reports whether blk is zeroBlock.
func shared(blk []byte) bool { return len(blk) > 0 && &blk[0] == &zeroBlock[0] }

// DiskConfig describes the shared disk.
type DiskConfig struct {
	// ReadLatency is the device service time for a block read. The
	// paper's bare-hardware measurement: 24.2 ms for an 8 KiB read.
	ReadLatency sim.Time
	// WriteLatency is the device service time for a block write. The
	// paper: 26 ms.
	WriteLatency sim.Time
}

func (c DiskConfig) withDefaults() DiskConfig {
	if c.ReadLatency == 0 {
		c.ReadLatency = sim.Time(24.2 * float64(sim.Millisecond))
	}
	if c.WriteLatency == 0 {
		c.WriteLatency = 26 * sim.Millisecond
	}
	return c
}

// OpRecord is one entry in the disk's operation log: the externally
// visible I/O behaviour used to check that the environment cannot
// distinguish the replicated system from a single processor.
type OpRecord struct {
	Seq       uint64
	Host      int    // which adapter issued the command
	Cmd       uint32 // CmdRead / CmdWrite
	Block     uint32
	Committed bool   // writes: data actually hit the platter
	Uncertain bool   // completion was CHECK_CONDITION
	DataHash  uint64 // writes: FNV-64a of the data DMA'd from the host
	At        sim.Time
}

// Disk is the shared dual-ported device.
type Disk struct {
	k   *sim.Kernel
	cfg DiskConfig
	rng *rand.Rand // the uncertain-completion coin, built at its first toss (random)

	// blocks holds the touched blocks sparsely: a disk costs what its
	// touched blocks cost, not a Blocks-sized table up front. A block
	// that has only been read maps to the shared zeroBlock; the first
	// write gives it storage of its own, from the disk's arena.
	blocks map[uint32][]byte

	// Log records every operation the device performed or reported
	// uncertain, in service order.
	Log []OpRecord

	// OnOp, when set, observes every completed operation as it is
	// logged (session event streams).
	OnOp func(OpRecord)

	busyUntil     sim.Time
	seq           uint64
	uncertainNext int // scripted injection: next N ops report uncertain

	arena *Arena
	// latched holds the write-DMA latches lent by arena to writes not yet
	// completed: Release hands them back with the written blocks.
	latched [][]byte
}

// NewDisk creates the disk owned by kernel k, over a private arena: its
// written blocks are allocated plainly.
func NewDisk(k *sim.Kernel, cfg DiskConfig) *Disk { return NewDiskIn(new(Arena), k, cfg) }

// NewDiskIn is NewDisk over an arena: the disk's written blocks come
// from a and go back to it at Release, and every write's DMA latch
// comes from a and goes back at the write's completion (or at Release,
// if the write never completed).
func NewDiskIn(a *Arena, k *sim.Kernel, cfg DiskConfig) *Disk {
	return &Disk{k: k, cfg: cfg.withDefaults(), blocks: make(map[uint32][]byte), arena: a}
}

// Release hands the disk's written blocks, and the latches of writes
// still in flight, back to its arena. Call only on teardown, once the
// simulation kernel is down: the disk must not be used afterwards.
func (d *Disk) Release() {
	for _, buf := range d.latched {
		d.arena.latches.Put(buf)
	}
	d.latched = nil
	for _, blk := range d.blocks {
		if !shared(blk) {
			d.arena.blocks.Put(blk)
		}
	}
	d.blocks = nil
}

// unlatch hands a completed write's latch back to the arena.
func (d *Disk) unlatch(buf []byte) {
	for i, l := range d.latched {
		if &l[:1][0] == &buf[:1][0] {
			last := len(d.latched) - 1
			d.latched[i], d.latched[last] = d.latched[last], nil
			d.latched = d.latched[:last]
			break
		}
	}
	d.arena.latches.Put(buf)
}

// random is the coin an uncertain completion tosses to decide whether
// a write committed. Most disks never toss it, so its source is built
// at the first toss — from the same seed, so it draws what one built
// with the disk would.
func (d *Disk) random() *rand.Rand {
	if d.rng == nil {
		d.rng = rand.New(rand.NewSource(0x5C51))
	}
	return d.rng
}

// Config returns the disk configuration (defaults applied).
func (d *Disk) Config() DiskConfig { return d.cfg }

// InjectUncertainNext makes the next n operations complete with
// CHECK_CONDITION (each op independently decides whether it committed).
func (d *Disk) InjectUncertainNext(n int) { d.uncertainNext += n }

// block is the write path: b's own storage, faulted in zeroed.
func (d *Disk) block(b uint32) []byte {
	blk := d.view(b)
	if shared(blk) {
		blk = d.arena.block()
		d.blocks[b] = blk
	}
	return blk
}

// view is the read path: b's bytes, which must not be written. A block
// never written is the shared zero block, entered in blocks all the
// same — StateDigest hashes the set of blocks a disk has touched.
func (d *Disk) view(b uint32) []byte {
	if b >= Blocks {
		panic(fmt.Sprintf("scsi: block %d of a %d-block disk", b, Blocks))
	}
	blk := d.blocks[b]
	if blk == nil {
		blk = zeroBlock[:]
		d.blocks[b] = blk
	}
	return blk
}

// ReadBlockDirect copies a block's contents (test/verification backdoor,
// not part of the simulated environment).
func (d *Disk) ReadBlockDirect(b uint32) []byte {
	return slices.Clone(d.view(b))
}

// WriteBlockDirect sets a block's contents directly (test setup).
func (d *Disk) WriteBlockDirect(b uint32, data []byte) {
	copy(d.block(b), data)
}

// hash64 hashes a buffer for the op log.
func hash64(p []byte) uint64 {
	h := fnv.New64a()
	h.Write(p)
	return h.Sum64()
}

// HostMemory is the DMA interface an adapter uses to move data to and
// from its host's RAM (implemented by *machine.Machine).
type HostMemory interface {
	ReadInto(pa uint32, dst []byte)
	WriteBytes(pa uint32, data []byte)
}

// IRQLine raises an interrupt line on the host (implemented by
// *machine.Machine via a closure in the platform).
type IRQLine func()

// Adapter is one host's view of the disk: a register bank plus DMA and an
// interrupt line. It implements machine.MMIOHandler semantics for its
// window (the platform routes the window's offsets here).
type Adapter struct {
	disk *Disk
	host int
	mem  HostMemory
	irq  IRQLine

	// Registers.
	cmd, blockNo, addr, count, status, info uint32

	// Detached is set when the host has failstopped: completions are
	// discarded (no interrupt reaches a dead host).
	Detached bool

	// Stats.
	OpsIssued    uint64
	OpsCompleted uint64
	OpsUncertain uint64
}

// NewAdapter connects a host to the disk. host is 0 (primary's processor)
// or 1 (backup's); mem is the host's RAM for DMA; irq raises the host's
// external interrupt line on command completion.
func (d *Disk) NewAdapter(host int, mem HostMemory, irq IRQLine) *Adapter {
	return &Adapter{disk: d, host: host, mem: mem, irq: irq}
}

// MMIOLoad implements register reads.
func (a *Adapter) MMIOLoad(off uint32, size int) (uint32, error) {
	if size != 4 {
		return 0, fmt.Errorf("scsi: sub-word register access (size %d)", size)
	}
	switch off {
	case RegCmd:
		return a.cmd, nil
	case RegBlock:
		return a.blockNo, nil
	case RegAddr:
		return a.addr, nil
	case RegCount:
		return a.count, nil
	case RegStatus:
		return a.status, nil
	case RegDoorbell:
		return 0, nil
	case RegInfo:
		return a.info, nil
	}
	return 0, fmt.Errorf("scsi: bad register offset %#x", off)
}

// MMIOPure implements machine.MMIOHandler (see popsOnRead).
func (a *Adapter) MMIOPure(off uint32) bool { return !popsOnRead(off) }

// MMIOStore implements register writes; writing the doorbell issues the
// programmed command.
func (a *Adapter) MMIOStore(off uint32, size int, v uint32) error {
	if size != 4 {
		return fmt.Errorf("scsi: sub-word register access (size %d)", size)
	}
	switch off {
	case RegCmd:
		a.cmd = v
	case RegBlock:
		a.blockNo = v
	case RegAddr:
		a.addr = v
	case RegCount:
		a.count = v
	case RegStatus:
		a.status &^= v // write-1-to-clear
	case RegDoorbell:
		a.issue()
	case RegInfo:
		// read-only
	default:
		return fmt.Errorf("scsi: bad register offset %#x", off)
	}
	return nil
}

// Status returns the adapter's status register (for hypervisor snooping).
func (a *Adapter) Status() uint32 { return a.status }

// issue starts the programmed command on the shared disk.
func (a *Adapter) issue() {
	if a.status&StatusBusy != 0 {
		// Device busy: a second doorbell while busy is a programming
		// error; report a hard error immediately.
		a.status |= StatusError
		return
	}
	d := a.disk
	count := a.count
	if count == 0 || count > BlockSize {
		count = BlockSize
	}
	switch a.cmd {
	case CmdInquiry:
		a.status |= StatusBusy
		a.OpsIssued++
		d.k.After(100*sim.Microsecond, func() {
			a.info = 0x5C510001 // device model/version
			a.complete(StatusDone)
		})
		return
	case CmdRead, CmdWrite:
		if a.blockNo >= Blocks {
			a.status |= StatusError
			return
		}
	default:
		a.status |= StatusError
		return
	}
	a.status |= StatusBusy
	a.OpsIssued++

	cmd, blockNo, addr := a.cmd, a.blockNo, a.addr
	// For writes, latch the data at issue time (DMA from host memory)
	// into a block-sized buffer the arena lends until completion.
	var buf []byte
	if cmd == CmdWrite {
		buf = buffer(&d.arena.latches)[:count]
		d.latched = append(d.latched, buf)
		a.mem.ReadInto(addr, buf)
	}

	// Serialize on the shared device.
	var latency sim.Time
	if cmd == CmdRead {
		latency = d.cfg.ReadLatency
	} else {
		latency = d.cfg.WriteLatency
	}
	start := d.k.Now()
	if d.busyUntil > start {
		start = d.busyUntil
	}
	done := start + latency
	d.busyUntil = done

	d.k.At(done, func() {
		// Certainty is scripted (InjectUncertainNext). IO2: an uncertain
		// operation may or may not have been performed, which the coin
		// decides; a read transfers data only on certain completion.
		uncertain, committed := d.uncertainNext > 0, true
		if uncertain {
			d.uncertainNext--
			committed = d.random().Intn(2) == 0 && cmd == CmdWrite
		}
		rec := OpRecord{
			Seq: d.seq, Host: a.host, Cmd: cmd, Block: blockNo,
			Committed: committed, Uncertain: uncertain,
			At: d.k.Now(),
		}
		d.seq++
		switch cmd {
		case CmdRead:
			if !uncertain {
				data := d.view(blockNo)[:count]
				if !a.Detached {
					a.mem.WriteBytes(addr, data)
				}
			}
		case CmdWrite:
			rec.DataHash = hash64(buf)
			if committed {
				copy(d.block(blockNo), buf)
			}
			d.unlatch(buf)
		}
		d.Log = append(d.Log, rec)
		if d.OnOp != nil {
			d.OnOp(rec)
		}
		if uncertain {
			a.complete(StatusUncertain)
		} else {
			a.complete(StatusDone)
		}
	})
}

// complete finishes the in-flight command: updates status and raises the
// host interrupt (IO1), unless the host is detached (failstopped).
func (a *Adapter) complete(bits uint32) {
	a.status &^= StatusBusy
	a.status |= bits
	a.OpsCompleted++
	if bits&StatusUncertain != 0 {
		a.OpsUncertain++
	}
	if a.Detached {
		return
	}
	if a.irq != nil {
		a.irq()
	}
}

// digestPut appends 64-bit values to a digest, little-endian.
func digestPut(h hash.Hash64, vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
}

// StateDigest returns a deterministic hash of the disk's dynamic state:
// service-queue watermarks, the operation log, pending fault
// injections, and the contents of every touched block. Snapshot
// verification compares it between an original and a replayed run.
func (d *Disk) StateDigest() uint64 {
	h := fnv.New64a()
	put := func(vs ...uint64) { digestPut(h, vs...) }
	put(uint64(d.busyUntil), d.seq, uint64(d.uncertainNext), uint64(len(d.Log)))
	for _, r := range d.Log {
		flags := uint64(0)
		if r.Committed {
			flags |= 1
		}
		if r.Uncertain {
			flags |= 2
		}
		put(r.Seq, uint64(r.Host), uint64(r.Cmd), uint64(r.Block), flags, r.DataHash, uint64(r.At))
	}
	// Touched blocks, in ascending block order.
	idx := make([]uint32, 0, len(d.blocks))
	for i := range d.blocks {
		idx = append(idx, i)
	}
	slices.Sort(idx)
	for _, i := range idx {
		put(uint64(i), hash64(d.blocks[i]))
	}
	return h.Sum64()
}

// StateDigest returns a deterministic hash of the adapter's register
// bank, detach latch and counters (snapshot verification).
func (a *Adapter) StateDigest() uint64 {
	h := fnv.New64a()
	digestPut(h, uint64(a.cmd), uint64(a.blockNo), uint64(a.addr), uint64(a.count),
		uint64(a.status), uint64(a.info))
	flags := uint64(0)
	if a.Detached {
		flags |= 1
	}
	digestPut(h, flags, a.OpsIssued, a.OpsCompleted, a.OpsUncertain)
	return h.Sum64()
}

// WriteHistory returns the committed write hashes for a block, in order —
// used by tests to verify the single-processor-consistency claim: after
// failover plus retries, the sequence of committed writes must be a
// sequence a single processor could have produced (duplicates are
// allowed only as identical-content repetitions, which IO2 permits).
func (d *Disk) WriteHistory(block uint32) []uint64 {
	var out []uint64
	for _, r := range d.Log {
		if r.Cmd == CmdWrite && r.Block == block && r.Committed {
			out = append(out, r.DataHash)
		}
	}
	return out
}
