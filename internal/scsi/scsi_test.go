package scsi

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/snapshot"
)

// fakeMem is a simple HostMemory for tests.
type fakeMem struct{ data []byte }

func newFakeMem(n int) *fakeMem { return &fakeMem{data: make([]byte, n)} }

func (m *fakeMem) ReadBytes(pa uint32, n int) []byte {
	out := make([]byte, n)
	copy(out, m.data[pa:int(pa)+n])
	return out
}

func (m *fakeMem) ReadInto(pa uint32, dst []byte) {
	copy(dst, m.data[pa:int(pa)+len(dst)])
}

func (m *fakeMem) WriteBytes(pa uint32, data []byte) {
	copy(m.data[pa:int(pa)+len(data)], data)
}

// rig wires a disk + one adapter + an IRQ flag.
type rig struct {
	k    *sim.Kernel
	disk *Disk
	mem  *fakeMem
	ad   *Adapter
	irqs int
}

func newRig(t *testing.T, cfg DiskConfig) *rig { return newRigIn(t, new(Arena), cfg) }

// newRigIn is newRig with the disk over arena a.
func newRigIn(t *testing.T, a *Arena, cfg DiskConfig) *rig {
	t.Helper()
	r := &rig{k: sim.NewKernel(1)}
	r.disk = NewDiskIn(a, r.k, cfg)
	r.mem = newFakeMem(1 << 20)
	r.ad = r.disk.NewAdapter(0, r.mem, func() { r.irqs++ })
	t.Cleanup(r.k.Shutdown)
	return r
}

// command programs the registers and rings the doorbell.
func (r *rig) command(cmd, block, addr, count uint32) {
	r.ad.MMIOStore(RegCmd, 4, cmd)
	r.ad.MMIOStore(RegBlock, 4, block)
	r.ad.MMIOStore(RegAddr, 4, addr)
	r.ad.MMIOStore(RegCount, 4, count)
	r.ad.MMIOStore(RegDoorbell, 4, 1)
}

func (r *rig) status() uint32 {
	v, _ := r.ad.MMIOLoad(RegStatus, 4)
	return v
}

func TestWriteThenRead(t *testing.T) {
	r := newRig(t, DiskConfig{})
	payload := bytes.Repeat([]byte{0xAB}, 8192)
	r.mem.WriteBytes(0x1000, payload)

	r.command(CmdWrite, 7, 0x1000, 8192)
	if r.status()&StatusBusy == 0 {
		t.Fatal("not busy after doorbell")
	}
	r.k.Run()
	if r.status()&StatusDone == 0 {
		t.Fatalf("status = %#x, want done", r.status())
	}
	if r.irqs != 1 {
		t.Errorf("irqs = %d, want 1 (IO1)", r.irqs)
	}
	if !bytes.Equal(r.disk.ReadBlockDirect(7), payload) {
		t.Error("block contents wrong after write")
	}

	// Clear status, read it back to a different address.
	r.ad.MMIOStore(RegStatus, 4, 0xFFFFFFFF)
	r.command(CmdRead, 7, 0x9000, 8192)
	r.k.Run()
	if r.status()&StatusDone == 0 {
		t.Fatalf("read status = %#x", r.status())
	}
	if !bytes.Equal(r.mem.ReadBytes(0x9000, 8192), payload) {
		t.Error("DMA'd read data wrong")
	}
	if r.irqs != 2 {
		t.Errorf("irqs = %d, want 2", r.irqs)
	}
}

func TestServiceTimes(t *testing.T) {
	r := newRig(t, DiskConfig{})
	r.command(CmdWrite, 1, 0, 8192)
	end := r.k.Run()
	if end != 26*sim.Millisecond {
		t.Errorf("write completed at %v, want 26ms (paper)", end)
	}
	r2 := newRig(t, DiskConfig{})
	r2.command(CmdRead, 1, 0, 8192)
	end2 := r2.k.Run()
	want := sim.Time(24.2 * float64(sim.Millisecond))
	if end2 != want {
		t.Errorf("read completed at %v, want 24.2ms (paper)", end2)
	}
}

func TestSerialization(t *testing.T) {
	// Two commands from two adapters share the device: second waits.
	k := sim.NewKernel(1)
	defer k.Shutdown()
	d := NewDisk(k, DiskConfig{})
	mem0, mem1 := newFakeMem(1<<16), newFakeMem(1<<16)
	var done0, done1 sim.Time
	a0 := d.NewAdapter(0, mem0, nil)
	a1 := d.NewAdapter(1, mem1, nil)
	issue := func(a *Adapter) {
		a.MMIOStore(RegCmd, 4, CmdRead)
		a.MMIOStore(RegBlock, 4, 0)
		a.MMIOStore(RegAddr, 4, 0)
		a.MMIOStore(RegCount, 4, 8192)
		a.MMIOStore(RegDoorbell, 4, 1)
	}
	a0.irq = func() { done0 = k.Now() }
	a1.irq = func() { done1 = k.Now() }
	issue(a0)
	issue(a1)
	k.Run()
	if done1 <= done0 {
		t.Errorf("second op done at %v, first at %v: no serialization", done1, done0)
	}
	if done1-done0 != d.Config().ReadLatency {
		t.Errorf("gap = %v, want one read latency", done1-done0)
	}
}

func TestUncertainInjectionIO2(t *testing.T) {
	r := newRig(t, DiskConfig{})
	r.disk.InjectUncertainNext(1)
	payload := bytes.Repeat([]byte{0x11}, 8192)
	r.mem.WriteBytes(0, payload)
	r.command(CmdWrite, 3, 0, 8192)
	r.k.Run()
	st := r.status()
	if st&StatusUncertain == 0 {
		t.Fatalf("status = %#x, want uncertain", st)
	}
	if r.irqs != 1 {
		t.Error("uncertain completion must still interrupt (IO1/IO2)")
	}
	// The write may or may not have committed; the log records which.
	if len(r.disk.Log) != 1 {
		t.Fatalf("log = %+v", r.disk.Log)
	}
	rec := r.disk.Log[0]
	if !rec.Uncertain {
		t.Error("log record not marked uncertain")
	}
	got := r.disk.ReadBlockDirect(3)
	if rec.Committed && !bytes.Equal(got, payload) {
		t.Error("log says committed but data absent")
	}
	if !rec.Committed && bytes.Equal(got, payload) {
		t.Error("log says not committed but data present")
	}
	// Driver retry: reissue the same write; device tolerates repetition.
	r.ad.MMIOStore(RegStatus, 4, 0xFFFFFFFF)
	r.command(CmdWrite, 3, 0, 8192)
	r.k.Run()
	if !bytes.Equal(r.disk.ReadBlockDirect(3), payload) {
		t.Error("retry did not commit the data")
	}
}

func TestInquiry(t *testing.T) {
	r := newRig(t, DiskConfig{})
	r.command(CmdInquiry, 0, 0, 0)
	r.k.Run()
	if r.status()&StatusDone == 0 {
		t.Fatalf("status = %#x", r.status())
	}
	info, _ := r.ad.MMIOLoad(RegInfo, 4)
	if info != 0x5C510001 {
		t.Errorf("info = %#x", info)
	}
}

func TestBadCommandsError(t *testing.T) {
	r := newRig(t, DiskConfig{})
	// Bad opcode.
	r.command(99, 0, 0, 0)
	if r.status()&StatusError == 0 {
		t.Error("bad opcode not flagged")
	}
	r.ad.MMIOStore(RegStatus, 4, 0xFFFFFFFF)
	// Block out of range.
	r.command(CmdRead, 1<<30, 0, 0)
	if r.status()&StatusError == 0 {
		t.Error("bad block not flagged")
	}
	// Doorbell while busy.
	r.ad.MMIOStore(RegStatus, 4, 0xFFFFFFFF)
	r.command(CmdRead, 0, 0, 0)
	r.command(CmdRead, 1, 0, 0) // second doorbell while busy
	if r.status()&StatusError == 0 {
		t.Error("doorbell-while-busy not flagged")
	}
	r.k.Run()
}

func TestBadRegister(t *testing.T) {
	r := newRig(t, DiskConfig{})
	if _, err := r.ad.MMIOLoad(0x1C, 4); err == nil {
		t.Error("bad offset load did not error")
	}
	if err := r.ad.MMIOStore(0x1C, 4, 0); err == nil {
		t.Error("bad offset store did not error")
	}
	if _, err := r.ad.MMIOLoad(RegStatus, 2); err == nil {
		t.Error("sub-word load did not error")
	}
}

func TestDetachedHostGetsNoInterrupt(t *testing.T) {
	// Models the failstop primary: the device completes the op (possibly
	// committing it!) but the dead host never sees the interrupt — the
	// lost-interrupt window that rule P7 must cover.
	r := newRig(t, DiskConfig{})
	payload := bytes.Repeat([]byte{0x77}, 8192)
	r.mem.WriteBytes(0, payload)
	r.command(CmdWrite, 5, 0, 8192)
	r.ad.Detached = true // host dies mid-flight
	r.k.Run()
	if r.irqs != 0 {
		t.Error("detached host received an interrupt")
	}
	// The write still committed on the platter.
	if !bytes.Equal(r.disk.ReadBlockDirect(5), payload) {
		t.Error("write lost despite device completion")
	}
}

func TestDualPortAccessibility(t *testing.T) {
	// The I/O Device Accessibility Assumption: the backup's adapter can
	// read what the primary's adapter wrote.
	k := sim.NewKernel(1)
	defer k.Shutdown()
	d := NewDisk(k, DiskConfig{})
	mem0, mem1 := newFakeMem(1<<16), newFakeMem(1<<16)
	a0 := d.NewAdapter(0, mem0, nil)
	a1 := d.NewAdapter(1, mem1, nil)
	payload := bytes.Repeat([]byte{0x42}, 8192)
	mem0.WriteBytes(0, payload)
	a0.MMIOStore(RegCmd, 4, CmdWrite)
	a0.MMIOStore(RegBlock, 4, 9)
	a0.MMIOStore(RegAddr, 4, 0)
	a0.MMIOStore(RegCount, 4, 8192)
	a0.MMIOStore(RegDoorbell, 4, 1)
	k.Run()
	a1.MMIOStore(RegCmd, 4, CmdRead)
	a1.MMIOStore(RegBlock, 4, 9)
	a1.MMIOStore(RegAddr, 4, 0x100)
	a1.MMIOStore(RegCount, 4, 8192)
	a1.MMIOStore(RegDoorbell, 4, 1)
	k.Run()
	if !bytes.Equal(mem1.ReadBytes(0x100, 8192), payload) {
		t.Error("backup host could not read primary's write")
	}
	// Log attributes hosts correctly.
	if d.Log[0].Host != 0 || d.Log[1].Host != 1 {
		t.Errorf("log hosts = %d,%d", d.Log[0].Host, d.Log[1].Host)
	}
}

func TestWriteHistory(t *testing.T) {
	r := newRig(t, DiskConfig{})
	write := func(b byte) {
		payload := bytes.Repeat([]byte{b}, 8192)
		r.mem.WriteBytes(0, payload)
		r.command(CmdWrite, 2, 0, 8192)
		r.k.Run()
		r.ad.MMIOStore(RegStatus, 4, 0xFFFFFFFF)
	}
	write(1)
	write(2)
	write(2) // idempotent repetition (like a P7 retry)
	h := r.disk.WriteHistory(2)
	if len(h) != 3 {
		t.Fatalf("history len = %d", len(h))
	}
	if h[1] != h[2] {
		t.Error("identical writes should hash identically")
	}
	if h[0] == h[1] {
		t.Error("distinct writes should hash differently")
	}
}

func TestPartialCount(t *testing.T) {
	r := newRig(t, DiskConfig{})
	r.mem.WriteBytes(0, []byte{1, 2, 3, 4})
	r.command(CmdWrite, 0, 0, 4)
	r.k.Run()
	got := r.disk.ReadBlockDirect(0)
	if got[0] != 1 || got[3] != 4 {
		t.Error("partial write wrong")
	}
	// Count larger than block size clamps.
	r.ad.MMIOStore(RegStatus, 4, 0xFFFFFFFF)
	r.command(CmdRead, 0, 0x2000, 1<<20)
	r.k.Run()
	if r.status()&StatusDone == 0 {
		t.Error("clamped read failed")
	}
}

// TestOnePurityRule: the adapter (a bare machine's loads) and the shadow
// (a hypervisor's) declare the same registers pure, because both answer
// from popsOnRead — and every register declared pure is: loaded twice it
// reads the same and leaves the adapter's and the shadow's registers as
// it found them. (None pops: the adapter's registers are latches.)
func TestOnePurityRule(t *testing.T) {
	r := newRig(t, DiskConfig{})
	r.command(CmdRead, 3, 0x1000, 512)
	s := NewShadow()
	for off, v := range []uint32{CmdRead, 3, 0x1000, 512} {
		s.Store(uint32(4*off), v)
	}
	s.Store(RegDoorbell, 1)
	regs := func() [6]uint32 {
		a := r.ad
		return [6]uint32{a.cmd, a.blockNo, a.addr, a.count, a.status, a.info}
	}
	for off := uint32(0); off < AdapterWindow; off += 4 {
		if r.ad.MMIOPure(off) != s.PureLoad(off) {
			t.Fatalf("register %#x: adapter pure %v, shadow pure %v", off, r.ad.MMIOPure(off), s.PureLoad(off))
		}
		if !r.ad.MMIOPure(off) {
			t.Fatalf("register %#x is declared impure: the adapter has no read-to-pop register", off)
		}
		adapter, shadow := regs(), string(marshal(s))
		v1, err1 := r.ad.MMIOLoad(off, 4)
		v2, err2 := r.ad.MMIOLoad(off, 4)
		w1, w2 := s.Load(off), s.Load(off)
		if v1 != v2 || (err1 == nil) != (err2 == nil) || w1 != w2 {
			t.Fatalf("pure register %#x read %#x then %#x (adapter), %#x then %#x (shadow)", off, v1, v2, w1, w2)
		}
		if regs() != adapter || string(marshal(s)) != shadow {
			t.Fatalf("pure register %#x moved the adapter's or the shadow's registers", off)
		}
	}
}

// unwrittenSequence runs a fixed mix of DMA reads and writes, touching
// blocks that were never written, and returns the disk's StateDigest.
func unwrittenSequence(t *testing.T) uint64 {
	r := newRig(t, DiskConfig{})
	r.mem.WriteBytes(0x4000, bytes.Repeat([]byte{0x5A, 0xC3}, 4096))
	for _, op := range []struct{ cmd, block, addr, count uint32 }{
		{CmdRead, 3, 0x0000, 8192},
		{CmdWrite, 5, 0x4000, 8192},
		{CmdRead, 5, 0x2000, 8192},
		{CmdRead, 9, 0x6000, 512},
		{CmdWrite, 9, 0x4000, 1024},
		{CmdRead, 3, 0x8000, 8192},
	} {
		r.ad.MMIOStore(RegStatus, 4, 0xFFFFFFFF)
		r.command(op.cmd, op.block, op.addr, op.count)
		r.k.Run()
	}
	r.disk.ReadBlockDirect(11)
	r.disk.WriteBlockDirect(12, []byte{1, 2, 3})
	return r.disk.StateDigest()
}

// TestUnwrittenBlockReads: every never-written block of a disk reads as
// one shared zero block, entered in the block set all the same, and the
// write path gives a block storage of its own before writing it.
func TestUnwrittenBlockReads(t *testing.T) {
	r := newRig(t, DiskConfig{})
	d := r.disk
	const n = 256
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for b := uint32(0); b < n; b++ {
		if v := d.view(b); !shared(v) || len(v) != BlockSize {
			t.Fatalf("unwritten block %d reads as its own %d bytes, not the shared zero block", b, len(v))
		}
	}
	runtime.ReadMemStats(&after)
	// What remains is the block set's own growth, far below one block a read.
	if got := after.TotalAlloc - before.TotalAlloc; got > n*8192/16 {
		t.Errorf("reading %d unwritten blocks allocated %d bytes", n, got)
	}
	if a := testing.AllocsPerRun(10, func() { d.view(n / 2) }); a != 0 {
		t.Errorf("re-reading an unwritten block allocates %v times", a)
	}

	payload := bytes.Repeat([]byte{0xAB}, 8192)
	r.mem.WriteBytes(0x1000, payload)
	r.command(CmdWrite, 7, 0x1000, 8192)
	r.k.Run()
	if !bytes.Equal(d.ReadBlockDirect(7), payload) {
		t.Fatal("written block does not read back")
	}
	zero := make([]byte, 8192)
	for _, b := range []uint32{0, 6, 8, n - 1, n + 100} {
		if !bytes.Equal(d.ReadBlockDirect(b), zero) {
			t.Errorf("block %d is not zero after a write to block 7", b)
		}
	}
	if !bytes.Equal(zeroBlock[:], zero) || !shared(d.view(6)) {
		t.Error("the write reached the shared zero block")
	}

	// The digest hashes the touched block set, as when each unwritten
	// block read got zeroed storage of its own (value from that build).
	// Disks on concurrent goroutines share the zero block, as a fleet's
	// workers do.
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got, want := unwrittenSequence(t), uint64(0x1d60ff3fd19fabd1); got != want {
				t.Errorf("StateDigest = %#x, want %#x", got, want)
			}
		}()
	}
	wg.Wait()
}

// TestRecycledBlock: a written block goes back to the disk's arena at
// Release, and the next disk over the arena takes it for its first
// write, cleared: a partial write to it reads back as the written bytes
// and zeros, and the disk's StateDigest is that of a disk that
// allocated the block fresh.
func TestRecycledBlock(t *testing.T) {
	var a Arena
	first := newRigIn(t, &a, DiskConfig{})
	first.mem.WriteBytes(0x1000, bytes.Repeat([]byte{0xAB}, 8192))
	first.command(CmdWrite, 7, 0x1000, 8192)
	first.k.Run()
	old := &first.disk.view(7)[0]
	first.disk.Release()

	write := func(r *rig) {
		r.mem.WriteBytes(0x2000, bytes.Repeat([]byte{0x5A}, 16))
		r.command(CmdWrite, 3, 0x2000, 16)
		r.k.Run()
	}
	recycled, fresh := newRigIn(t, &a, DiskConfig{}), newRig(t, DiskConfig{})
	write(recycled)
	write(fresh)
	if &recycled.disk.view(3)[0] != old {
		t.Fatal("the second disk did not take the block the first released")
	}
	want := append(bytes.Repeat([]byte{0x5A}, 16), make([]byte, 8192-16)...)
	for name, r := range map[string]*rig{"recycled": recycled, "fresh": fresh} {
		if got := r.disk.ReadBlockDirect(3); !bytes.Equal(got, want) {
			t.Errorf("%s block reads %x… after a 16-byte write", name, got[:32])
		}
	}
	if got, want := recycled.disk.StateDigest(), fresh.disk.StateDigest(); got != want {
		t.Errorf("StateDigest over a recycled block = %#x, fresh %#x", got, want)
	}
}

// TestWriteLatchRecycled: a write latches its DMA data in a buffer the
// disk's arena lends from issue to completion, so host memory written
// after the doorbell does not reach the platter, and the next write
// latches into the same buffer with nothing of the last one left over.
// A write still in flight at teardown hands its latch back at Release.
func TestWriteLatchRecycled(t *testing.T) {
	var a Arena
	r := newRigIn(t, &a, DiskConfig{})
	r.mem.WriteBytes(0x1000, bytes.Repeat([]byte{0xAB}, 8192))
	r.command(CmdWrite, 1, 0x1000, 8192)
	r.mem.WriteBytes(0x1000, bytes.Repeat([]byte{0xCD}, 8192)) // after the latch
	r.k.Run()
	latch, ok := a.latches.Get()
	if !ok {
		t.Fatal("the write's latch did not go back to the arena")
	}
	a.latches.Put(latch)

	r.ad.MMIOStore(RegStatus, 4, StatusDone) // write-1-to-clear
	r.mem.WriteBytes(0x3000, bytes.Repeat([]byte{0x11}, 16))
	r.command(CmdWrite, 2, 0x3000, 16)
	r.k.Run()
	again, _ := a.latches.Get()
	if &again[:1][0] != &latch[:1][0] {
		t.Fatal("the second write latched into a new buffer")
	}
	a.latches.Put(again)
	if got := r.disk.ReadBlockDirect(1); !bytes.Equal(got, bytes.Repeat([]byte{0xAB}, 8192)) {
		t.Errorf("block 1 reads %x…, want the bytes latched at the doorbell", got[:8])
	}
	want := append(bytes.Repeat([]byte{0x11}, 16), make([]byte, 8192-16)...)
	if got := r.disk.ReadBlockDirect(2); !bytes.Equal(got, want) {
		t.Errorf("block 2 reads %x…, want 16 bytes of 0x11 and zeros", got[:32])
	}

	r.ad.MMIOStore(RegStatus, 4, StatusDone)
	r.command(CmdWrite, 3, 0x3000, 16) // never completes
	r.disk.Release()
	if back, ok := a.latches.Get(); !ok || &back[:1][0] != &latch[:1][0] {
		t.Fatal("Release did not hand back the latch of a write in flight")
	}
}

// marshal is the shadow's state as CodeState writes it.
func marshal(s *Shadow) []byte {
	var w snapshot.Writer
	s.CodeState(w.Codec())
	return w.Since(0)
}
