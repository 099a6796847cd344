package hypervisor

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/device"
	"repro/internal/isa"
	"repro/internal/scsi"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// stormPoll spins on the console's status register — a pure load — until
// input is pending, which it never is: the storm's case with no
// replication above it. The recalled call is two instructions.
const stormPoll = `
	.equ MMIO, 0xF0000000
	li   r2, MMIO
poll:
	ldw  r4, 0x1004(r2)   ; console status
	andi r4, r4, 2        ; input pending?
	beq  r4, r0, poll
	halt
`

// stormNode is one hypervisor with the trivial boundary protocol around
// it (loop, which sleeps delay first; stormArms.start starts it).
type stormNode struct {
	*rig
	bounds []Boundary
	loop   epochLoop
}

func newStormNode(t *testing.T, k *sim.Kernel, cfg Config, delay sim.Time) *stormNode {
	t.Helper()
	n := &stormNode{rig: newRigOn(k, cfg, scsi.DiskConfig{})}
	n.boot(t, stormPoll)
	l := trivialBoundary(n.hv, &n.bounds)
	l.delay = delay
	n.loop = l
	return n
}

func (n *stormNode) encode() []byte {
	w := snapshot.NewWriter(snapshot.TransferMagic)
	ms := n.m.CaptureState()
	ms.Code(w.Codec())
	hs := n.hv.CaptureState()
	hs.Code(w.Codec())
	return w.Finish()
}

// stormArms runs the same nodes on two kernels, the reference under
// debugNoStorm, in slices, comparing every node at every pause: encoded
// state, boundaries reported, Stats, and the memo's own counters (what
// the machine recalled must not depend on who asked it to).
type stormArms struct {
	t       *testing.T
	ref, on []*stormNode
}

func newStormArms(t *testing.T, cfg Config, delays ...sim.Time) *stormArms {
	t.Helper()
	a := &stormArms{t: t}
	for _, arm := range []*[]*stormNode{&a.ref, &a.on} {
		k := sim.NewKernel(1)
		t.Cleanup(k.Shutdown)
		for _, d := range delays {
			*arm = append(*arm, newStormNode(t, k, cfg, d))
		}
	}
	return a
}

// start starts every node's process: a test may first set their loops'
// observers.
func (a *stormArms) start() *stormArms {
	for _, arm := range [][]*stormNode{a.ref, a.on} {
		for _, n := range arm {
			n.loop.start(n.k, "cpu", n.hv)
		}
	}
	return a
}

func (a *stormArms) advance(d sim.Time) {
	a.t.Helper()
	debugNoStorm = true
	a.ref[0].k.RunUntil(a.ref[0].k.Now() + d)
	debugNoStorm = false
	a.on[0].k.RunUntil(a.on[0].k.Now() + d)
	for i, on := range a.on {
		ref := a.ref[i]
		if !bytes.Equal(ref.encode(), on.encode()) || fmt.Sprint(ref.bounds) != fmt.Sprint(on.bounds) ||
			ref.hv.Stats != on.hv.Stats || ref.m.MemoStats() != on.m.MemoStats() {
			a.t.Fatalf("at %d node %d differs from the reference:\n ref %+v %+v\n on  %+v %+v\n storms %+v",
				on.k.Now(), i, ref.hv.Stats, ref.m.MemoStats(), on.hv.Stats, on.m.MemoStats(), on.hv.StormStats())
		}
	}
}

// TestStormInPhase: two hypervisors that enter the storm at the same
// instant with equal costs share every instant of their lattices. The one
// wake a batch sleeps to would then tie with the other's dispatches, and
// seq, not time, would order them: the batch is refused, every time, and
// the pair runs poll by poll under its promises. A few nanoseconds out of
// phase the same pair retires most of its polls ahead.
func TestStormInPhase(t *testing.T) {
	for _, c := range []struct {
		offset  sim.Time
		batches bool
	}{
		{0, false},
		{40, false},   // a: one's poll head on the other's middle
		{1000, false}, // b
		{1040, false}, // a whole poll
		{7, true},
		{520, true},
	} {
		t.Run(fmt.Sprint("offset ", c.offset), func(t *testing.T) {
			a := newStormArms(t, Config{EpochLength: 256, ResidentEmulation: true}, 0, c.offset).start()
			for len(a.ref[0].bounds) < 40 {
				a.advance(211 * sim.Microsecond)
			}
			for i, n := range a.on {
				st := n.hv.StormStats()
				t.Logf("node %d: %+v, memo %+v", i, st, n.m.MemoStats())
				if st.Tries < 100 || (st.Batches > 0) != c.batches {
					t.Errorf("node %d: storms %+v, batches wanted: %v", i, st, c.batches)
				}
				if c.batches && st.Polls*2 < n.hv.Stats.EnvSimulated {
					t.Errorf("node %d: %d of %d polls retired ahead", i, st.Polls, n.hv.Stats.EnvSimulated)
				}
			}
		})
	}
}

// TestStormBudgets: the memo's TestRunMemoBudgets one level up. Eighty-one
// epoch lengths put every remainder from 1 to 80 and beyond under a storm
// try — a poll with no room left in its epoch for the trap is executed,
// the ones before it are counted into a batch by the budget rule — in
// slices that cut the batches short, with and without the
// resident window and an adaptive cut. The lone hypervisor's loud bound is
// the slice's end alone, so the budget is what bounds its batches.
func TestStormBudgets(t *testing.T) {
	for _, cfg := range []Config{
		{ResidentEmulation: true},
		{},
		{ResidentEmulation: true, AdaptiveBoundary: true},
	} {
		t.Run(fmt.Sprintf("resident=%v adaptive=%v", cfg.ResidentEmulation, cfg.AdaptiveBoundary), func(t *testing.T) {
			var batches, polls uint64
			for l := uint64(100); l <= 180; l++ {
				cfg.EpochLength = l
				a := newStormArms(t, cfg, 0).start()
				slice := 29 * sim.Microsecond
				if !cfg.ResidentEmulation {
					slice = 311 * sim.Microsecond // a poll is 15.16 µs
				}
				for len(a.ref[0].bounds) < 8 {
					a.advance(slice)
				}
				st := a.on[0].hv.StormStats()
				batches += st.Batches
				polls += st.Polls
			}
			if batches < 1000 || polls < 4*batches {
				t.Errorf("%d batches of %d polls over the sweep", batches, polls)
			}
		})
	}
}

// TestStormAllocs: promising, asking the kernel and retiring a batch
// allocate nothing.
func TestStormAllocs(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Shutdown()
	r := newRigOn(k, Config{EpochLength: 1 << 20, ResidentEmulation: true}, scsi.DiskConfig{})
	r.boot(t, stormPoll)
	epochs := 0
	epochLoop{more: func() bool { epochs++; return epochs == 1 }}.start(k, "cpu", r.hv)
	k.RunUntil(sim.Millisecond)
	before := r.hv.StormStats()
	if n := testing.AllocsPerRun(200, func() { k.RunUntil(k.Now() + 17*sim.Microsecond) }); n != 0 {
		t.Errorf("%v allocations per slice of batches", n)
	}
	if after := r.hv.StormStats(); after.Batches < before.Batches+200 {
		t.Errorf("storms %+v before, %+v after 200 slices", before, after)
	}
}

// TestStormSliceEdges: slices one nanosecond longer than three polls walk
// the pause through every phase of the lattice, so that some slices end
// exactly one nanosecond short of a lattice instant — where "strictly
// before the loud instant" and "at it" part ways: a batch that reached the
// instant after the RunUntil bound would leave its polls retired at a
// pause the reference reaches with the last of them in flight.
func TestStormSliceEdges(t *testing.T) {
	a := newStormArms(t, Config{EpochLength: 256, ResidentEmulation: true}, 0).start()
	for len(a.ref[0].bounds) < 60 {
		a.advance(3*1040 + 1)
	}
	if st := a.on[0].hv.StormStats(); st.Batches < 1000 {
		t.Errorf("storms %+v", st)
	}
}

// TestStormLeavesRCTR: a batch leaves the recovery counter as its last
// call does. No pause can see it — the wake a batch sleeps to is always
// dispatched in the slice that made it, and rearms the counter — unless
// the epoch ends at that wake, so the test looks between steps: after a
// step that retired polls ahead to instant E, RCTR is what the reference
// holds after its last step before E, the last poll's charge.
func TestStormLeavesRCTR(t *testing.T) {
	a := newStormArms(t, Config{EpochLength: 256, ResidentEmulation: true}, 0)
	type at struct {
		t    sim.Time
		rctr uint32
	}
	var ref, batches []at
	for _, arm := range []struct {
		n   *stormNode
		out *[]at
		ref bool
	}{{a.ref[0], &ref, true}, {a.on[0], &batches, false}} {
		n := arm.n
		n.loop.observe = func(d sim.Time, st sim.StepStatus) {
			switch {
			case arm.ref:
				*arm.out = append(*arm.out, at{n.k.Now(), n.m.CRs[isa.CRRCTR]})
			case st == sim.StepQuiet && d > 1040:
				*arm.out = append(*arm.out, at{n.k.Now() + d, n.m.CRs[isa.CRRCTR]})
			}
		}
	}
	a.start()
	for len(a.ref[0].bounds) < 50 {
		a.advance(47 * sim.Microsecond)
	}
	if len(batches) < 100 {
		t.Fatalf("%d batches seen", len(batches))
	}
	i := 0
	for _, b := range batches {
		for i+1 < len(ref) && ref[i+1].t < b.t {
			i++
		}
		if ref[i].t >= b.t || ref[i].rctr != b.rctr {
			t.Fatalf("a batch ending at %d left RCTR %d; the reference's last step before it, at %d, left %d",
				b.t, b.rctr, ref[i].t, ref[i].rctr)
		}
	}
}

// TestStormImpureLoad: a guest that drains a FIFO of equal bytes returns
// to the same state after every read — the memo recalls the call — but
// each read pops a byte: the register is not pure, and no read of it may
// be retired ahead. The console's RegIn, fed two hundred 'a's and a 'b'.
func TestStormImpureLoad(t *testing.T) {
	a := &stormArms{t: t}
	for _, arm := range []*[]*stormNode{&a.ref, &a.on} {
		k := sim.NewKernel(1)
		t.Cleanup(k.Shutdown)
		n := &stormNode{rig: newRigOn(k, Config{EpochLength: 256, ResidentEmulation: true}, scsi.DiskConfig{})}
		n.boot(t, `
			.equ MMIO, 0xF0000000
			li   r2, MMIO
		drain:
			ldw  r4, 0x1008(r2)   ; console input: pops
			addi r4, r4, -0x61
			beq  r4, r0, drain
			halt
		`)
		cons := n.hv.devAt(consoleBase)
		cons.sh.Apply(device.Completion{Data: append(bytes.Repeat([]byte{'a'}, 200), 'b')}, n.m, cons.bus)
		epochLoop{end: func(b Boundary) { n.bounds = append(n.bounds, b) }}.start(k, "cpu", n.hv)
		*arm = append(*arm, n)
	}
	for !a.ref[0].hv.Halted() {
		a.advance(19 * sim.Microsecond)
	}
	on := a.on[0]
	if ms := on.m.MemoStats(); ms.Hits < 150 {
		t.Errorf("the drain was not recalled: %+v", ms)
	}
	if st := on.hv.StormStats(); st != (StormStats{}) {
		t.Errorf("reads of a popping register reached the storm: %+v", st)
	}
}
