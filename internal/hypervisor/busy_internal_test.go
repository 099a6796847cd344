package hypervisor

import (
	"bytes"
	"testing"

	"repro/internal/scsi"
	"repro/internal/sim"
)

// busyLoop computes without end: 128 four-instruction iterations, then an
// MFTOD, which traps and reads the clock. From a chunk that starts after
// the trap the next trap is 512 instructions on, on a chunk's edge, so it
// ends chunks run ahead both inside and on the edge.
const busyLoop = `
	li   r1, 0
	li   r3, 0
loop:
	addi r1, r1, 1
	add  r3, r3, r1
	andi r5, r1, 127
	bne  r5, r0, loop
	mftod r6
	b    loop
`

// TestRunAheadSliced: a busy guest's chunks run ahead only as far as the
// RunUntil bound. One hypervisor alone on its kernel (no callback is ever
// pending, so the bound is the pause's), advanced in slices whose ends
// walk through every offset in a chunk's 5.12 µs, under debugNoStorm and
// as shipped: the encoded machine and hypervisor state, Stats and the
// boundaries must be equal at every pause. The shipped arm must run
// chunks ahead, and doing so allocates nothing.
func TestRunAheadSliced(t *testing.T) {
	var arms [2]*stormNode
	for i := range arms {
		k := sim.NewKernel(1)
		t.Cleanup(k.Shutdown)
		n := &stormNode{rig: newRigOn(k, Config{EpochLength: 20_000}, scsi.DiskConfig{})}
		n.boot(t, busyLoop)
		n.loop = trivialBoundary(n.hv, &n.bounds)
		n.loop.start(k, "cpu", n.hv)
		arms[i] = n
	}
	ref, on := arms[0], arms[1]
	advance := func(d sim.Time) {
		t.Helper()
		debugNoStorm = true
		ref.k.RunUntil(ref.k.Now() + d)
		debugNoStorm = false
		on.k.RunUntil(on.k.Now() + d)
		if !bytes.Equal(ref.encode(), on.encode()) || ref.hv.Stats != on.hv.Stats || len(ref.bounds) != len(on.bounds) {
			t.Fatalf("at %v the shipped arm differs from the reference:\n ref %+v\n on  %+v", on.k.Now(), ref.hv.Stats, on.hv.Stats)
		}
	}
	for i := sim.Time(0); i < 400; i++ {
		advance(37*sim.Microsecond + i*13*sim.Nanosecond)
	}
	if st := on.hv.AheadStats(); st.Runs == 0 || st.Chunks <= st.Runs {
		t.Fatalf("run-ahead %+v: no chunk ran ahead", st)
	}
	if st := ref.hv.AheadStats(); st != (AheadStats{}) {
		t.Fatalf("the reference arm ran ahead: %+v", st)
	}
	if n := testing.AllocsPerRun(100, func() { on.k.RunUntil(on.k.Now() + 41*sim.Microsecond) }); n != 0 {
		t.Errorf("%v allocations per slice of chunks run ahead", n)
	}
}
