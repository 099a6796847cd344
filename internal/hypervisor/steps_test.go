package hypervisor

import (
	"fmt"
	"testing"

	"repro/internal/scsi"
	"repro/internal/sim"
)

// TestEpochStepsBesideSleeper runs epochs as a step process — chunks,
// MMIO loads, traps — whose hooks hand virtual time back as sub-steps:
// OnBeforeIO on the adapter's doorbell and on a console byte, OnCapture
// on the disk completion. A second process sleeps beside it at a period
// that keeps the hypervisor's charges off the in-place fast path, so its
// wakes are dispatched from the wake list. The boundaries, the statistics
// and the end time are the values the blocking RunEpoch loop produced
// before epochs ran as steps — except the digests, which are the word
// hash's (snapshot.Mix) since it replaced byte-serial FNV-64a.
func TestEpochStepsBesideSleeper(t *testing.T) {
	r := newRig(t, Config{EpochLength: 1 << 10}, scsi.DiskConfig{
		ReadLatency: 40 * sim.Microsecond, // lands among the status polls
	})
	r.hv.SetIOActive(true)
	r.boot(t, `
		.equ MMIO, 0xF0000000
		li   r2, MMIO
		li   r3, 1
		stw  r3, 0(r2)        ; cmd = read
		li   r3, 0
		stw  r3, 4(r2)        ; block
		li   r3, 0x4000
		stw  r3, 8(r2)        ; addr
		li   r3, 64
		stw  r3, 12(r2)       ; count
		stw  r3, 20(r2)       ; doorbell
		li   r7, 40
	poll:
		ldw  r4, 16(r2)       ; adapter status: an MMIO load
		add  r8, r8, r4
		addi r7, r7, -1
		bne  r7, r0, poll
		li   r3, 0x21
		stw  r3, 0x1000(r2)   ; console byte: an MMIO output store
		li   r7, 3000
	spin:
		addi r7, r7, -1
		bne  r7, r0, spin
		halt
	`)

	var gates, captures int
	var bs []Boundary
	trivialBoundary(r.hv, &bs).start(r.k, "cpu", r.hv)
	// sleepFor is a sub-step that sleeps d once.
	sleepFor := func(d sim.Time) sim.StepFunc {
		slept := false
		return func(*sim.Proc) (sim.Time, sim.StepStatus) {
			if slept = !slept; slept {
				return d, sim.StepMore
			}
			return 0, sim.StepDone
		}
	}
	gate, capture := sleepFor(2*sim.Microsecond), sleepFor(3*sim.Microsecond)
	r.hv.OnBeforeIO = func() sim.StepFunc {
		gates++
		return gate
	}
	r.hv.OnCapture = func(Interrupt) sim.StepFunc {
		captures++
		return capture
	}
	r.k.Start("sleeper", func(*sim.Proc) (sim.Time, sim.StepStatus) {
		if r.hv.Halted() {
			return 0, sim.StepDone
		}
		return 7 * sim.Microsecond, sim.StepMore
	})
	end := r.k.Run()

	if gates != 2 || captures != 1 || r.k.Switches() != 0 {
		t.Errorf("OnBeforeIO ran %d times, OnCapture %d, and the kernel switched %d times; want 2, 1 and none",
			gates, captures, r.k.Switches())
	}
	var got string
	for _, b := range bs {
		got += fmt.Sprintf("%+v\n", b)
	}
	got += fmt.Sprintf("%+v\nend %d out %q", r.hv.Stats, end, r.cons.Output())
	const want = `{Epoch:0 GuestInstr:1024 Digest:14818593963626169155 Halted:false TOD:36104}
{Epoch:1 GuestInstr:2048 Digest:9351879038368182219 Halted:false TOD:38128}
{Epoch:2 GuestInstr:3072 Digest:11876841881110819754 Halted:false TOD:40152}
{Epoch:3 GuestInstr:4096 Digest:9404841596214169599 Halted:false TOD:42176}
{Epoch:4 GuestInstr:5120 Digest:16239235614965865533 Halted:false TOD:44200}
{Epoch:5 GuestInstr:6144 Digest:11847324868243930418 Halted:false TOD:46224}
{Epoch:6 GuestInstr:6183 Digest:11376975739714006397 Halted:true TOD:48018}
{GuestInstructions:6183 Epochs:7 PrivSimulated:1 EnvSimulated:46 TLBFills:0 ReflectedTraps:0 VIRQDelivered:0 IOIssued:1 IOSuppressed:0 ConsoleSuppressed:0 Captured:1 OutputsDeferred:0 StartsDeferred:0 AdaptiveCuts:0 ResidentSims:0 HypervisorTime:850.64us DeliveryDelayTotal:618.7us DeliveryDelayCount:1}
end 980360 out "!"`
	if got != want {
		t.Errorf("epochs beside a sleeper ran differently:\n got %s\nwant %s", got, want)
	}
}
