package replication

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/platform"
	"repro/internal/scsi"
	"repro/internal/sim"
)

// TestNoUnexpectedGuestTraps verifies that a healthy replicated disk
// workload reflects only EXPECTED traps into the guest: external
// interrupts (deliveries at epoch boundaries). Illegal instructions,
// access faults or machine checks reaching the guest indicate a
// virtualization bug (this is the regression test for an early bug where
// a driver clobbered the link register and jumped into the MMIO window).
func TestNoUnexpectedGuestTraps(t *testing.T) {
	cfg := platform.Config{
		Disk: scsi.DiskConfig{ReadLatency: 200 * sim.Microsecond, WriteLatency: 250 * sim.Microsecond},
	}
	guest := guestIO(100, 3, 10, 512)
	c := newCluster(t, 1, cfg, ProtocolOld, guest)
	counts := map[isa.Trap]int{}
	c.pair.Nodes[0].HV.OnReflect = func(tr isa.Trap, isr, ior, pc uint32) {
		counts[tr]++
	}
	c.run(t, 100*sim.Second)
	if !c.pair.Nodes[0].HV.Halted() {
		t.Fatal("guest did not halt")
	}
	for tr, n := range counts {
		switch tr {
		case isa.TrapExtIntr:
			// expected: interrupt deliveries
		default:
			t.Errorf("unexpected guest trap %v reflected %d times", tr, n)
		}
	}
	if counts[isa.TrapExtIntr] == 0 {
		t.Error("no interrupt deliveries observed")
	}
}
