package harness

import (
	"math"
	"strings"
	"testing"

	"repro/internal/guest"
	"repro/internal/netsim"
	"repro/internal/replication"
	"repro/internal/session"
	"repro/internal/sim"
)

func TestBareVsReplicatedCPU(t *testing.T) {
	np, bare, repl := Measure(QuickScale(), guest.WorkloadCPU, 4096, replication.ProtocolOld, netsim.LinkConfig{})
	if np <= 1 {
		t.Errorf("NP = %.3f, want > 1", np)
	}
	if bare.Console != repl.Console {
		t.Errorf("console mismatch: %q vs %q", bare.Console, repl.Console)
	}
	if repl.BackupStats.Divergences != 0 {
		t.Errorf("divergences = %d", repl.BackupStats.Divergences)
	}
	// The paper's CPU workload at 4K epochs: NP ≈ 6.5. Our simulator
	// should land in the same regime (dominated by hepoch/EL).
	if np < 3 || np > 12 {
		t.Errorf("NP@4K = %.2f, expected the paper's regime (~6.5)", np)
	}
}

func TestCPUNPDecreasesWithEpochLength(t *testing.T) {
	scale := QuickScale()
	var last float64 = math.Inf(1)
	for _, el := range []uint64{1024, 4096, 16384} {
		np, _, _ := Measure(scale, guest.WorkloadCPU, el, replication.ProtocolOld, netsim.LinkConfig{})
		if np >= last {
			t.Errorf("NP(%d) = %.2f not below NP at previous shorter epoch (%.2f)", el, np, last)
		}
		last = np
	}
}

func TestCPUMeasurementsTrackPaperShape(t *testing.T) {
	// The measured curve should be within ~35%% of the paper's quoted
	// values: the boundary cost (ack round trip on the Ethernet model)
	// matches the paper's measured hepoch by construction.
	paper := map[uint64]float64{1024: 22.24, 2048: 11.83, 4096: 6.50, 8192: 3.83}
	scale := QuickScale()
	for el, want := range paper {
		np, _, _ := Measure(scale, guest.WorkloadCPU, el, replication.ProtocolOld, netsim.LinkConfig{})
		if math.Abs(np-want)/want > 0.35 {
			t.Errorf("NP(%d) = %.2f, paper %.2f (>35%% off)", el, np, want)
		}
	}
}

func TestDiskWorkloadsRun(t *testing.T) {
	scale := QuickScale()
	for _, kind := range []uint32{guest.WorkloadDiskWrite, guest.WorkloadDiskRead} {
		np, _, repl := Measure(scale, kind, 4096, replication.ProtocolOld, netsim.LinkConfig{})
		if np <= 1 {
			t.Errorf("kind %d: NP = %.3f, want > 1", kind, np)
		}
		if np > 4 {
			t.Errorf("kind %d: NP = %.3f, unreasonably high for an I/O workload", kind, np)
		}
		if repl.BackupStats.Divergences != 0 {
			t.Errorf("kind %d: divergences", kind)
		}
	}
}

func TestReadNPAboveWriteNP(t *testing.T) {
	// Figure 3's key shape: reads cost more than writes under
	// replication (the block must be forwarded to the backup).
	scale := QuickScale()
	wnp, _, _ := Measure(scale, guest.WorkloadDiskWrite, 4096, replication.ProtocolOld, netsim.LinkConfig{})
	rnp, _, _ := Measure(scale, guest.WorkloadDiskRead, 4096, replication.ProtocolOld, netsim.LinkConfig{})
	if rnp <= wnp {
		t.Errorf("read NP %.3f <= write NP %.3f", rnp, wnp)
	}
}

func TestNewProtocolImprovesCPU(t *testing.T) {
	scale := QuickScale()
	oldNP, _, _ := Measure(scale, guest.WorkloadCPU, 4096, replication.ProtocolOld, netsim.LinkConfig{})
	newNP, _, _ := Measure(scale, guest.WorkloadCPU, 4096, replication.ProtocolNew, netsim.LinkConfig{})
	if newNP >= oldNP {
		t.Errorf("new NP %.2f >= old NP %.2f", newNP, oldNP)
	}
	// Table 1 shape: the improvement is large for the CPU workload
	// (paper: 6.50 -> 3.21 at 4K).
	if newNP > 0.8*oldNP {
		t.Errorf("new NP %.2f is not a substantial improvement over %.2f", newNP, oldNP)
	}
}

func TestATMImprovesOverEthernet(t *testing.T) {
	scale := QuickScale()
	eth, _, _ := Measure(scale, guest.WorkloadCPU, 4096, replication.ProtocolOld, netsim.Ethernet10(""))
	atm, _, _ := Measure(scale, guest.WorkloadCPU, 4096, replication.ProtocolOld, netsim.ATM155(""))
	if atm >= eth {
		t.Errorf("ATM NP %.2f >= Ethernet NP %.2f (Figure 4 shape violated)", atm, eth)
	}
}

func TestFailoverDuringWorkload(t *testing.T) {
	scale := QuickScale()
	w := scale.workload(guest.WorkloadDiskWrite)
	bare := RunBare(1, w, scale.Disk)
	repl := RunReplicated(session.Options{
		Seed: 1, Program: session.WorkloadProgram(w), Disk: scale.Disk,
		EpochLength: 4096, Protocol: replication.ProtocolOld,
		FailPrimaryAt: 3 * sim.Millisecond,
	})
	if !repl.Promoted {
		t.Fatal("no promotion")
	}
	if repl.Guest.Panic != 0 {
		t.Fatalf("guest panic %#x", repl.Guest.Panic)
	}
	if repl.Guest.Checksum != bare.Guest.Checksum {
		t.Errorf("checksum after failover %#x != bare %#x", repl.Guest.Checksum, bare.Guest.Checksum)
	}
	if repl.Time <= bare.Time {
		t.Error("failover run faster than bare?")
	}
}

func TestTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("table regeneration is slow")
	}
	rows := Table1(QuickScale())
	if len(rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(rows))
	}
	for _, r := range rows {
		if r.NewNP > r.OldNP*1.02 {
			t.Errorf("%s @%d: new %.2f worse than old %.2f", r.Workload, r.EL, r.NewNP, r.OldNP)
		}
		if r.OldNP <= 1 {
			t.Errorf("%s @%d: old NP %.2f <= 1", r.Workload, r.EL, r.OldNP)
		}
	}
	// CPU column decreasing in EL, as in the paper.
	var cpu []Table1Row
	for _, r := range rows {
		if r.Workload == "cpu" {
			cpu = append(cpu, r)
		}
	}
	for i := 1; i < len(cpu); i++ {
		if cpu[i].OldNP >= cpu[i-1].OldNP {
			t.Errorf("cpu old NP not decreasing: %v then %v", cpu[i-1].OldNP, cpu[i].OldNP)
		}
	}
	out := FormatTable1(rows)
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "cpu") {
		t.Error("FormatTable1 output malformed")
	}
}

func TestFigure2Generation(t *testing.T) {
	if testing.Short() {
		t.Skip("figure regeneration is slow")
	}
	points, end := Figure2(QuickScale())
	if len(points) != 32 {
		t.Fatalf("points = %d", len(points))
	}
	nMeasured := 0
	for _, p := range points {
		if !math.IsNaN(p.Measured) {
			nMeasured++
			if math.Abs(p.Measured-p.Predicted)/p.Predicted > 0.4 {
				t.Errorf("EL %.0f: measured %.2f far from predicted %.2f", p.EL, p.Measured, p.Predicted)
			}
		}
	}
	if nMeasured != 4 {
		t.Errorf("measured points = %d, want 4", nMeasured)
	}
	if math.Abs(end.Predicted-1.24) > 0.01 {
		t.Errorf("endpoint = %.3f, paper 1.24", end.Predicted)
	}
}

func TestFormatFigure(t *testing.T) {
	pts := []FigurePoint{
		{EL: 1024, Predicted: 2.0, Measured: 2.1},
		{EL: 1500, Predicted: 1.9, Measured: math.NaN()},
		{EL: 2048, Predicted: 1.8, Measured: math.NaN()},
	}
	out := FormatFigure("Fig", map[string][]FigurePoint{"x": pts}, []string{"x"})
	if !strings.Contains(out, "1024") || !strings.Contains(out, "2048") {
		t.Errorf("missing rows:\n%s", out)
	}
	if strings.Contains(out, "1500") {
		t.Errorf("non-measured non-pow2 row kept:\n%s", out)
	}
}

func TestDeliveryDelayGrowsWithEpochLength(t *testing.T) {
	// §4.2: "Increases to epoch length EL causes delayW(EL) and
	// delayR(EL) to increase, because interrupts from the disk are
	// buffered by the hypervisor for a longer period." This is the
	// mechanism behind Figure 3's upward drift at large EL.
	scale := QuickScale()
	delayAt := func(el uint64) sim.Time {
		_, _, repl := Measure(scale, guest.WorkloadDiskWrite, el, replication.ProtocolOld, netsim.LinkConfig{})
		if repl.HVStats.DeliveryDelayCount == 0 {
			t.Fatalf("EL=%d: no delivery delays recorded", el)
		}
		return repl.HVStats.MeanDeliveryDelay()
	}
	small := delayAt(1024)
	large := delayAt(32768)
	if large <= small {
		t.Errorf("mean delivery delay: EL=32K %v <= EL=1K %v", large, small)
	}
	// The delay is bounded by roughly one epoch's wall time.
	if large > 32768*20*sim.Nanosecond+5*sim.Millisecond {
		t.Errorf("delay %v implausibly large", large)
	}
}

func TestScalesDistinct(t *testing.T) {
	q, p := QuickScale(), PaperScale()
	if q.Name == p.Name {
		t.Error("scales share a name")
	}
	if p.Disk.ReadLatency != 0 {
		t.Error("PaperScale should use default (paper) disk latencies")
	}
}
