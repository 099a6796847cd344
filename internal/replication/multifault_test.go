package replication

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/platform"
	"repro/internal/scsi"
	"repro/internal/sim"
)

// multiCluster wires t+1 replicas over a platform.Cluster: reps by node,
// with pri = reps[0] and baks = reps[1:] as the tests' names for them.
type multiCluster struct {
	k    *sim.Kernel
	c    *platform.Cluster
	reps []*Replica
	pri  *Replica
	baks []*Replica
}

func newMultiCluster(t *testing.T, seed int64, cfg platform.Config, rc Config, guest string, nBackups int) *multiCluster {
	t.Helper()
	mc := &multiCluster{k: sim.NewKernel(seed)}
	t.Cleanup(func() { mc.k.Shutdown() })
	if cfg.Hypervisor.EpochLength == 0 {
		cfg.Hypervisor.EpochLength = 4096
	}
	if rc.DetectTimeout == 0 {
		rc.DetectTimeout = 40 * sim.Millisecond
	}
	n := nBackups + 1
	mc.c = platform.NewCluster(mc.k, cfg, n)
	prog := asm.MustAssemble("guest.s", guest)
	for _, node := range mc.c.Nodes {
		node.HV.Boot(prog.Origin, prog.Words, prog.Origin)
	}
	// Node i: ups = channels to nodes 0..i-1, downs = to nodes i+1..n-1.
	for i := 0; i < n; i++ {
		var ups, downs []Peer
		for j := 0; j < i; j++ {
			tx, rx := mc.c.Channel(i, j) // tx: acks to j; rx: stream from j
			ups = append(ups, Peer{TX: tx, RX: rx})
		}
		for j := i + 1; j < n; j++ {
			tx, rx := mc.c.Channel(i, j)
			downs = append(downs, Peer{TX: tx, RX: rx})
		}
		mc.reps = append(mc.reps, NewReplica(mc.c.Nodes[i].HV, ups, downs, rc))
	}
	mc.pri, mc.baks = mc.reps[0], mc.reps[1:]
	return mc
}

func (mc *multiCluster) run(t *testing.T, bound sim.Time) {
	t.Helper()
	mc.k.Spawn("primary", func(p *sim.Proc) { mc.pri.Run(p) })
	for i, bak := range mc.baks {
		bak := bak
		mc.k.Spawn("backup", func(p *sim.Proc) { bak.Run(p) })
		_ = i
	}
	mc.k.RunUntil(bound)
}

// failNode failstops node idx (0 = primary) at the given time, detaching
// its disk adapter (a dead host receives no interrupts).
func (mc *multiCluster) failNode(idx int, at sim.Time) {
	mc.k.At(at, func() {
		mc.reps[idx].Failstop()
		mc.c.Nodes[idx].Adapters[0].Detached = true
	})
}

func TestTwoBackupsNoFailure(t *testing.T) {
	guest := guestCPU(15000)
	mc := newMultiCluster(t, 1, platform.Config{}, Config{Protocol: ProtocolOld}, guest, 2)
	mc.run(t, 200*sim.Second)
	if !mc.c.Nodes[0].HV.Halted() {
		t.Fatal("primary guest did not halt")
	}
	for i, bak := range mc.baks {
		if !bak.HV.Halted() {
			t.Fatalf("backup %d did not halt", i+1)
		}
		if bak.Stats.Divergences != 0 {
			t.Errorf("backup %d divergences = %d", i+1, bak.Stats.Divergences)
		}
	}
	// Backups generated no environment interactions: the shared
	// transcript holds exactly one copy of the guest's output.
	if mc.c.Console.Output() != "D" {
		t.Errorf("console = %q, want D", mc.c.Console.Output())
	}
	// All three executed identical streams.
	d0 := mc.c.Nodes[0].HV.Digest()
	for i := 1; i < 3; i++ {
		if mc.c.Nodes[i].HV.Digest() != d0 {
			t.Errorf("node %d final digest differs", i)
		}
	}
}

func TestTwoBackupsPrimaryFailure(t *testing.T) {
	// Primary dies; backup 1 promotes and carries backup 2 along via the
	// sync replay. Backup 2 must stay in lockstep with the NEW primary.
	cfg := platform.Config{
		Disk: scsi.DiskConfig{ReadLatency: 300 * sim.Microsecond, WriteLatency: 400 * sim.Microsecond},
	}
	guest := guestIO(40000, 2, 100, 512)
	mc := newMultiCluster(t, 1, cfg, Config{Protocol: ProtocolOld}, guest, 2)
	mc.failNode(0, 1*sim.Millisecond)
	mc.run(t, 400*sim.Second)

	b1, b2 := mc.baks[0], mc.baks[1]
	if !b1.Promoted() {
		t.Fatal("backup 1 did not promote")
	}
	if b2.Promoted() {
		t.Fatal("backup 2 promoted despite backup 1 being alive (cascade broken)")
	}
	if !b1.HV.Halted() {
		t.Fatal("new primary did not finish the workload")
	}
	if !b2.HV.Halted() {
		t.Fatalf("backup 2 did not follow the new primary (pc=%#x, withdrawn=%v)",
			mc.c.Nodes[2].M.PC, b2.Withdrawn())
	}
	if b2.Stats.Divergences != 0 {
		t.Errorf("backup 2 diverged %d times from the new primary", b2.Stats.Divergences)
	}
	// Only the acting coordinator emitted environment output after the
	// failover: the shared transcript ends with one OK and holds no
	// duplicated bytes.
	out := mc.c.Console.Output()
	if len(out) < 2 || out[len(out)-2:] != "OK" {
		t.Errorf("console = %q, want ...OK", out)
	}
	// Workload result on disk is intact.
	blk := mc.c.Disks[0].ReadBlockDirect(100)
	if got := le32(blk[0:4]); got != 0xA0000000 {
		t.Errorf("block 100 word 0 = %#x", got)
	}
}

func TestTwoBackupsDoubleFailure(t *testing.T) {
	// The 2-fault-tolerant configuration survives two failstops: the
	// primary dies, backup 1 promotes, then backup 1 dies and backup 2
	// promotes and finishes the workload.
	cfg := platform.Config{
		Disk: scsi.DiskConfig{ReadLatency: 300 * sim.Microsecond, WriteLatency: 400 * sim.Microsecond},
	}
	guest := guestIO(200000, 2, 110, 512)
	mc := newMultiCluster(t, 1, cfg, Config{Protocol: ProtocolOld}, guest, 2)
	mc.failNode(0, 1*sim.Millisecond)  // primary dies mid-compute
	mc.failNode(1, 90*sim.Millisecond) // new primary dies after promoting
	mc.run(t, 600*sim.Second)

	b1, b2 := mc.baks[0], mc.baks[1]
	if !b1.Promoted() {
		t.Fatal("backup 1 did not promote first")
	}
	if !b2.Promoted() {
		t.Fatalf("backup 2 did not promote after the second failure (pc=%#x withdrawn=%v halted=%v)",
			mc.c.Nodes[2].M.PC, b2.Withdrawn(), b2.HV.Halted())
	}
	if !b2.HV.Halted() {
		t.Fatal("backup 2 did not finish the workload")
	}
	// The workload completed correctly despite two failures.
	blk := mc.c.Disks[0].ReadBlockDirect(110)
	if got := le32(blk[0:4]); got != 0xA0000000 {
		t.Errorf("block 110 word 0 = %#x", got)
	}
	hist := mc.c.Disks[0].WriteHistory(110)
	for i := 1; i < len(hist); i++ {
		if hist[i] != hist[0] {
			t.Errorf("environment saw divergent writes: %v", hist)
		}
	}
	// Console: the final OK must have been emitted exactly once.
	if out := mc.c.Console.Output(); len(out) < 2 || out[len(out)-2:] != "OK" {
		t.Errorf("final console = %q, want ...OK", out)
	}
}

func TestThreeBackupsCascade(t *testing.T) {
	// 3-fault-tolerant: kill primary, b1 and b2 in sequence; b3 finishes.
	guest := guestCPU(2000000)
	mc := newMultiCluster(t, 1, platform.Config{}, Config{Protocol: ProtocolNew}, guest, 3)
	mc.failNode(0, 2*sim.Millisecond)
	mc.failNode(1, 150*sim.Millisecond)
	mc.failNode(2, 400*sim.Millisecond)
	mc.run(t, 2000*sim.Second)

	b3 := mc.baks[2]
	if !b3.Promoted() {
		t.Fatalf("backup 3 did not promote (halted=%v withdrawn=%v)", b3.HV.Halted(), b3.Withdrawn())
	}
	if !b3.HV.Halted() {
		t.Fatal("backup 3 did not finish")
	}
	if out := mc.c.Console.Output(); out != "D" {
		t.Errorf("final console = %q, want D (emitted exactly once, by the last survivor)", out)
	}
}
