package platform

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/scsi"
	"repro/internal/sim"
)

func TestNewPairWiring(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Shutdown()
	c := NewCluster(k, Config{}, 2)
	pri, bak := c.Nodes[0], c.Nodes[1]
	if tx, rx := c.Channel(0, 1); pri.M == nil || bak.M == nil || c.Disks[0] == nil || tx == nil || rx == nil {
		t.Fatal("incomplete pair")
	}
	// Distinct CPU identities, distinct TLB seeds (chip nondeterminism).
	if pri.M.Config().CPUID == bak.M.Config().CPUID {
		t.Error("nodes share a CPUID")
	}
	if pri.M.Config().TLBSeed == bak.M.Config().TLBSeed {
		t.Error("nodes share a TLB seed")
	}
	// Both adapters reach the same disk (accessibility assumption).
	pri.M.Bus.MMIOStore(AdapterBase+scsi.RegCmd, 4, scsi.CmdWrite)
	if v, _ := pri.M.Bus.MMIOLoad(AdapterBase+scsi.RegCmd, 4); v != scsi.CmdWrite {
		t.Error("primary adapter not wired")
	}
	// Console responds.
	if v, _ := bak.M.Bus.MMIOLoad(ConsoleBase+0x4, 4); v != 1 {
		t.Error("backup console not wired")
	}
}

func TestTODFollowsSimClock(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Shutdown()
	m := NewCluster(k, Config{}, 1).Nodes[0].M
	if got := m.TOD(); got != 0 {
		t.Errorf("TOD at t=0 is %d", got)
	}
	k.At(1*sim.Millisecond, func() {
		want := uint32(1 * sim.Millisecond / CycleTime)
		if got := m.TOD(); got != want {
			t.Errorf("TOD at 1ms = %d, want %d", got, want)
		}
	})
	k.Run()
}

func TestDiskIRQLineRaised(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Shutdown()
	c := NewCluster(k, Config{Disk: scsi.DiskConfig{WriteLatency: 10 * sim.Microsecond}}, 1)
	if len(c.Nodes) != 1 || len(c.Links) != 1 || c.Links[0][0] != nil {
		t.Fatalf("cluster of one has %d nodes and links %v; want one node, no links", len(c.Nodes), c.Links)
	}
	m := c.Nodes[0].M
	m.Bus.MMIOStore(AdapterBase+scsi.RegCmd, 4, scsi.CmdWrite)
	m.Bus.MMIOStore(AdapterBase+scsi.RegBlock, 4, 1)
	m.Bus.MMIOStore(AdapterBase+scsi.RegAddr, 4, 0x1000)
	m.Bus.MMIOStore(AdapterBase+scsi.RegCount, 4, 64)
	m.Bus.MMIOStore(AdapterBase+scsi.RegDoorbell, 4, 1)
	k.Run()
	if !m.IRQRaised() {
		t.Error("disk completion did not raise the IRQ line")
	}
}

func TestClusterChannels(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Shutdown()
	c := NewCluster(k, Config{}, 3)
	if len(c.Nodes) != 3 {
		t.Fatalf("nodes = %d", len(c.Nodes))
	}
	// Channel symmetry: from i to j, tx(i->j) is rx of (j->i).
	tx01, rx01 := c.Channel(0, 1)
	tx10, rx10 := c.Channel(1, 0)
	if tx01 != rx10 || rx01 != tx10 {
		t.Error("channel pairing broken")
	}
	// Distinct node pairs get distinct links.
	tx02, _ := c.Channel(0, 2)
	if tx02 == tx01 {
		t.Error("links shared between pairs")
	}
	// Messages flow.
	tx01.Send("ping", 8)
	k.Run()
	if rx10.Inbox.Len() != 1 {
		t.Error("message did not traverse the cluster link")
	}
}

func TestClusterPanicsOnTooFewNodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewCluster(0) did not panic")
		}
	}()
	k := sim.NewKernel(1)
	defer k.Shutdown()
	NewCluster(k, Config{}, 0)
}

func TestChannelSelfPanics(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Shutdown()
	c := NewCluster(k, Config{}, 2)
	defer func() {
		if recover() == nil {
			t.Error("self channel did not panic")
		}
	}()
	c.Channel(1, 1)
}

// ensure machine.Config is surfaced (compile-time check of the helper).
var _ = machine.Config{}
