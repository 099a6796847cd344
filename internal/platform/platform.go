// Package platform assembles complete simulated machines in the paper's
// prototype configuration (Figure 1), generalized over an ordered
// device table: n >= 1 HP-9000/720-class processors, N dual-ported SCSI
// disks shared between them, a shared console/terminal, and
// point-to-point links between every pair of hypervisors. There is one
// topology, Cluster: the replica group is n >= 2, the bare baseline a
// cluster of one. Every node is wired from the SAME device table, which
// is what lets the hypervisors' shadow-device layer treat the replicas
// as one state machine.
package platform

import (
	"fmt"

	"repro/internal/console"
	"repro/internal/device"
	"repro/internal/hypervisor"
	"repro/internal/machine"
	"repro/internal/netsim"
	"repro/internal/nic"
	"repro/internal/scsi"
	"repro/internal/sim"
)

// Memory-map and interrupt wiring shared by all configurations. The
// historical single-disk layout is preserved exactly: disk 0 at window
// 0x0000 on line 1, the console at 0x1000 (line 2, used only when the
// terminal has scripted input). Additional disks stack from 0x2000 on
// lines 3, 4, ...
const (
	// AdapterBase is disk 0's adapter window offset within MMIO space.
	AdapterBase uint32 = 0x0000
	// ConsoleBase is the console window offset within MMIO space.
	ConsoleBase uint32 = 0x1000
	// DiskIRQLine is the external interrupt line of disk 0's adapter.
	DiskIRQLine uint = 1
	// ConsoleIRQLine is the console/terminal input interrupt line.
	ConsoleIRQLine uint = 2
	// ExtraDiskBase is disk 1's window; disk i (i >= 1) sits at
	// ExtraDiskBase + (i-1)*0x1000 on line ExtraDiskIRQ + (i-1).
	ExtraDiskBase uint32 = 0x2000
	// ExtraDiskIRQ is disk 1's interrupt line.
	ExtraDiskIRQ uint = 3
	// NICBase is the network adapter's window offset within MMIO space
	// (the last mapped device page, clear of any disk stack).
	NICBase uint32 = 0xF000
	// NICIRQLine is the network adapter's interrupt line. The guest
	// polls the NIC (the line stays masked, like the console's), but
	// the I/O-active hypervisor captures on it.
	NICIRQLine uint = 15
	// CycleTime is the simulated instruction period (50 MIPS).
	CycleTime = 20 * sim.Nanosecond
)

// DiskWindow returns disk i's window base and interrupt line.
func DiskWindow(i int) (base uint32, line uint) {
	if i == 0 {
		return AdapterBase, DiskIRQLine
	}
	return ExtraDiskBase + uint32(i-1)*0x1000, ExtraDiskIRQ + uint(i-1)
}

// Config bundles the tunables of a platform.
type Config struct {
	// Machine configures the processors (identical configs; the TLB
	// seed is perturbed per node to model per-chip nondeterminism).
	Machine machine.Config
	// Hypervisor configures every hypervisor (epoch length, boundary
	// and emulation options).
	Hypervisor hypervisor.Config
	// Disk configures shared disk 0.
	Disk scsi.DiskConfig
	// ExtraDisks configures shared disks 1..N-1 (multi-disk workloads).
	ExtraDisks []scsi.DiskConfig
	// Terminal is the console's scripted input (keystrokes arriving at
	// virtual times). Empty: the console is the historical write-only
	// device.
	Terminal []console.Input
	// NICRequests, when positive, attaches the shared network adapter to
	// every node, serving a client population that numbers its requests
	// 1..NICRequests (the network-service configurations; absent by
	// default so historical device tables — and their pinned transcripts
	// — are untouched).
	NICRequests int
	// Link configures the hypervisor-to-hypervisor channel (both
	// directions); zero value = 10 Mbps Ethernet.
	Link netsim.LinkConfig
}

// Node is one processor with its device bindings.
type Node struct {
	M  *machine.Machine
	HV *hypervisor.Hypervisor
	// Adapters holds one adapter per shared disk, in disk order.
	Adapters []*scsi.Adapter
	// Port is this node's endpoint on the shared console.
	Port *console.Port
	// NICPort is this node's endpoint on the shared network adapter
	// (nil unless Config.NICRequests > 0).
	NICPort *nic.Port

	nicShadow *nic.Shadow // the hypervisor's NIC shadow, released with the node
}

// env is the shared environment every node attaches to: the disks and
// the console are dual-(n-)ported devices reachable from every
// processor (the I/O Device Accessibility Assumption).
type env struct {
	disks   []*scsi.Disk
	console *console.Console
	nic     *nic.NIC
}

// Arena owns a cluster's machines, hypervisors, NIC shadows and mesh
// links, and the buffers of its disks and shared NIC: what Release hands
// back, the next cluster built over the arena reuses. It has one owner at
// a time and no lock.
type Arena struct {
	Machines    machine.Arena
	Hypervisors hypervisor.Arena
	Disks       scsi.Arena
	NICs        nic.Arena
	Links       netsim.Arena
}

// newEnv builds the shared environment and schedules the terminal
// script.
func newEnv(a *Arena, k *sim.Kernel, cfg Config) *env {
	e := &env{console: console.New()}
	e.disks = append(e.disks, scsi.NewDiskIn(&a.Disks, k, cfg.Disk))
	for _, dc := range cfg.ExtraDisks {
		e.disks = append(e.disks, scsi.NewDiskIn(&a.Disks, k, dc))
	}
	e.console.Schedule(k, cfg.Terminal)
	if cfg.NICRequests > 0 {
		e.nic = nic.NewIn(&a.NICs, cfg.NICRequests)
	}
	return e
}

// newNode builds one processor. Each node gets its own TLB seed
// (chip-internal nondeterminism differs per processor) and a
// time-of-day clock driven by the simulation clock.
func newNode(a *Arena, k *sim.Kernel, cfg Config, host int) *Node {
	mc := cfg.Machine
	mc.CPUID = uint32(host + 1)
	mc.TLBSeed = cfg.Machine.TLBSeed + int64(host)*7919
	if mc.TODSource == nil {
		mc.TODSource = func() uint32 { return uint32(k.Now() / CycleTime) }
	}
	return &Node{M: machine.NewIn(&a.Machines, mc)}
}

// finishNode wires the node's bus and hypervisor from the shared
// environment's device table: every node is wired identically.
func finishNode(ar *Arena, cfg Config, n *Node, e *env, host int) {
	m := n.M
	mux := m.BusMux()
	for i, disk := range e.disks {
		base, line := DiskWindow(i)
		a := disk.NewAdapter(host, m, func() { m.RaiseIRQ(line) })
		n.Adapters = append(n.Adapters, a)
		mux.Map(fmt.Sprintf("scsi%d", i), base, scsi.AdapterWindow, a)
	}
	n.Port = e.console.NewPort(func() { m.RaiseIRQ(ConsoleIRQLine) })
	mux.Map("console", ConsoleBase, console.Window, n.Port)
	if e.nic != nil {
		n.NICPort = e.nic.NewPort(func() { m.RaiseIRQ(NICIRQLine) })
		mux.Map("nic", NICBase, nic.Window, n.NICPort)
	}
	m.Bus = mux
	n.HV = hypervisor.NewIn(&ar.Hypervisors, m, cfg.Hypervisor)
	for i := range e.disks {
		base, line := DiskWindow(i)
		n.HV.AttachDevice(device.Window{
			ID: fmt.Sprintf("disk%d", i), Base: base, Size: scsi.AdapterWindow, Line: line,
		}, scsi.NewShadow())
	}
	n.HV.AttachDevice(device.Window{
		ID: "console", Base: ConsoleBase, Size: console.Window,
		Line: ConsoleIRQLine, Unsolicited: true,
	}, console.NewShadow())
	if e.nic != nil {
		n.nicShadow = nic.NewShadowIn(&ar.NICs)
		n.HV.AttachDevice(device.Window{
			ID: "nic", Base: NICBase, Size: nic.Window,
			Line: NICIRQLine, Unsolicited: true,
		}, n.nicShadow)
	}
}

// Cluster is the replicated prototype of Figure 1, generalized to t
// faults: n processors (node 0 is the initial primary; nodes 1..n-1 are
// backups in priority order) sharing the device table, with a full mesh
// of point-to-point links. n = 2 is the paper's pair; n = 1 is one
// processor with the same devices and no links — the platform the bare
// baseline (hypervisor.NewBare on node 0's machine) runs on.
type Cluster struct {
	K *sim.Kernel
	// Disks holds the shared disks in index order.
	Disks   []*scsi.Disk
	Console *console.Console
	// NIC is the shared network adapter (nil unless Config.NICRequests > 0).
	NIC   *nic.NIC
	Nodes []*Node
	// Links[i][j] (i < j) is the duplex between nodes i and j:
	// AtoB carries i->j, BtoA carries j->i.
	Links [][]*netsim.Duplex

	cfg   Config // retained so nodes can be added after construction
	env   *env
	arena *Arena
}

// NewCluster builds an n-node prototype (n >= 1) over a private arena:
// its buffers are allocated plainly.
func NewCluster(k *sim.Kernel, cfg Config, n int) *Cluster {
	return NewClusterIn(new(Arena), k, cfg, n)
}

// NewClusterIn is NewCluster over an arena: every machine, hypervisor,
// NIC shadow and mesh link of the cluster, late joiners' included, is
// rebuilt from one a holds when it has one, the disks and the shared NIC
// take their buffers from a, and Release hands all of it back.
func NewClusterIn(a *Arena, k *sim.Kernel, cfg Config, n int) *Cluster {
	if n < 1 {
		panic("platform: cluster needs at least 1 node")
	}
	c := &Cluster{K: k, cfg: cfg, arena: a}
	c.env = newEnv(a, k, cfg)
	c.Disks, c.Console, c.NIC = c.env.disks, c.env.console, c.env.nic
	for i := 0; i < n; i++ {
		node := newNode(a, k, cfg, i)
		finishNode(a, cfg, node, c.env, i)
		c.Nodes = append(c.Nodes, node)
	}
	link := cfg.Link
	if link.BitsPerSecond == 0 {
		link = netsim.Ethernet10("mesh")
	}
	c.Links = make([][]*netsim.Duplex, n)
	for i := 0; i < n; i++ {
		c.Links[i] = make([]*netsim.Duplex, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			c.Links[i][j] = netsim.NewDuplexIn(&a.Links, k, fmt.Sprintf("link%d-%d", i, j), link)
		}
	}
	return c
}

// AddNode grows the cluster by one node (a repaired processor being
// reintegrated): node n is built exactly as a boot-time node n would
// have been — same per-chip TLB-seed perturbation, same device-table
// wiring to the shared environment — and duplex links to every existing
// node are created with the given configuration (zero value: the
// cluster's boot-time link). The new node's machine is blank; the
// caller transfers state into it. Its console port sees scripted input
// events that fire after this instant.
func (c *Cluster) AddNode(link netsim.LinkConfig) *Node {
	n := len(c.Nodes)
	node := newNode(c.arena, c.K, c.cfg, n)
	finishNode(c.arena, c.cfg, node, c.env, n)
	c.Nodes = append(c.Nodes, node)
	if link.BitsPerSecond == 0 {
		link = c.cfg.Link
		if link.BitsPerSecond == 0 {
			link = netsim.Ethernet10("mesh")
		}
	}
	for i := range c.Links {
		c.Links[i] = append(c.Links[i], nil)
	}
	c.Links = append(c.Links, make([]*netsim.Duplex, n+1))
	for i := 0; i < n; i++ {
		c.Links[i][n] = netsim.NewDuplexIn(&c.arena.Links, c.K, fmt.Sprintf("link%d-%d", i, n), link)
	}
	return node
}

// Channel returns the (tx, rx) pair for node from talking to node to:
// tx carries from->to, rx carries to->from.
func (c *Cluster) Channel(from, to int) (tx, rx *netsim.Link) {
	if from == to {
		panic("platform: self channel")
	}
	if from < to {
		d := c.Links[from][to]
		return d.AtoB, d.BtoA
	}
	d := c.Links[to][from]
	return d.BtoA, d.AtoB
}

// Release hands every machine, hypervisor, NIC shadow and mesh link,
// and the disks' and shared NIC's buffers, back to the cluster's arena.
// Call only on teardown, after the simulation kernel has shut down: the
// machines must never run again, nor the disks serve, nor the links
// carry, nor the NIC's ports be read. Nodes and links go back last first:
// the arena's lists pop last in, first out, so the next cluster's node i
// is rebuilt in node i's structs.
func (c *Cluster) Release() {
	for i := len(c.Nodes) - 1; i >= 0; i-- {
		n := c.Nodes[i]
		n.M.Release()
		n.HV.Release()
		if n.nicShadow != nil {
			n.nicShadow.Release()
		}
	}
	for _, d := range c.Disks {
		d.Release()
	}
	if c.NIC != nil {
		c.NIC.Release()
	}
	for i := len(c.Links) - 1; i >= 0; i-- {
		for j := len(c.Links[i]) - 1; j >= 0; j-- {
			if d := c.Links[i][j]; d != nil {
				d.Release()
			}
		}
	}
}
