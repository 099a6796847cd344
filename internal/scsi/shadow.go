package scsi

import (
	"repro/internal/device"
	"repro/internal/snapshot"
)

// Shadow is the hypervisor-side virtual adapter: the register bank the
// guest programs. Register state evolves identically on primary and
// backup (guest stores are deterministic; completion status is applied
// only at interrupt delivery), which is what makes guest MMIO loads
// deterministic without forwarding — the Environment Instruction
// Assumption for the disk.
type Shadow struct {
	cmd, block, addr, count, status, info uint32
}

// NewShadow returns a zeroed virtual adapter.
func NewShadow() *Shadow { return &Shadow{} }

var _ device.Shadow = (*Shadow)(nil)

// Load implements device.Shadow: serve a guest register read from
// shadow state.
func (s *Shadow) Load(off uint32) uint32 {
	switch off {
	case RegCmd:
		return s.cmd
	case RegBlock:
		return s.block
	case RegAddr:
		return s.addr
	case RegCount:
		return s.count
	case RegStatus:
		return s.status
	case RegInfo:
		return s.info
	}
	return 0
}

// PureLoad implements device.Shadow (see popsOnRead).
func (s *Shadow) PureLoad(off uint32) bool { return !popsOnRead(off) }

// Store implements device.Shadow: apply a guest register write. A
// doorbell store marks the virtual adapter busy on every replica and
// asks the hypervisor to start the operation (EffectStart); only an
// I/O-active hypervisor will actually program the real device.
func (s *Shadow) Store(off uint32, v uint32) device.Effect {
	switch off {
	case RegCmd:
		s.cmd = v
	case RegBlock:
		s.block = v
	case RegAddr:
		s.addr = v
	case RegCount:
		s.count = v
	case RegStatus:
		s.status &^= v // write-1-to-clear (virtual)
	case RegDoorbell:
		s.status |= StatusBusy
		return device.EffectStart
	}
	return device.EffectNone
}

// Output implements device.Shadow. The adapter has no output registers;
// nothing classifies as EffectOutput, so this is never called.
func (s *Shadow) Output(bus device.Bus, off, v uint32, ordinal uint32) {}

// Start implements device.Shadow: program the real adapter with the
// shadow registers and ring its doorbell.
func (s *Shadow) Start(bus device.Bus) {
	bus.Store(RegCmd, s.cmd)
	bus.Store(RegBlock, s.block)
	bus.Store(RegAddr, s.addr)
	bus.Store(RegCount, s.count)
	bus.Store(RegDoorbell, 1)
}

// Capture implements device.Shadow: snoop the real adapter's completion
// status, clear it for the next operation, and — for successful reads —
// capture the environment data (the DMA contents) so the backup can
// apply the identical bytes.
func (s *Shadow) Capture(bus device.Bus, mem device.Memory) (device.Completion, bool) {
	status := bus.Load(RegStatus)
	bus.Store(RegStatus, 0xFFFFFFFF)
	c := device.Completion{Status: status &^ StatusBusy}
	if s.cmd == CmdRead && status&StatusDone != 0 {
		count := s.count
		if count == 0 {
			count = 8192
		}
		c.Addr = s.addr
		c.Data = mem.ReadBytes(s.addr, int(count))
	}
	return c, true
}

// Apply implements device.Shadow: apply a delivered completion to the
// virtual adapter — DMA data into guest memory, final status into the
// shadow registers. Identical on every replica.
func (s *Shadow) Apply(c device.Completion, mem device.Memory, bus device.Bus) {
	if len(c.Data) > 0 {
		mem.WriteBytes(c.Addr, c.Data)
	}
	s.status &^= StatusBusy
	s.status |= c.Status
	s.info = 0
}

// Recover implements device.Shadow — rule P7 proper: for an I/O
// operation outstanding when a failover epoch ends, synthesize an
// UNCERTAIN completion. The guest's driver will retry, which IO2
// permits.
func (s *Shadow) Recover(bus device.Bus, mem device.Memory, outstanding bool, buffered []device.Completion) ([]device.Completion, int) {
	if !outstanding {
		return nil, 0
	}
	return []device.Completion{{Status: StatusUncertain}}, 1
}

// CodeState implements device.Shadow: the six registers.
func (s *Shadow) CodeState(c *snapshot.Codec) {
	for _, p := range [...]*uint32{&s.cmd, &s.block, &s.addr, &s.count, &s.status, &s.info} {
		c.U32(p)
	}
}
