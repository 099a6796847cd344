package hypervisor

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/sim"
)

// Bare runs a guest directly on the hardware, the way the paper's
// baseline measurements do: the kernel executes at real privilege level
// 0, every trap vectors through the hardware interruption sequence
// (machine.DeliverTrap), devices are accessed directly, and no hypervisor
// costs are charged. Normalized performance N'/N compares a replicated
// run against this.
type Bare struct {
	// M is the machine (with Bus wired to real devices).
	M *machine.Machine

	halted bool
}

// bareMaxInstructions aborts runaway bare guests.
const bareMaxInstructions uint64 = 1e10

// NewBare wraps a machine for bare-metal execution.
func NewBare(m *machine.Machine) *Bare { return &Bare{M: m} }

// Boot loads the program and points the machine at its entry.
func (b *Bare) Boot(origin uint32, words []uint32, entry uint32) {
	b.M.LoadProgram(origin, words, entry)
}

// Halted reports whether the guest halted.
func (b *Bare) Halted() bool { return b.halted }

// Run executes the guest until HALT, driving hardware trap delivery and
// idling through WFI. It must be called from the machine's simulation
// process.
func (b *Bare) Run(p *sim.Proc) {
	m := b.M
	k := p.Kernel()
	for !b.halted {
		if m.Cycles() > bareMaxInstructions {
			panic(fmt.Sprintf("bare: guest exceeded %d instructions", bareMaxInstructions))
		}
		rr := m.Run(chunkSize)
		if rr.Executed > 0 {
			p.Sleep(sim.Time(rr.Executed) * instructionTime)
		}
		switch {
		case rr.Trap != isa.TrapNone:
			// Hardware interruption sequence: this is what a bare
			// PA-lite machine does for every trap.
			m.DeliverTrap(rr.Trap, rr.ISR, rr.IOR)
		case rr.Halted:
			b.halted = true
		case rr.Idle:
			// WFI: idle until some interrupt line rises. Device events
			// are scheduled in the kernel; sleep event-to-event.
			for !m.IRQRaised() {
				next, ok := k.NextEventTime()
				if !ok {
					panic("bare: WFI with no pending events (guest would hang)")
				}
				d := next - k.Now()
				if d < 0 {
					d = 0
				}
				p.Sleep(d)
				p.Yield() // let the event's effects (IRQ raise) land
			}
		}
	}
}
