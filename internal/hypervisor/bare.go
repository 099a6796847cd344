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
//
// Bare waits. The guest runs in chunks of chunkSize instructions, each
// followed by a sleep of its instructions' time. A bare guest that waits
// spins on a flag or a device status register: its loads never trap, so
// the trace executor retires the spin in closed form (machine Spins), but
// every chunk of it is still a Run and a Sleep. When a chunk retires its
// whole budget inside a spin it fast-forwarded (MemoStats().Spun moved;
// no trap, halt, WFI or DIAG), every later chunk that starts strictly
// before the kernel's next loud instant L is that same chunk again, so
// Run runs them as one m.Run and sleeps once. Why that is exact, in three
// lines. (1) Nothing loud is dispatched before L, so no chunk that starts
// before it can see a device, an interrupt or the pause change, and Run(a)
// then Run(b) leaves the machine as Run(a+b) does (both are Step
// repeated): an interval-timer trap, a halt or a WFI still ends the call
// on the same instruction. (2) The one wake lands at the instant of the
// chunked loop's last; its seq orders it after everything pending now and
// before anything scheduled later, as that wake's would. (3) The bound is
// NextLoud, not NextEventTime: NextLoud includes the RunUntil bound
// (limit+1), so at a RunFor pause the machine is never further ahead than
// the chunked loop would leave it. The spin condition is what keeps the
// clock out of it: MFTOD reads the kernel's Now, which stands still
// inside one Run, and a spin that fast-forwarded executes nothing but its
// own pure iteration until a trap ends the call. "Leaves the machine as"
// is what Run promises, TLB recency as order: the first data access of
// each call re-touches its slot, so the LRU clock also counts calls. The
// count is capped so that cycles cross bareMaxInstructions on the chunk
// they always did. A replicated busy guest runs ahead the same way
// (busy.go), to the next callback rather than the next loud instant.
// debugNoStorm keeps the loop chunk by chunk: the reference arm.
type Bare struct {
	// M is the machine (with Bus wired to real devices).
	M *machine.Machine

	halted bool
	// phase is where Run resumes; res is how the last chunk ended.
	phase barePhase
	res   machine.RunResult
}

// barePhase names the piece of the bare loop Run runs next.
type barePhase uint8

const (
	// bareRun: execute a chunk (or a wait's worth of them) and charge its
	// instruction time.
	bareRun barePhase = iota
	// bareTrap: the chunk's time has passed; act on how it ended.
	bareTrap
	// bareIdle: in WFI; sleep to the next event unless a line is raised.
	bareIdle
	// bareYield: the sleep to the event is over; yield so that the
	// event's effects (an IRQ raise) land, then look again.
	bareYield
)

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
// idling through WFI. It is the step (sim.StepFunc) of the machine's
// simulation process.
func (b *Bare) Run(p *sim.Proc) (sim.Time, sim.StepStatus) {
	m, k := b.M, p.Kernel()
	for {
		switch rr := &b.res; b.phase {
		case bareTrap:
			b.phase = bareRun
			switch {
			case rr.Trap != isa.TrapNone:
				// Hardware interruption sequence: this is what a bare
				// PA-lite machine does for every trap.
				m.DeliverTrap(rr.Trap, rr.ISR, rr.IOR)
			case rr.Halted:
				b.halted = true
			case rr.Idle:
				b.phase = bareIdle
			}
		case bareIdle:
			// WFI: idle until some interrupt line rises. Device events are
			// scheduled in the kernel; sleep event-to-event, then yield to
			// let the event's effects (an IRQ raise) land.
			if m.IRQRaised() {
				b.phase = bareRun
				continue
			}
			next, ok := k.NextEventTime()
			if !ok {
				// Nothing pending can raise a line: the guest is wedged
				// for good. The process ends without halting, and the
				// session reports the run incomplete.
				return 0, sim.StepDone
			}
			b.phase = bareYield
			return max(next-k.Now(), 0), sim.StepMore
		case bareYield:
			b.phase = bareIdle
			return 0, sim.StepMore
		default:
			if b.halted {
				return 0, sim.StepDone
			}
			if m.Cycles() > bareMaxInstructions {
				panic(fmt.Sprintf("bare: guest exceeded %d instructions", bareMaxInstructions))
			}
			spun := m.MemoStats().Spun
			*rr = m.Run(chunkSize)
			executed := rr.Executed
			if m.MemoStats().Spun != spun && rr.Trap == isa.TrapNone && !rr.Halted && !rr.Idle && rr.Diag == 0 && !debugNoStorm {
				if extra := b.waitAhead(k.NextLoud(), p.Now()); extra > 0 {
					*rr = m.Run(extra * chunkSize)
					executed += rr.Executed
				}
			}
			if b.phase = bareTrap; executed > 0 {
				return sim.Time(executed) * instructionTime, sim.StepMore
			}
		}
	}
}

// waitAhead is how many more chunks the chunked loop would run, after the
// one that started at now, before the loud instant or the instruction cap
// (see Bare waits): the chunks starting at now + i·c < loud, i >= 1, each
// with cycles still within bareMaxInstructions at its start.
func (b *Bare) waitAhead(loud, now sim.Time) uint64 {
	cycles := b.M.Cycles()
	if loud <= now || cycles > bareMaxInstructions {
		return 0
	}
	c := sim.Time(chunkSize) * instructionTime
	return min(uint64((loud-now-1)/c), (bareMaxInstructions-cycles)/chunkSize+1)
}
