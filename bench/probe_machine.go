package main

import (
	"time"

	"repro/internal/asm"
	"repro/internal/machine"
)

// probeLoop is a five-instruction ALU loop that never traps.
const probeLoop = `
loop:
	addi r1, r1, 1
	xor  r2, r2, r1
	slli r3, r1, 2
	add  r2, r2, r3
	b loop
`

func probeMachine(total time.Duration, m map[string]float64) {
	p := asm.MustAssemble("probe.s", probeLoop)
	newMachine := func() *machine.Machine {
		mc := machine.New(machine.Config{})
		mc.LoadProgram(p.Origin, p.Words, 0)
		return mc
	}
	// The batched executor the hypervisor and the bare driver use.
	run := newMachine()
	m["machine.run_ns_per_instr"] = perOp(total, func(n int) {
		for left := uint64(n); left > 0; {
			rr := run.Run(left)
			if rr.Executed == 0 {
				panic("probe: machine.Run made no progress")
			}
			left -= rr.Executed
		}
	})
	// The one-instruction interpreter, the executable specification.
	step := newMachine()
	m["machine.step_ns_per_instr"] = perOp(total, func(n int) {
		for i := 0; i < n; i++ {
			step.Step()
		}
	})
}
