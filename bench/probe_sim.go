package main

import (
	"time"

	"repro/internal/sim"
)

func probeSim(total time.Duration, m map[string]float64) {
	// One process sleeping alone: the clock advances in place.
	m["sim.sleep_ns"] = perOp(total, func(n int) {
		k := sim.NewKernel(1)
		defer k.Shutdown()
		k.Spawn("sleeper", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(10)
			}
		})
		k.Run()
	})
	// Two processes half a period apart: every wake-up hands the token to
	// the other goroutine, which is what a replicated pair does at each
	// boundary.
	m["sim.handoff_ns"] = perOp(total, func(n int) {
		k := sim.NewKernel(1)
		defer k.Shutdown()
		for _, offset := range []sim.Time{0, 5} {
			k.Spawn("alternator", func(p *sim.Proc) {
				p.Sleep(offset)
				for i := 0; i < n/2; i++ {
					p.Sleep(10)
				}
			})
		}
		k.Run()
	})
	// A chain of timer events with no process switch.
	m["sim.event_ns"] = perOp(total, func(n int) {
		k := sim.NewKernel(1)
		count := 0
		var next func()
		next = func() {
			if count++; count < n {
				k.After(10, next)
			}
		}
		k.After(10, next)
		k.Run()
	})
}
