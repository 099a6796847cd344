package main

import (
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

func probeNetsim(total time.Duration, m map[string]float64) {
	// One 64-byte message at a time over the Ethernet model: send,
	// delivery event, next send from the delivery hook.
	m["netsim.send_deliver_ns"] = perOp(total, func(n int) {
		k := sim.NewKernel(1)
		l := netsim.NewLink(k, netsim.Ethernet10("probe"))
		sent := 1
		l.OnDeliver = func(netsim.Message) {
			if sent < n {
				sent++
				l.Send(nil, 64)
			}
		}
		l.Send(nil, 64)
		k.Run()
	})
}
