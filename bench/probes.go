package main

import (
	"runtime"
	"sort"
	"time"
)

// Layer probes call one layer's public functions directly, for about
// probeTime each, once per invocation. Each lives in the file named
// after its layer (probe_sim.go, ...), which is the only file that
// imports that layer.

// probeBatch is how long one timed batch of a probe should take: long
// against the timer, short against the sandbox's speed drift.
const probeBatch = 20 * time.Millisecond

// perOp times batch(n) repeatedly for about total and returns the median
// reference-host nanoseconds per operation. n is grown until one batch
// takes about probeBatch.
func perOp(total time.Duration, batch func(n int)) float64 {
	n := 64
	for {
		start := time.Now()
		batch(n)
		if d := time.Since(start); d >= probeBatch/2 || n >= 1<<26 {
			break
		}
		n *= 2
	}
	var perOp []float64
	for start := time.Now(); len(perOp) == 0 || time.Since(start) < total; {
		t := timed(func() { batch(n) })
		perOp = append(perOp, t.seconds()*1e9/float64(n))
	}
	sort.Float64s(perOp)
	return quantile(perOp, 0.5)
}

// runProbes returns every probe metric. Like the workloads, the probes
// run at measuredProcs, except the scheduler's, whose subject is the
// fan-out across cores.
func runProbes(total time.Duration) map[string]float64 {
	m := map[string]float64{}
	procs := runtime.GOMAXPROCS(measuredProcs)
	probeSim(total, m)
	probeMachine(total, m)
	probeAsm(total, m)
	probeNetsim(total, m)
	runtime.GOMAXPROCS(procs)
	probeSched(total, m)
	return m
}
