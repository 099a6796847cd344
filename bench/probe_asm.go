package main

import (
	"runtime"
	"time"

	"repro/internal/asm"
	"repro/internal/guest"
)

func probeAsm(total time.Duration, m map[string]float64) {
	assemble := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := asm.Assemble("kernel.s", guest.KernelSource); err != nil {
				panic(err)
			}
		}
	}
	m["asm.assemble_kernel_ms"] = perOp(total, assemble) / 1e6
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	assemble(4)
	runtime.ReadMemStats(&after)
	m["asm.assemble_allocs"] = float64(after.Mallocs-before.Mallocs) / 4
}
