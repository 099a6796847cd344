package main

import "time"

// Host times in this benchmark are reported in reference-host seconds:
// every timed section is bracketed by a fixed calibration kernel, and
// its wall time is scaled by calibRef ÷ (the kernel's time measured
// around it). The sandbox this was written on drifts between speed
// regimes ±25 % apart that last seconds to minutes (a shared host; CPU
// time drifts with wall time, so it is not preemption), which put the
// run-to-run spread of raw medians near 25 %; scaled to the kernel
// that runs beside them they repeat within about 2 %. The raw wall
// time and the kernel's time are reported per layer (host.wall_raw_s,
// host.calib_ms) so the scaling is visible.

// calibRef is the calibration kernel's time on the quiet sandbox; with
// it a scaled second reads as a second there.
const calibRef = 6600 * time.Microsecond

var (
	calibTable [1 << 14]uint32
	calibSink  uint32
)

func init() {
	for i := range calibTable {
		calibTable[i] = uint32(i) * 2654435761
	}
}

// calibrate returns the median wall time of three runs of the
// calibration kernel: one run is 6.6 ms, short enough for a single
// hiccup of the host to move it by several per cent.
func calibrate() time.Duration {
	a, b, c := calibKernel(), calibKernel(), calibKernel()
	return max(min(a, b), min(max(a, b), c))
}

// calibKernel is interpreter-shaped on purpose -- a dependent load from
// a 64 KiB table, an eight-way switch and a store per iteration -- so
// that contention on the core slows it the way it slows the simulator.
func calibKernel() time.Duration {
	start := time.Now()
	x, acc := uint32(12345), uint32(0)
	for i := 0; i < 600_000; i++ {
		x = x*1664525 + 1013904223
		v := calibTable[(x>>10)&(1<<14-1)]
		switch v & 7 {
		case 0:
			acc += v
		case 1:
			acc ^= v << 1
		case 2:
			acc -= v
		case 3:
			acc += x
		case 4:
			acc ^= x >> 3
		case 5:
			acc += v >> 2
		case 6:
			acc -= x
		default:
			acc ^= v
		}
		calibTable[(acc>>8)&(1<<14-1)] = acc
	}
	calibSink = acc
	return time.Since(start)
}

// timing is one calibrated measurement.
type timing struct {
	raw   time.Duration // wall time as measured
	calib time.Duration // mean of the calibration runs before and after
}

// seconds returns the section's time in reference-host seconds.
func (t timing) seconds() float64 {
	return t.raw.Seconds() * float64(calibRef) / float64(t.calib)
}

// timed runs fn between two calibration runs.
func timed(fn func()) timing {
	before := calibrate()
	start := time.Now()
	fn()
	raw := time.Since(start)
	return timing{raw: raw, calib: (before + calibrate()) / 2}
}
