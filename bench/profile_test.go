package main

import (
	"math"
	"os"
	"testing"
)

// testdata/cpu.pb.gz is a CPU profile recorded with runtime/pprof around
// a few smoke-scale cpu_el1k units (go1.24, linux/amd64).
func TestBucketProfileFixture(t *testing.T) {
	data, err := os.ReadFile("testdata/cpu.pb.gz")
	if err != nil {
		t.Fatal(err)
	}
	shares, err := bucketProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	if shares.samples < 20 {
		t.Fatalf("fixture decoded to %d samples", shares.samples)
	}
	if named := float64(shares.resolved) / float64(shares.samples); named < 0.95 {
		t.Errorf("%.1f %% of samples have a named stack, want >= 95 %%", 100*named)
	}
	sum := 0.0
	for _, l := range hostLayers {
		sum += shares.pct[l]
	}
	if math.Abs(sum-100) > 1e-6 {
		t.Errorf("layer shares sum to %v, want 100", sum)
	}
	if len(shares.pct) != len(hostLayers) {
		t.Errorf("a sample fell outside the declared layers: %v", shares.pct)
	}
	// A replicated CPU-bound pair spends its time in the interpreter and
	// the simulation kernel.
	if shares.pct["machine"] == 0 || shares.pct["sim"] == 0 {
		t.Errorf("machine %.1f %%, sim %.1f %%: both should be sampled", shares.pct["machine"], shares.pct["sim"])
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"main.pairUnit":                               "bench",
		"repro.(*Cluster).Wait":                       "cluster",
		"repro/internal/sim.(*Kernel).loop":           "sim",
		"repro/internal/scsi.(*Disk).Submit":          "device",
		"repro/internal/sched.ForEach.func1":          "fleet",
		"repro/internal/asm.Assemble":                 "boot",
		"repro/internal/machine.(*Machine).Run":       "machine",
		"repro/internal/sim.(*Queue[go.shape.x]).Put": "sim",
		"runtime.mallocgc":                            "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("garbage decoded without error")
	}
}
