// tfault: the t-fault-tolerant generalization (§2: "n processors
// implement a system that can tolerate n−1 faults"). A 2-fault-tolerant
// virtual machine — one primary, two backups — survives the loss of BOTH
// the primary and the first promoted backup: promotions cascade by
// priority, and each new primary replays its delivered-interrupt archive
// so the remaining replicas follow its stream.
package main

import (
	"context"
	"fmt"
	"log"

	hft "repro"
)

// wait runs one session built from opts to completion.
func wait(opts ...hft.Option) hft.Result {
	c, err := hft.NewCluster(opts...)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	res, err := c.Wait(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	return res
}

func main() {
	opts := []hft.Option{
		hft.WithWorkload(hft.DiskWrite(5, 8192)),
		hft.WithEpochLength(4096),
		hft.WithBackups(2), // t = 2
		hft.WithDiskLatency(2*hft.Millisecond, 3*hft.Millisecond),
	}

	bare := wait(append(opts, hft.Bare())...)
	fmt.Printf("bare machine result:      %#x in %v\n", bare.Checksum, bare.Time)

	// First failure: the primary, early in the run. Second failure: the
	// promoted backup, mid-run. Backup 2 must finish alone.
	repl := wait(append(opts,
		hft.WithFailPrimaryAt(2*hft.Millisecond),
		hft.WithFailBackupAt(1, 120*hft.Millisecond))...)
	fmt.Printf("after TWO failstops:      %#x in %v\n", repl.Checksum, repl.Time)
	fmt.Printf("promotions occurred:      %v\n", repl.Promoted)
	fmt.Printf("uncertain interrupts:     %d (rule P7, possibly at both failovers)\n",
		repl.UncertainSynthesized)
	fmt.Printf("console:                  %q\n", repl.Console)
	if repl.Checksum == bare.Checksum && repl.GuestPanic == 0 {
		fmt.Println()
		fmt.Println("Two processors died; the third finished the computation with the")
		fmt.Println("exact single-machine result. The guest OS never knew.")
	} else {
		log.Fatalf("INCONSISTENT after double failure (panic=%#x)", repl.GuestPanic)
	}
}
