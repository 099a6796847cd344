// Repair: the full fault-tolerance lifecycle in one session. The
// paper's protocol survives ONE failstop per spare replica — after a
// failover the system runs unprotected until the failed processor is
// repaired and reintegrated (§5). This example closes that loop:
//
//  1. the primary failstops mid-workload; the backup promotes (P6/P7);
//  2. a repaired processor rejoins via AddBackup — the acting
//     coordinator's complete virtual-machine state is captured at an
//     epoch boundary and shipped through the simulated link (the
//     transfer is charged to virtual time);
//  3. the acting coordinator failstops TOO — a failure that would have
//     been fatal without reintegration — and the freshly transferred
//     backup promotes and finishes the workload;
//  4. the result matches the bare, never-failing machine bit for bit.
package main

import (
	"context"
	"fmt"
	"log"

	hft "repro"
)

func main() {
	w := hft.DiskWrite(6, 8192)

	// Baseline: what a single never-failing machine produces.
	bc, err := hft.NewCluster(hft.WithWorkload(w), hft.Bare())
	if err != nil {
		log.Fatal(err)
	}
	defer bc.Close()
	bare, err := bc.Wait(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	c, err := hft.NewCluster(
		hft.WithWorkload(w),
		hft.WithProtocol(hft.ProtocolNew),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	events := c.Events()
	go func() {
		for ev := range events {
			switch ev.Kind {
			case hft.EventFailstop, hft.EventPromoted, hft.EventBackupAdded, hft.EventCompleted:
				fmt.Printf("  event: %v\n", ev)
			}
		}
	}()

	// --- Failure #1: the primary dies mid-workload. ---
	if _, err := c.RunFor(10 * hft.Millisecond); err != nil {
		log.Fatal(err)
	}
	c.FailPrimary()
	snap, err := c.RunUntil(func(s hft.Snapshot) bool { return s.Promoted })
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("failover complete: node%d is acting; redundancy is GONE\n", snap.Acting)

	// --- Repair: a new backup joins by live state transfer. ---
	n, err := c.AddBackup()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("node%d reintegrating; the cluster keeps running while the image flies\n", n)

	// Let the transfer land and the joiner fall into lockstep.
	if _, err := c.RunFor(60 * hft.Millisecond); err != nil {
		log.Fatal(err)
	}

	// --- Failure #2: the acting coordinator dies too. Without the
	// reintegration this would be the end of the computation. ---
	if err := c.FailBackup(1); err != nil {
		log.Fatal(err)
	}
	res, err := c.Wait(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	final := c.Snapshot()
	fmt.Printf("survived two failstops: acting node%d finished the workload\n", final.Acting)
	fmt.Printf("result: %#x vs bare %#x (uncertain synthesized: %d)\n",
		res.Checksum, bare.Checksum, final.UncertainSynthesized)
	if res.Checksum != bare.Checksum || res.GuestPanic != 0 {
		log.Fatalf("INCONSISTENT RESULT (panic=%#x)", res.GuestPanic)
	}
	fmt.Println("environment result identical to a never-failing machine")
}
