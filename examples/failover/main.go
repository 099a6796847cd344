// Failover: kill the primary processor LIVE, mid-workload — inside the
// two-generals window, with a disk write outstanding — and watch the
// backup take over through the session's event stream. The environment
// (the shared disk) sees a sequence of I/O operations consistent with a
// single processor: the outstanding write is re-driven through a
// synthesized uncertain interrupt (rule P7) and the guest driver's
// ordinary retry path.
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
		hft.WithEpochLength(4096),
		hft.WithProtocol(hft.ProtocolOld),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	// Watch the protocol milestones as they happen.
	events := c.Events()
	go func() {
		for ev := range events {
			switch ev.Kind {
			case hft.EventFailstop, hft.EventPromoted, hft.EventCompleted:
				fmt.Printf("  event: %v\n", ev)
			}
		}
	}()

	// Run 40 ms in — the guest will have a write in flight — then
	// failstop the primary at the current instant. No schedule needed.
	if _, err := c.RunFor(40 * hft.Millisecond); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("failstopping the primary at %v...\n", c.Now())
	c.FailPrimary()

	repl, err := c.Wait(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("backup promoted:          %v\n", repl.Promoted)
	fmt.Printf("uncertain interrupts:     %d (rule P7)\n", repl.UncertainSynthesized)
	fmt.Printf("workload completed:       console %q\n", repl.Console)
	fmt.Printf("result vs bare machine:   %#x vs %#x\n", repl.Checksum, bare.Checksum)
	if repl.Checksum == bare.Checksum && repl.GuestPanic == 0 {
		fmt.Println()
		fmt.Println("The environment cannot tell the primary ever existed: every")
		fmt.Println("committed disk write matches what one processor would have done,")
		fmt.Println("with at most identical-content repetitions (which IO2 permits).")
	} else {
		log.Fatalf("INCONSISTENT RESULT after failover (panic=%#x)", repl.GuestPanic)
	}
}
