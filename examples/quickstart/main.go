// Quickstart: build a 1-fault-tolerant virtual machine as a live
// session, run the paper's CPU-intensive workload on it, and report the
// normalized performance — the cost of transparency.
package main

import (
	"context"
	"fmt"
	"log"

	hft "repro"
)

func main() {
	w := hft.CPUIntensive(20000)

	// Baseline: the same workload on a single bare machine.
	bc, err := hft.NewCluster(hft.WithWorkload(w), hft.Bare())
	if err != nil {
		log.Fatal(err)
	}
	defer bc.Close()
	bare, err := bc.Wait(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bare hardware:          %v (console %q)\n", bare.Time, bare.Console)

	// The replicated machine is a session: it boots lazily, can be
	// observed mid-run, and advances under caller control. This is the
	// paper's reference configuration: 4096-instruction epochs, the
	// original protocol, a 10 Mbps Ethernet between the hypervisors.
	c, err := hft.NewCluster(
		hft.WithWorkload(w),
		hft.WithEpochLength(4096),
		hft.WithProtocol(hft.ProtocolOld),
		hft.WithLink(hft.Ethernet10()),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	// Peek at the session mid-flight: protocol statistics are
	// first-class values at any virtual time.
	mid, err := c.RunFor(50 * hft.Millisecond)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("at %v:                  epoch %d, %d protocol messages, %d acks\n",
		mid.Now, mid.Epochs, mid.MessagesSent, mid.AcksReceived)

	repl, err := c.Wait(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replicated (1-FT VM):   %v (console %q)\n", repl.Time, repl.Console)
	fmt.Printf("same result?            checksums %#x / %#x, divergences %d\n",
		bare.Checksum, repl.Checksum, repl.Divergences)
	fmt.Printf("normalized performance: %.2f  (paper, 4K epochs: 6.50)\n",
		float64(repl.Time)/float64(bare.Time))
	fmt.Println()
	fmt.Println("The guest kernel, its workload, and the disk are all unmodified:")
	fmt.Println("fault tolerance was added entirely below the operating system.")
}
