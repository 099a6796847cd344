// Linkstorm: one long-lived session, two live perturbations. The
// cluster starts on a healthy 10 Mbps Ethernet; mid-run the link
// degrades to 1 Mbps with 500 µs latency (a failing transceiver, say),
// epochs stretch accordingly — and then the primary failstops on top of
// it. The backup promotes over the degraded link and finishes the
// workload with the exact bare-machine result.
//
// None of this requires pre-scheduling: the session API perturbs a
// RUNNING cluster, the way the paper's prototype was abused in the lab.
package main

import (
	"context"
	"fmt"
	"log"

	hft "repro"
)

func main() {
	w := hft.DiskWrite(6, 8192)
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
		hft.WithLink(hft.Ethernet10()),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	events := c.Events()
	go func() {
		for ev := range events {
			switch ev.Kind {
			case hft.EventLinkQualityChanged, hft.EventFailstop,
				hft.EventPromoted, hft.EventCompleted:
				fmt.Printf("  event: %v\n", ev)
			}
		}
	}()

	// Phase 1: healthy cluster.
	healthy, err := c.RunFor(30 * hft.Millisecond)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("healthy:  %d epochs in 30ms\n", healthy.Epochs)

	// Phase 2: the link degrades 10x while the cluster runs.
	if err := c.SetLinkQuality(hft.LinkQuality{
		BitsPerSecond: 1_000_000,
		Latency:       500 * hft.Microsecond,
	}); err != nil {
		log.Fatal(err)
	}
	degraded, err := c.RunFor(30 * hft.Millisecond)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("degraded: %d epochs in the next 30ms (acks crawl; P2 waits stretch)\n",
		degraded.Epochs-healthy.Epochs)

	// Phase 3: the primary dies on the degraded link.
	c.FailPrimary()
	res, err := c.Wait(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("promoted: %v, %d uncertain interrupt(s) synthesized (P7)\n",
		res.Promoted, res.UncertainSynthesized)
	fmt.Printf("result:   %#x vs bare %#x in %v\n", res.Checksum, bare.Checksum, res.Time)
	if res.Checksum != bare.Checksum || res.GuestPanic != 0 {
		log.Fatalf("INCONSISTENT RESULT (panic=%#x)", res.GuestPanic)
	}
	fmt.Println()
	fmt.Println("A degraded link slows the virtual machine; it never corrupts it.")
	fmt.Println("Failstop on top of degradation still yields the single-machine result.")
}
