// Service: the step from "replicated virtual machine" to
// "fault-tolerant network service". A guest request/response server
// runs behind the cluster's virtual NIC while a simulated client
// population drives open-loop load into it; mid-load, the primary is
// failstopped. The clients keep sending (and retransmitting — the load
// is open loop, so the blackout is observed, never masked), the backup
// promotes, re-emits the failover epoch's suppressed replies exactly
// once, and finishes the request stream. The program prints the
// client-observed latency distribution, the blackout window around the
// failover, and the proof that the reply stream is byte-identical to a
// bare (never-failing) machine's.
package main

import (
	"context"
	"fmt"
	"log"

	hft "repro"
)

func main() {
	const requests = 32
	workload := hft.ServeRequests(requests, 50)
	load := hft.ClientLoad{
		Clients: 8,
		MeanGap: 500 * hft.Microsecond,
		// Far above the healthy replicated tail, so any retransmission
		// the run reports was forced by the failover, not by ordinary
		// replication overhead.
		Timeout: 50 * hft.Millisecond,
	}

	// Baseline: the same service on one never-failing bare machine.
	bc, err := hft.NewCluster(hft.WithWorkload(workload), hft.WithClientLoad(load), hft.Bare())
	if err != nil {
		log.Fatal(err)
	}
	defer bc.Close()
	bareRes, err := bc.Wait(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	// The replicated service, primary failstopped mid-load.
	failAt := 6 * hft.Millisecond
	c, err := hft.NewCluster(
		hft.WithWorkload(workload),
		hft.WithClientLoad(load),
		hft.WithFailPrimaryAt(failAt),
		hft.WithDetectTimeout(3*hft.Millisecond),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	events := c.Events()
	res, err := c.Wait(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	lat, _ := c.ServiceLatencies()
	blackout := c.ServiceBlackout(failAt)
	c.Close() // closes the subscription after the backlog drains

	requestsSeen := 0
	for ev := range events {
		switch ev.Kind {
		case hft.EventNetRequest:
			requestsSeen++
		case hft.EventFailstop, hft.EventPromoted, hft.EventCompleted:
			fmt.Printf("  event: %v\n", ev)
		}
	}
	fmt.Printf("  event: %d net-request deliveries into the guest\n", requestsSeen)

	fmt.Printf("\nclient population:   %d/%d answered, %d retransmissions\n",
		lat.Answered, lat.Requests, lat.Retransmits)
	fmt.Printf("latency (virtual):   p50 %v, p99 %v, p99.9 %v, max %v\n",
		lat.P50, lat.P99, lat.P999, lat.Max)
	fmt.Printf("backup promoted:     %v\n", res.Promoted)
	fmt.Printf("blackout window:     %v (last reply before the failstop at %v to first reply after)\n",
		blackout, failAt)
	if res.NetReplies == bareRes.NetReplies && res.Checksum == bareRes.Checksum {
		fmt.Println()
		fmt.Println("The clients cannot tell the primary ever existed: the reply")
		fmt.Println("stream is byte-identical to the bare machine's — every request")
		fmt.Println("answered exactly once, in order, across the failover.")
	} else {
		log.Fatalf("reply stream diverged from bare (%d vs %d bytes)",
			len(res.NetReplies), len(bareRes.NetReplies))
	}
}
