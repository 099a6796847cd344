package hft_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"

	hft "repro"
)

// A Cluster is a long-lived session: create it, drive it, observe it.
// Here the paper's CPU-intensive workload runs on a 1-fault-tolerant
// virtual machine to completion.
func ExampleNewCluster() {
	c, err := hft.NewCluster(
		hft.WithWorkload(hft.CPUIntensive(3000)),
		hft.WithEpochLength(2048),
		hft.WithProtocol(hft.ProtocolOld),
		hft.WithLink(hft.Ethernet10()),
	)
	if err != nil {
		panic(err)
	}
	defer c.Close()

	res, err := c.Wait(context.Background())
	if err != nil {
		panic(err)
	}
	fmt.Println("completed cleanly:", res.GuestPanic == 0)
	fmt.Println("failover needed:", res.Promoted)
	// Output:
	// completed cleanly: true
	// failover needed: false
}

// Failures are injected live, while the session runs: advance to an
// interesting instant, failstop the primary, and let the backup finish
// the workload. The result matches what a single never-failing machine
// produces.
func ExampleCluster_FailPrimary() {
	opts := []hft.Option{
		hft.WithWorkload(hft.DiskWrite(3, 4096)),
		hft.WithDiskLatency(500*hft.Microsecond, 600*hft.Microsecond),
	}
	// The same options plus Bare() run the unreplicated baseline.
	bc, err := hft.NewCluster(append(opts, hft.Bare())...)
	if err != nil {
		panic(err)
	}
	defer bc.Close()
	bare, err := bc.Wait(context.Background())
	if err != nil {
		panic(err)
	}

	c, err := hft.NewCluster(opts...)
	if err != nil {
		panic(err)
	}
	defer c.Close()

	// Run 5 ms into the workload — mid-epoch, with I/O in flight — then
	// kill the primary's processor.
	if _, err := c.RunFor(5 * hft.Millisecond); err != nil {
		panic(err)
	}
	c.FailPrimary()

	res, err := c.Wait(context.Background())
	if err != nil {
		panic(err)
	}
	fmt.Println("backup promoted:", res.Promoted)
	fmt.Println("result matches bare machine:", res.Checksum == bare.Checksum)
	// Output:
	// backup promoted: true
	// result matches bare machine: true
}

// The Events stream surfaces protocol milestones as they happen; a
// Snapshot summarizes any instant. Here a session is paused at its
// fifth epoch commit by a predicate.
func ExampleCluster_RunUntil() {
	c, err := hft.NewCluster(
		hft.WithWorkload(hft.CPUIntensive(6000)),
		hft.WithEpochLength(1024),
	)
	if err != nil {
		panic(err)
	}
	defer c.Close()

	snap, err := c.RunUntil(func(s hft.Snapshot) bool { return s.Epochs >= 5 })
	if err != nil {
		panic(err)
	}
	fmt.Println("paused with at least 5 epochs:", snap.Epochs >= 5)
	fmt.Println("workload still running:", !snap.Done)
	// Output:
	// paused with at least 5 epochs: true
	// workload still running: true
}

// The repair half of the fault-tolerance story: after a failover the
// cluster runs unprotected; AddBackup reintegrates a new backup by
// shipping the acting coordinator's complete virtual-machine state
// through the simulated link. The reintegrated node survives a SECOND
// failstop that would otherwise have ended the computation.
func ExampleCluster_AddBackup() {
	c, err := hft.NewCluster(
		hft.WithWorkload(hft.CPUIntensive(30000)),
		hft.WithProtocol(hft.ProtocolNew),
	)
	if err != nil {
		panic(err)
	}
	defer c.Close()

	// Failure #1: the primary dies; the backup takes over.
	if _, err := c.RunFor(5 * hft.Millisecond); err != nil {
		panic(err)
	}
	c.FailPrimary()
	if _, err := c.RunUntil(func(s hft.Snapshot) bool { return s.Promoted }); err != nil {
		panic(err)
	}

	// Repair: a new backup joins by live state transfer and falls into
	// lockstep once the image lands.
	n, err := c.AddBackup()
	if err != nil {
		panic(err)
	}
	fmt.Println("joined as node:", n)
	if _, err := c.RunFor(40 * hft.Millisecond); err != nil {
		panic(err)
	}

	// Failure #2: only the reintegrated backup can finish the workload.
	if err := c.FailBackup(1); err != nil {
		panic(err)
	}
	res, err := c.Wait(context.Background())
	if err != nil {
		panic(err)
	}
	fmt.Println("completed cleanly:", res.GuestPanic == 0)
	fmt.Println("acting node:", c.Snapshot().Acting)
	// Output:
	// joined as node: 2
	// completed cleanly: true
	// acting node: 2
}

// A session checkpoints to any io.Writer and restores bit-identically:
// the snapshot carries the configuration, the perturbation journal and
// a complete state capture that Restore verifies after replay. Here
// the original and the restored session finish with identical results.
func ExampleCluster_Save() {
	c, err := hft.NewCluster(hft.WithWorkload(hft.CPUIntensive(8000)))
	if err != nil {
		panic(err)
	}
	defer c.Close()

	if _, err := c.RunFor(10 * hft.Millisecond); err != nil {
		panic(err)
	}
	c.FailPrimary() // journalled: the restore replays it at the same instant

	var checkpoint bytes.Buffer
	if err := c.Save(&checkpoint); err != nil {
		panic(err)
	}

	restored, err := hft.Restore(&checkpoint)
	if err != nil {
		panic(err)
	}
	defer restored.Close()

	res, err := c.Wait(context.Background())
	if err != nil {
		panic(err)
	}
	res2, err := restored.Wait(context.Background())
	if err != nil {
		panic(err)
	}
	fmt.Println("identical completion:", res == res2)
	fmt.Println("failover replayed:", res2.Promoted)
	// Output:
	// identical completion: true
	// failover replayed: true
}

// The Events stream delivers protocol milestones as first-class
// values; each subscription is independent and unbounded, so a slow
// consumer never stalls the simulation. Here the stream observes a
// failstop at 5 ms and the resulting promotion.
func ExampleCluster_Events() {
	c, err := hft.NewCluster(hft.WithWorkload(hft.CPUIntensive(20000)))
	if err != nil {
		panic(err)
	}

	events := c.Events()
	if _, err := c.RunFor(5 * hft.Millisecond); err != nil {
		panic(err)
	}
	c.FailPrimary()
	if _, err := c.Wait(context.Background()); err != nil {
		panic(err)
	}
	c.Close() // closes the subscription after the backlog drains

	var kinds []string
	for ev := range events {
		switch ev.Kind {
		case hft.EventFailstop, hft.EventPromoted, hft.EventCompleted:
			kinds = append(kinds, ev.Kind.String())
		}
	}
	fmt.Println(strings.Join(kinds, " -> "))
	// Output:
	// failstop -> promoted -> completed
}

// An observer receives every event synchronously, in order, on the
// goroutine driving the cluster: no channel and no goroutine, so its
// state is complete the moment the run returns. Here it measures the
// commit gap a failstop at 5 ms causes: from the primary's last epoch
// commit to the promoted backup's first, failure detection included.
func ExampleCluster_Observe() {
	c, err := hft.NewCluster(hft.WithWorkload(hft.CPUIntensive(20000)))
	if err != nil {
		panic(err)
	}
	defer c.Close()

	var lastCommit, outage hft.Duration
	failed := false
	c.Observe(func(ev hft.Event) {
		switch ev.Kind {
		case hft.EventFailstop:
			failed = true
		case hft.EventEpochCommitted:
			if failed && outage == 0 {
				outage = ev.Time - lastCommit
			}
			lastCommit = ev.Time
		}
	})
	if _, err := c.RunFor(5 * hft.Millisecond); err != nil {
		panic(err)
	}
	c.FailPrimary()
	if _, err := c.Wait(context.Background()); err != nil {
		panic(err)
	}
	fmt.Println("commit gap across the failover:", outage)
	// Output:
	// commit gap across the failover: 50.435ms
}

// A replicated network service: the ServeRequests workload answers
// requests arriving through the cluster's virtual NIC from a simulated
// client population (WithClientLoad). The primary is failstopped
// mid-load; the clients observe a finite blackout, the backup re-emits
// the failover epoch's suppressed replies exactly once, and the reply
// stream matches what one never-failing machine produces.
func ExampleNewCluster_service() {
	failAt := 6 * hft.Millisecond
	opts := []hft.Option{
		hft.WithWorkload(hft.ServeRequests(24, 50)),
		hft.WithClientLoad(hft.ClientLoad{Clients: 8, MeanGap: 500 * hft.Microsecond, Timeout: 50 * hft.Millisecond}),
		hft.WithDetectTimeout(3 * hft.Millisecond),
	}

	bc, err := hft.NewCluster(append(opts, hft.Bare())...)
	if err != nil {
		panic(err)
	}
	defer bc.Close()
	bare, err := bc.Wait(context.Background())
	if err != nil {
		panic(err)
	}

	c, err := hft.NewCluster(opts...)
	if err != nil {
		panic(err)
	}
	defer c.Close()

	if _, err := c.RunFor(failAt); err != nil {
		panic(err)
	}
	c.FailPrimary()
	res, err := c.Wait(context.Background())
	if err != nil {
		panic(err)
	}
	lat, _ := c.ServiceLatencies()
	fmt.Println("backup promoted:", res.Promoted)
	fmt.Printf("answered: %d/%d\n", lat.Answered, lat.Requests)
	fmt.Println("finite blackout observed:", c.ServiceBlackout(failAt) > 0)
	fmt.Println("reply stream matches bare machine:", res.NetReplies == bare.NetReplies)
	// Output:
	// backup promoted: true
	// answered: 24/24
	// finite blackout observed: true
	// reply stream matches bare machine: true
}

// SetLinkQuality perturbs a running cluster's link: here 10 Mbps
// Ethernet degrades tenfold mid-run (a failing transceiver, say),
// epochs stretch as the boundary acks crawl, and then the primary
// failstops on top of it. The backup promotes over the degraded link
// and finishes with the bare machine's result: a degraded link slows
// the virtual machine, it never corrupts it.
func ExampleCluster_SetLinkQuality() {
	opts := []hft.Option{hft.WithWorkload(hft.DiskWrite(6, 8192)), hft.WithEpochLength(4096)}
	bc, err := hft.NewCluster(append(opts, hft.Bare())...)
	if err != nil {
		panic(err)
	}
	defer bc.Close()
	bare, err := bc.Wait(context.Background())
	if err != nil {
		panic(err)
	}

	c, err := hft.NewCluster(opts...)
	if err != nil {
		panic(err)
	}
	defer c.Close()

	healthy, err := c.RunFor(30 * hft.Millisecond)
	if err != nil {
		panic(err)
	}
	if err := c.SetLinkQuality(hft.LinkQuality{BitsPerSecond: 1_000_000, Latency: 500 * hft.Microsecond}); err != nil {
		panic(err)
	}
	degraded, err := c.RunFor(30 * hft.Millisecond)
	if err != nil {
		panic(err)
	}
	c.FailPrimary()
	res, err := c.Wait(context.Background())
	if err != nil {
		panic(err)
	}
	fmt.Println("epochs in 30 ms, healthy:", healthy.Epochs)
	fmt.Println("epochs in 30 ms, degraded:", degraded.Epochs-healthy.Epochs)
	fmt.Println("backup promoted:", res.Promoted)
	fmt.Println("uncertain interrupts synthesized:", res.UncertainSynthesized)
	fmt.Println("result matches bare machine:", res.Checksum == bare.Checksum && res.GuestPanic == 0)
	// Output:
	// epochs in 30 ms, healthy: 24
	// epochs in 30 ms, degraded: 14
	// backup promoted: true
	// uncertain interrupts synthesized: 0
	// result matches bare machine: true
}

// WithBackups generalizes the pair to t-fault tolerance (§2: "n
// processors implement a system that can tolerate n−1 faults"). A
// 2-fault-tolerant virtual machine survives the loss of both the
// primary and the first promoted backup: promotions cascade by
// priority, and each new primary replays its delivered-interrupt
// archive so the remaining replicas follow its stream.
func ExampleWithBackups() {
	opts := []hft.Option{
		hft.WithWorkload(hft.DiskWrite(5, 8192)),
		hft.WithEpochLength(4096),
		hft.WithBackups(2),
		hft.WithDiskLatency(2*hft.Millisecond, 3*hft.Millisecond),
	}
	bc, err := hft.NewCluster(append(opts, hft.Bare())...)
	if err != nil {
		panic(err)
	}
	defer bc.Close()
	bare, err := bc.Wait(context.Background())
	if err != nil {
		panic(err)
	}

	c, err := hft.NewCluster(opts...)
	if err != nil {
		panic(err)
	}
	defer c.Close()
	// The primary fails at 2 ms; backup 1, promoted in its place, fails
	// at 120 ms. Backup 2 must finish alone.
	if _, err := c.RunFor(2 * hft.Millisecond); err != nil {
		panic(err)
	}
	c.FailPrimary()
	if _, err := c.RunFor(118 * hft.Millisecond); err != nil {
		panic(err)
	}
	if err := c.FailBackup(1); err != nil {
		panic(err)
	}
	res, err := c.Wait(context.Background())
	if err != nil {
		panic(err)
	}
	fmt.Println("acting node:", c.Snapshot().Acting)
	fmt.Println("uncertain interrupts synthesized:", res.UncertainSynthesized)
	fmt.Printf("console: %q\n", res.Console)
	fmt.Println("result matches bare machine:", res.Checksum == bare.Checksum && res.GuestPanic == 0)
	// Output:
	// acting node: 2
	// uncertain interrupts synthesized: 0
	// console: "W\n"
	// result matches bare machine: true
}

// Any LinkParams literal is a complete link: here a 1 Gbps
// low-latency interconnect replaces the paper's two built-ins. The
// same mechanism models degraded serial links, jumbo frames, or
// per-message setup costs.
func ExampleLinkParams() {
	fast := hft.LinkParams{
		Name:          "gige",
		BitsPerSecond: 1_000_000_000,
		Latency:       5 * hft.Microsecond,
		MTU:           9000,
	}
	c, err := hft.NewCluster(
		hft.WithWorkload(hft.CPUIntensive(5000)),
		hft.WithLink(fast),
	)
	if err != nil {
		panic(err)
	}
	defer c.Close()
	res, err := c.Wait(context.Background())
	if err != nil {
		panic(err)
	}
	fmt.Println("completed cleanly:", res.GuestPanic == 0)
	// Output:
	// completed cleanly: true
}
