// Diskbench: the paper's §4.2 I/O benchmarks. Random-block writes and
// reads against the shared dual-ported disk, bare vs replicated, at the
// paper's device service times (26 ms writes, 24.2 ms reads, 8 KiB
// blocks). Reads cost more under replication: the primary's hypervisor
// must forward each block to the backup over the Ethernet model ("9
// messages for the data and 1 for an acknowledgement").
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

func run(name string, w hft.Workload, proto hft.Protocol) {
	opts := []hft.Option{hft.WithWorkload(w), hft.WithEpochLength(4096), hft.WithProtocol(proto)}
	bare := wait(append(opts, hft.Bare())...)
	repl := wait(opts...)
	if repl.Checksum != bare.Checksum {
		log.Fatalf("%s: result mismatch", name)
	}
	fmt.Printf("%-12s bare %-12v replicated %-12v NP %.2f  (messages: %d)\n",
		name, bare.Time, repl.Time, float64(repl.Time)/float64(bare.Time), repl.MessagesSent)
}

func main() {
	fmt.Println("Disk benchmarks (paper device times; 8 KiB blocks; 4K epochs)")
	fmt.Println("paper: write NP 1.67, read NP 2.03 at this epoch length")
	fmt.Println()
	run("disk write", hft.DiskWrite(6, 8192), hft.ProtocolOld)
	run("disk read", hft.DiskRead(6, 8192), hft.ProtocolOld)
	fmt.Println()
	fmt.Println("Under the revised protocol (§4.3) the boundary waits disappear:")
	run("write (new)", hft.DiskWrite(6, 8192), hft.ProtocolNew)
	run("read (new)", hft.DiskRead(6, 8192), hft.ProtocolNew)
}
