// Epochsweep: reproduce Figure 2's trade-off in miniature. Short epochs
// amortize badly (every boundary pays the coordination round-trip); long
// epochs delay interrupt delivery. The sweep prints measured normalized
// performance beside the paper's analytic model at the same epoch
// lengths, for both protocols.
package main

import (
	"context"
	"fmt"
	"log"

	hft "repro"
	"repro/internal/perfmodel"
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
	w := hft.WithWorkload(hft.CPUIntensive(12000))
	// One bare baseline serves the whole sweep: a bare run has no epochs
	// to vary.
	bare := wait(w, hft.Bare())
	np := func(el uint64, proto hft.Protocol) float64 {
		repl := wait(w, hft.WithEpochLength(el), hft.WithProtocol(proto))
		if repl.Checksum != bare.Checksum || repl.GuestPanic != 0 {
			log.Fatalf("EL %d: replicated result %#x differs from bare %#x", el, repl.Checksum, bare.Checksum)
		}
		return float64(repl.Time) / float64(bare.Time)
	}
	model := perfmodel.PaperCPU()
	modelNew := model.WithHEpoch(perfmodel.HEpochNew)

	fmt.Println("Epoch-length sweep, CPU-intensive workload (cf. Figure 2 / Table 1)")
	fmt.Println()
	fmt.Printf("%-8s  %-22s  %-22s\n", "", "original protocol", "revised protocol (§4.3)")
	fmt.Printf("%-8s  %-10s %-10s  %-10s %-10s\n", "EL", "measured", "model", "measured", "model")
	for _, el := range []uint64{1024, 2048, 4096, 8192, 16384, 32768} {
		fmt.Printf("%-8d  %-10.2f %-10.2f  %-10.2f %-10.2f\n",
			el, np(el, hft.ProtocolOld), perfmodel.NPC(model, float64(el)),
			np(el, hft.ProtocolNew), perfmodel.NPC(modelNew, float64(el)))
	}
	fmt.Println()
	fmt.Printf("HP-UX bound (385,000 instructions): model predicts %.2f — the paper's 1.24.\n",
		perfmodel.NPC(model, perfmodel.HPUXMaxEpoch))
}
