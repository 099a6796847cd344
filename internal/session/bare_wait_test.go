package session

import (
	"fmt"
	"hash"
	"hash/fnv"
	"testing"

	"repro/internal/clientsim"
	"repro/internal/console"
	"repro/internal/guest"
	"repro/internal/scsi"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// TestBareWaitSliced pins what a bare guest's machine holds at every pause
// of a sliced run. Each guest below waits — on a disk completion flag, a
// NIC or console status register — except CPUIntensive, which never does;
// hypervisor.Bare retires such a wait ahead in closed form, up to the
// kernel's next loud instant, which the RunUntil bound behind every RunFor
// is one of. A pause is where running a chunk too many, or one too few,
// shows: RunFor slices of 37 µs, 53 µs and 1 ms + 3 ns put it at many
// phases of the 5.12 µs chunk lattice, and one unsliced run adds the
// completion state. (hypervisor's TestBareWaitAhead adds pauses aimed one
// nanosecond before a chunk.) At every pause the virtual time, the machine's cycles,
// PC and Stats and its encoded state — TLB recency as order, as the
// capture writes it — are folded into one FNV per guest. The pinned
// values were generated by the chunk-by-chunk loop, before any wait was
// retired ahead, and before the prefix rule cut traces at the budget
// (machine/trace.go).
func TestBareWaitSliced(t *testing.T) {
	disk := scsi.DiskConfig{ReadLatency: 900 * sim.Microsecond, WriteLatency: 1100 * sim.Microsecond}
	var echo []console.Input
	for i := range 6 {
		echo = append(echo, console.Input{At: sim.Time(i+1) * 700 * sim.Microsecond, Data: []byte{byte('a' + i)}})
	}
	echo = append(echo, console.Input{At: 7 * 700 * sim.Microsecond, Data: []byte{guest.TermEOT}})
	for _, c := range []struct {
		name string
		o    Options
		want uint64
	}{
		{"disk-read", Options{Program: WorkloadProgram(guest.DiskRead(4, 8192)), Disk: disk}, 0xc8c16b5a4e93b369},
		{"disk-write", Options{Program: WorkloadProgram(guest.DiskWrite(4, 4096)), Disk: disk}, 0xb5d63d96246eb8d8},
		{"serve", Options{Program: WorkloadProgram(guest.ServeRequests(16, 50)),
			ClientLoad: &clientsim.Config{Requests: 16, Clients: 8, MeanGap: 400 * sim.Microsecond}}, 0xf323d842efdd1d93},
		{"echo", Options{Program: WorkloadProgram(guest.TerminalEcho()), Terminal: echo}, 0xf26044ed711b248f},
		{"copy", Options{Program: WorkloadProgram(guest.TwoDiskCopy(3, 1024)), Disk: disk,
			ExtraDisks: []scsi.DiskConfig{disk}}, 0x1e541af2452daf6c},
		{"cpu", Options{Program: WorkloadProgram(guest.CPUIntensive(3000))}, 0xfee72c09143ddb33},
	} {
		t.Run(c.name, func(t *testing.T) {
			c.o.Seed, c.o.Bare = 1, true
			h := fnv.New64a()
			pauses := 0
			for _, slice := range []sim.Time{37 * sim.Microsecond, 53 * sim.Microsecond, sim.Millisecond + 3, 0} {
				e := New(c.o)
				if slice == 0 {
					if err := e.RunToCompletion(nil); err != nil {
						t.Fatal(err)
					}
					foldBare(h, e)
				}
				for !e.Done() {
					if err := e.RunFor(slice); err != nil {
						t.Fatal(err)
					}
					if e.Now() > sim.Second {
						t.Fatalf("slice %v: no completion by %v", slice, e.Now())
					}
					foldBare(h, e)
					pauses++
				}
				e.Close()
			}
			t.Logf("bare-wait-fnv %016x over %d pauses", h.Sum64(), pauses)
			if got := h.Sum64(); got != c.want {
				t.Errorf("bare-wait-fnv %016x, pinned %016x", got, c.want)
			}
		})
	}
}

// foldBare folds the bare machine's observable state into h: the body of
// its encoding, without the header and trailer, so that a format version
// moves no pin.
func foldBare(h hash.Hash64, e *Engine) {
	m := e.bare.M
	fmt.Fprintf(h, "%d %d %#x %+v|", e.Now(), m.Cycles(), m.PC, m.Stats)
	w := snapshot.NewWriter(snapshot.TransferMagic)
	ms := m.CaptureState()
	ms.Code(w.Codec())
	b := w.Finish()
	h.Write(b[len(snapshot.TransferMagic)+4 : len(b)-8])
}
