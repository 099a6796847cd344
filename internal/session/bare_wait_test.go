package session

import (
	"fmt"
	"hash"
	"hash/fnv"
	"slices"
	"testing"

	"repro/internal/clientsim"
	"repro/internal/console"
	"repro/internal/guest"
	"repro/internal/machine"
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
// PC and Stats and its encoded state, TLB recency as order
// (recencyOrder), are folded into one FNV per guest. The pinned values
// were generated by the chunk-by-chunk loop, before any wait was retired
// ahead.
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
		{"disk-read", Options{Program: WorkloadProgram(guest.DiskRead(4, 8192)), Disk: disk}, 0x56b0b9059c3b43aa},
		{"disk-write", Options{Program: WorkloadProgram(guest.DiskWrite(4, 4096)), Disk: disk}, 0xe6735b4c2b8c458c},
		{"serve", Options{Program: WorkloadProgram(guest.ServeRequests(16, 50)),
			ClientLoad: &clientsim.Config{Requests: 16, Clients: 8, MeanGap: 400 * sim.Microsecond}}, 0xcb224b50fc9773c3},
		{"echo", Options{Program: WorkloadProgram(guest.TerminalEcho()), Terminal: echo}, 0x800de4e533dd8780},
		{"copy", Options{Program: WorkloadProgram(guest.TwoDiskCopy(3, 1024)), Disk: disk,
			ExtraDisks: []scsi.DiskConfig{disk}}, 0x227ce9df7b88dbde},
		{"cpu", Options{Program: WorkloadProgram(guest.CPUIntensive(3000))}, 0x2a77cbfa28cb7100},
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

// foldBare folds the bare machine's observable state into h.
func foldBare(h hash.Hash64, e *Engine) {
	m := e.bare.M
	fmt.Fprintf(h, "%d %d %#x %+v|", e.Now(), m.Cycles(), m.PC, m.Stats)
	w := snapshot.NewWriter(snapshot.TransferMagic)
	recencyOrder(m.CaptureState()).Encode(w)
	h.Write(w.Finish())
}

// recencyOrder reduces the TLB's LRU clock to the order it records, which
// is all that Run promises and all that replacement reads: each stamp
// becomes its rank among the touched slots, and the clock goes. The first
// data access of every Run call re-touches its slot, so the clock counts
// calls too, and a wait retired in one call instead of forty leaves the
// same order at a smaller stamp.
func recencyOrder(s machine.State) machine.State {
	slots := slices.Clone(s.TLB.Slots)
	for i, sl := range s.TLB.Slots {
		if sl.LastUse == 0 {
			continue
		}
		slots[i].LastUse = 1
		for _, o := range s.TLB.Slots {
			if o.LastUse != 0 && o.LastUse < sl.LastUse {
				slots[i].LastUse++
			}
		}
	}
	s.TLB.Slots, s.TLB.Stamp = slots, 0
	return s
}
