package hypervisor

// Guards for the ordered device table: the per-epoch delivery and P7
// scan paths iterate a sorted-at-attach table — the historical
// adapterBases() rebuilt and insertion-sorted a slice on EVERY
// delivery, which these tests pin out of existence: the hot paths must
// not allocate, and the scan must scale linearly in attached devices
// without per-call setup.

import (
	"fmt"
	"testing"

	"repro/internal/console"
	"repro/internal/device"
	"repro/internal/machine"
	"repro/internal/scsi"
	"repro/internal/sim"
)

// newDevTableRig wires a machine with nDisks adapters plus a console
// port, mirroring the platform's device-table layout.
func newDevTableRig(tb testing.TB, nDisks int) (*Hypervisor, *sim.Kernel) {
	tb.Helper()
	k := sim.NewKernel(1)
	tb.Cleanup(k.Shutdown)
	m := machine.New(machine.Config{})
	mux := machine.NewBusMux()
	cons := console.New()
	for i := 0; i < nDisks; i++ {
		base := uint32(0x2000 * i)
		disk := scsi.NewDisk(k, scsi.DiskConfig{})
		ad := disk.NewAdapter(0, m, func() {})
		mux.Map(fmt.Sprintf("scsi%d", i), base, scsi.AdapterWindow, ad)
	}
	mux.Map("console", 0x2000*uint32(nDisks), console.Window, cons.NewPort(nil))
	m.Bus = mux
	hv := New(m, Config{EpochLength: 1024})
	for i := 0; i < nDisks; i++ {
		hv.AttachDevice(device.Window{
			ID: fmt.Sprintf("disk%d", i), Base: uint32(0x2000 * i),
			Size: scsi.AdapterWindow, Line: uint(1 + i),
		}, scsi.NewShadow())
	}
	hv.AttachDevice(device.Window{
		ID: "console", Base: 0x2000 * uint32(nDisks), Size: console.Window,
		Line: uint(1 + nDisks), Unsolicited: true,
	}, console.NewShadow())
	return hv, k
}

func TestDeviceTableSortedAtAttach(t *testing.T) {
	// Attach out of order; the table must come out base-sorted.
	hv := New(machine.New(machine.Config{}), Config{})
	hv.AttachDevice(device.Window{ID: "b", Base: 0x2000, Size: 0x20, Line: 3}, scsi.NewShadow())
	hv.AttachDevice(device.Window{ID: "c", Base: 0x4000, Size: 0x20, Line: 4}, scsi.NewShadow())
	hv.AttachDevice(device.Window{ID: "a", Base: 0x0000, Size: 0x20, Line: 1}, scsi.NewShadow())
	for i, want := range []string{"a", "b", "c"} {
		if hv.devs[i].win.ID != want {
			t.Fatalf("devs[%d] = %q, want %q", i, hv.devs[i].win.ID, want)
		}
	}
	// Overlapping windows are a wiring error.
	defer func() {
		if recover() == nil {
			t.Error("overlapping attach did not panic")
		}
	}()
	hv.AttachDevice(device.Window{ID: "x", Base: 0x2010, Size: 0x20}, scsi.NewShadow())
}

// TestDevAtMatchesScan: devAt tries the device it matched last before
// the table. Whatever the access pattern — one device polled, two
// alternating, an offset in the gap after a window or past every window
// right after a hit, a device attached after a hit — it answers what
// the plain scan over the table answers.
func TestDevAtMatchesScan(t *testing.T) {
	hv, _ := newDevTableRig(t, 3) // disks at 0, 0x2000, 0x4000; console at 0x6000
	scan := func(off uint32) *shadowDev {
		for _, d := range hv.devs {
			if d.win.Contains(off) {
				return d
			}
		}
		return nil
	}
	check := func(off uint32) {
		t.Helper()
		if got, want := hv.devAt(off), scan(off); got != want {
			t.Fatalf("devAt(%#x) = %v, the scan finds %v (last hit %v)", off, got, want, hv.lastDev)
		}
	}
	last := hv.devs[len(hv.devs)-1].win
	offs := []uint32{
		0x10, 0x10, 0x14, // one device, polled
		0x2008, 0x10, 0x2008, 0x10, 0x6000, 0x4004, 0x6000, // alternating devices
		scsi.AdapterWindow, 0x10, 0x1fff, // the gap behind a window, after a hit on it
		0x2000 - 1, 0x2000, 0x2000 + scsi.AdapterWindow - 1, 0x2000 + scsi.AdapterWindow, // a window's edges
		last.Base + last.Size - 1, last.Base + last.Size, 0x10, 0xFFFFF, 0xFFFFFFFF, // past every window
	}
	for _, off := range offs {
		check(off)
	}
	for _, a := range offs {
		for _, b := range offs {
			check(a)
			check(b)
		}
	}
	// A device attached after a hit on its neighbour.
	check(0x10)
	hv.AttachDevice(device.Window{ID: "late", Base: 0x1000, Size: 0x20, Line: 9}, scsi.NewShadow())
	if hv.lastDev != nil {
		t.Error("AttachDevice kept the last-hit device across a table change")
	}
	for _, off := range append(offs, 0x1000, 0x101f, 0x1020) {
		check(off)
	}
}

// TestEpochDeliveryAllocFree pins the benchmark-guarded property: with
// the device order cached at attach time, a boundary's delivery plus
// the P7 scan allocate nothing, at any device count.
func TestEpochDeliveryAllocFree(t *testing.T) {
	hv, _ := newDevTableRig(t, 6)
	// Warm the staging buffer once.
	hv.BufferInterrupt(Interrupt{Line: 0, Timer: true, Dev: NoDevice})
	hv.DeliverBuffered()
	avg := testing.AllocsPerRun(200, func() {
		hv.BufferInterrupt(Interrupt{Line: 0, Timer: true, Dev: NoDevice})
		hv.DeliverBuffered()
		hv.OutstandingUncertain()
	})
	if avg != 0 {
		t.Errorf("per-epoch delivery path allocates %.1f objects/op, want 0", avg)
	}
}

// BenchmarkEpochDelivery measures the boundary delivery + P7 scan with
// a populated device table (the path adapterBases() used to rebuild a
// sorted slice on).
func BenchmarkEpochDelivery(b *testing.B) {
	for _, nDisks := range []int{1, 4, 14} {
		b.Run(fmt.Sprintf("disks=%d", nDisks), func(b *testing.B) {
			hv, _ := newDevTableRig(b, nDisks)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hv.BufferInterrupt(Interrupt{Line: 0, Timer: true, Dev: NoDevice})
				hv.DeliverBuffered()
				hv.OutstandingUncertain()
			}
		})
	}
}
