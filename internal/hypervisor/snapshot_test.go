package hypervisor

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/scsi"
	"repro/internal/snapshot"
)

// TestRestoreStateRefusalTouchesNothing: RestoreState validates the whole
// capture before it commits any of it. A capture the hypervisor must
// refuse — a suppressed output naming a device it does not have, a shadow
// blob its device cannot decode — returns the error and leaves every
// field and every shadow as it was: the hypervisor re-captures to the
// bytes it had before the call.
func TestRestoreStateRefusalTouchesNothing(t *testing.T) {
	// The source of the capture: a backup whose guest programmed the disk
	// adapter and wrote the console, so every shadow, the suppressed
	// buffer and most fields differ from the target's.
	src := newRig(t, Config{EpochLength: 64}, scsi.DiskConfig{})
	src.boot(t, `
		.equ MMIO, 0xF0000000
		li   r1, 0x2000
		mtctl iva, r1
		li   r2, MMIO
		li   r3, 7
		stw  r3, 4(r2)        ; adapter block register
		li   r3, 0x41
		stw  r3, 0x1000(r2)   ; console byte, suppressed
	spin:
		b spin
	`)
	src.runEpochs(t, 3)
	good := src.hv.CaptureState()
	if len(good.Suppressed) == 0 {
		t.Fatal("the source capture holds no suppressed output")
	}

	dst := newRig(t, Config{EpochLength: 64}, scsi.DiskConfig{})
	dst.boot(t, `
		addi r1, r0, 1
	spin:
		b spin
	`)
	dst.runEpochs(t, 1)
	encode := func() []byte {
		w := snapshot.NewWriter(snapshot.TransferMagic)
		hs := dst.hv.CaptureState()
		hs.Code(w.Codec())
		return w.Finish()
	}
	before := encode()

	unknownDevice := good
	unknownDevice.Suppressed = append([]SuppressedOutputState(nil), good.Suppressed...)
	unknownDevice.Suppressed[len(unknownDevice.Suppressed)-1].Dev = 0x7000
	// The console is the second device: the adapter's shadow has been
	// written when this one refuses.
	badShadow := good
	badShadow.Devices = append([]DeviceState(nil), good.Devices...)
	badShadow.Devices[1].Data = []byte{1, 2, 3}

	for _, c := range []struct {
		name, want string
		s          State
	}{
		{"unknown suppressed device", "unknown device 0x7000", unknownDevice},
		{"undecodable shadow", `device "console"`, badShadow},
	} {
		err := dst.hv.RestoreState(c.s)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: RestoreState = %v, want an error naming %s", c.name, err, c.want)
		}
		if after := encode(); !bytes.Equal(before, after) {
			t.Errorf("%s: the refused restore changed the hypervisor: it re-captures to different bytes", c.name)
		}
	}

	if err := dst.hv.RestoreState(good); err != nil {
		t.Fatalf("RestoreState of the unmodified capture: %v", err)
	}
	if bytes.Equal(before, encode()) {
		t.Error("the accepted restore changed nothing")
	}
}
