package hypervisor

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/scsi"
)

// digestField is one state word the replication tripwire covers, and
// whether it is the machine's (Machine.Digest covers it too) or the
// hypervisor's virtual state (Hypervisor.Digest only).
type digestField struct {
	name    string
	p       *uint32
	machine bool
}

// digestRig returns a hypervisor whose covered fields each hold a
// distinct nonzero value, so no flip can turn one field into a copy of
// another, and the list of those fields.
func digestRig(t *testing.T) (*rig, []digestField) {
	r := newRig(t, Config{EpochLength: 1024}, scsi.DiskConfig{})
	m, hv := r.m, r.hv
	var fs []digestField
	for i := range m.Regs {
		fs = append(fs, digestField{isa.Reg(i).String(), &m.Regs[i], true})
	}
	fs = append(fs, digestField{"pc", &m.PC, true}, digestField{"psw", &m.PSW, true})
	for _, cr := range []isa.CR{isa.CRIVA, isa.CRISR, isa.CRIOR, isa.CRIPSW, isa.CRIIA, isa.CRPTBR} {
		fs = append(fs, digestField{cr.String(), &m.CRs[cr], true})
	}
	fs = append(fs, digestField{"vpsw", &hv.vPSW, false})
	for _, cr := range []isa.CR{isa.CRIVA, isa.CREIEM, isa.CREIRR, isa.CRIIA} {
		fs = append(fs, digestField{"v" + cr.String(), &hv.vCR[cr], false})
	}
	for i, f := range fs {
		*f.p = 0x9E3779B9 * uint32(i+1)
	}
	return r, fs
}

// TestDigestCoverage pins what the replication tripwire sees. Flipping
// any one bit of a covered field — the 32 registers, PC, PSW, the CRs
// IVA, ISR, IOR, IPSW, IIA and PTBR, the virtual PSW and the four virtual
// CRs IVA, EIEM, EIRR and IIA — changes Hypervisor.Digest, and
// Machine.Digest too where the field is the machine's. The machine's
// environment CRs — TOD, EIRR, EIEM, ITMR and RCTR — move neither, in
// any bit.
func TestDigestCoverage(t *testing.T) {
	r, fs := digestRig(t)
	m, hv := r.m, r.hv
	m0, h0 := m.Digest(), hv.Digest()
	for _, f := range fs {
		for bit := 0; bit < 32; bit++ {
			*f.p ^= 1 << bit
			if f.machine && m.Digest() == m0 {
				t.Errorf("%s bit %d: Machine.Digest did not move", f.name, bit)
			}
			if hv.Digest() == h0 {
				t.Errorf("%s bit %d: Hypervisor.Digest did not move", f.name, bit)
			}
			*f.p ^= 1 << bit
		}
	}
	for _, cr := range []isa.CR{isa.CRTOD, isa.CREIRR, isa.CREIEM, isa.CRITMR, isa.CRRCTR} {
		m.CRs[cr] = ^m.CRs[cr]
		if m.Digest() != m0 || hv.Digest() != h0 {
			t.Errorf("machine %s moved the digest", cr)
		}
		m.CRs[cr] = ^m.CRs[cr]
	}
}

// TestDigestVirtualCRsDoNotCancel: the virtual PSW and CRs are lanes of
// the digest's word hash, not shifted copies XORed onto the machine's
// digest — under which IVA bit 1 (shifted left by one) and EIEM bit 0
// (by two) both landed on bit 2, so flipping the two together left the
// digest unchanged.
func TestDigestVirtualCRsDoNotCancel(t *testing.T) {
	r, _ := digestRig(t)
	hv := r.hv
	before := hv.Digest()
	hv.vCR[isa.CRIVA] ^= 1 << 1
	hv.vCR[isa.CREIEM] ^= 1 << 0
	if hv.Digest() == before {
		t.Fatal("flipping virtual IVA bit 1 with virtual EIEM bit 0 left the digest unchanged")
	}
}
