package device

import "testing"

func TestWindowContains(t *testing.T) {
	w := Window{Base: 0x1000, Size: 0x20}
	for off, want := range map[uint32]bool{
		0x0FFF: false, 0x1000: true, 0x101F: true, 0x1020: false, 0x0: false,
	} {
		if got := w.Contains(off); got != want {
			t.Errorf("Contains(%#x) = %v, want %v", off, got, want)
		}
	}
}

func TestCompletionWireSize(t *testing.T) {
	if got := (Completion{}).WireSize(); got != 32 {
		t.Errorf("empty completion wire size = %d, want 32", got)
	}
	if got := (Completion{Data: make([]byte, 8192)}).WireSize(); got != 32+8192 {
		t.Errorf("8 KiB completion wire size = %d", got)
	}
}
