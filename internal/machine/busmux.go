package machine

import (
	"cmp"
	"fmt"
	"slices"
)

// BusMux routes MMIO accesses within the machine's MMIO window to
// multiple devices by offset range. It implements MMIOHandler.
type BusMux struct {
	ranges []busRange
}

type busRange struct {
	base, size uint32
	h          MMIOHandler
	name       string
}

// NewBusMux returns an empty multiplexer.
func NewBusMux() *BusMux { return &BusMux{} }

// Map attaches a device at [base, base+size) within the MMIO window.
// Offsets passed to the device are relative to base. Overlapping ranges
// panic (wiring error).
func (b *BusMux) Map(name string, base, size uint32, h MMIOHandler) {
	for _, r := range b.ranges {
		if base < r.base+r.size && r.base < base+size {
			panic(fmt.Sprintf("machine: MMIO range %s [%#x,%#x) overlaps %s [%#x,%#x)",
				name, base, base+size, r.name, r.base, r.base+r.size))
		}
	}
	b.ranges = append(b.ranges, busRange{base: base, size: size, h: h, name: name})
	slices.SortFunc(b.ranges, func(x, y busRange) int { return cmp.Compare(x.base, y.base) })
}

// find locates the device covering off.
func (b *BusMux) find(off uint32) (busRange, bool) {
	for _, r := range b.ranges {
		if off >= r.base && off-r.base < r.size {
			return r, true
		}
	}
	return busRange{}, false
}

// MMIOLoad implements MMIOHandler.
func (b *BusMux) MMIOLoad(off uint32, size int) (uint32, error) {
	r, ok := b.find(off)
	if !ok {
		return 0, fmt.Errorf("machine: no device at MMIO offset %#x", off)
	}
	return r.h.MMIOLoad(off-r.base, size)
}

// MMIOStore implements MMIOHandler.
func (b *BusMux) MMIOStore(off uint32, size int, v uint32) error {
	r, ok := b.find(off)
	if !ok {
		return fmt.Errorf("machine: no device at MMIO offset %#x", off)
	}
	return r.h.MMIOStore(off-r.base, size, v)
}

// MMIOPure implements MMIOHandler: the device at off answers for itself.
func (b *BusMux) MMIOPure(off uint32) bool {
	r, ok := b.find(off)
	return ok && r.h.MMIOPure(off-r.base)
}
