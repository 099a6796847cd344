package session

// DrainArenas takes every idle arena off the shelf, so that the next
// cluster to boot builds over a new one; restore puts them back.
func DrainArenas() (restore func()) {
	held := takeIdle()
	return func() { putBack(held) }
}

// IdleArenas counts the arenas waiting on the shelf.
func IdleArenas() int {
	held := takeIdle()
	putBack(held)
	return len(held)
}

// takeIdle empties the shelf, the arena on top first.
func takeIdle() []*arena {
	var held []*arena
	for a, ok := arenas.Get(); ok; a, ok = arenas.Get() {
		held = append(held, a)
	}
	return held
}

// putBack undoes takeIdle, restoring the shelf's order.
func putBack(held []*arena) {
	for i := len(held) - 1; i >= 0; i-- {
		arenas.Put(held[i])
	}
}
