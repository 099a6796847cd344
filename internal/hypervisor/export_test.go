package hypervisor

// WithoutStorms runs f with debugNoStorm set: no hypervisor promises the
// kernel anything or retires a poll ahead while f runs — the reference
// arm of the storm tests, for those that live outside the package. It
// restores what was set before, so it nests, and under -tags spec it
// leaves the reference arm on.
func WithoutStorms(f func()) {
	prev := debugNoStorm
	debugNoStorm = true
	defer func() { debugNoStorm = prev }()
	f()
}
