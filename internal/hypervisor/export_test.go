package hypervisor

// WithoutStorms runs f with debugNoStorm set: no hypervisor promises the
// kernel anything or retires a poll ahead while f runs — the reference
// arm of the storm tests, for those that live outside the package.
func WithoutStorms(f func()) {
	debugNoStorm = true
	defer func() { debugNoStorm = false }()
	f()
}
