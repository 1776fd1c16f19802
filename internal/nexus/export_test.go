package nexus

// SetFrameHook lets an external test watch the frame pool: fn sees every
// pooled buffer, named by the address of its first byte, as it is handed out
// (put false) and as it is taken back (put true). nil removes the hook.
func SetFrameHook(fn func(buf *byte, put bool)) {
	if fn == nil {
		frameHook.Store(nil)
		return
	}
	h := func(fb *frameBuf, put bool) { fn(&fb.b[0], put) }
	frameHook.Store(&h)
}
