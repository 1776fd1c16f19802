//go:build race

package nexus

// poisonFrame overwrites a buffer on its way back to the pool, so that under
// the race detector a value or header that still aliases a recycled frame
// reads 0xDB and fails its test, instead of reading the bytes of whichever
// frame is read into the buffer next.
func poisonFrame(b []byte) {
	for i := range b {
		b[i] = 0xDB
	}
}
