package exchange

import (
	"testing"

	"repro/internal/compress"
)

// Native fuzz targets (run under `make fuzz` with a fixed budget; the
// deterministic sweeps in fuzz_test.go remain the tier-1 cover).

// fuzzMethods are the codecs the slot decoder must survive hostile
// input under.
var fuzzMethods = []compress.Method{
	compress.None{}, compress.Cast32{}, compress.Cast16{}, compress.CastBF16{},
	compress.Trim{M: 20}, compress.Block{Bits: 12},
	compress.Scaled{Inner: compress.Cast16{}}, compress.Lossless{},
}

// FuzzDecodeSlot drives the window-slot decoder — the first consumer of
// bytes that crossed the possibly-corrupting one-sided transport — with
// arbitrary slots: it must return an error or a value, never panic.
func FuzzDecodeSlot(f *testing.F) {
	vals := []float64{0, 1, -1, 3.14159, -2.5e-8, 1e300}
	for i, m := range fuzzMethods {
		slot := make([]byte, 4+m.MaxCompressedLen(len(vals)))
		clen := m.Compress(slot[4:], vals)
		putLE32(slot, uint32(clen))
		f.Add(byte(i), slot)
		f.Add(byte(i), slot[:3])
		f.Add(byte(i), []byte{})
	}
	f.Fuzz(func(t *testing.T, mi byte, slot []byte) {
		m := fuzzMethods[int(mi)%len(fuzzMethods)]
		dst := make([]float64, len(vals))
		_ = decodeSlot(m, dst, slot) // must not panic
	})
}
