package compress

import (
	"encoding/binary"
	"math"
	"sync"
)

// Scaled wraps a narrow-range method (typically Cast16) with a per-message
// scale factor so that values whose magnitude exceeds the inner format's
// range — FFT spectra grow like √N — are normalized into range before the
// cast, in the spirit of the dynamically scaled FP16 splitting of
// Sorna et al. (paper ref. [8]). The scale (8 bytes) is carried in a
// per-message header.
type Scaled struct {
	Inner Method
}

// Name implements Method.
func (s Scaled) Name() string { return "Scaled(" + s.Inner.Name() + ")" }

// Ratio implements Method.
func (s Scaled) Ratio() float64 { return s.Inner.Ratio() }

// MaxCompressedLen implements Method.
func (s Scaled) MaxCompressedLen(n int) int { return 8 + s.Inner.MaxCompressedLen(n) }

// ErrorBound implements Method.
func (s Scaled) ErrorBound() float64 { return s.Inner.ErrorBound() }

// MinNormal implements Method. The per-message scale shifts the inner
// format's range onto the data, so in input units the true threshold is
// Inner.MinNormal()/scale; without the (per-message) scale this is the
// conservative static answer.
func (s Scaled) MinNormal() float64 { return s.Inner.MinNormal() }

// Compress implements Method. The scale normalizes the largest finite
// magnitude, so the header is always a finite power of two: ±Inf and
// NaN stay what they are under any scale, and reach the inner method
// unchanged.
func (s Scaled) Compress(dst []byte, src []float64) int {
	maxAbs := 0.0
	for _, v := range src {
		if a := math.Abs(v); a > maxAbs && a <= math.MaxFloat64 {
			maxAbs = a
		}
	}
	scale := 1.0
	if maxAbs > 0 {
		// Normalize the largest magnitude to ~1 using a power of two so
		// that scaling is exact in binary floating point. Below 2⁻¹⁰²³
		// the scale stops at 2¹⁰²³, the largest power of two a header
		// can hold.
		scale = math.Ldexp(1, -max(ilogb(maxAbs), -1023))
	}
	binary.LittleEndian.PutUint64(dst, math.Float64bits(scale))
	p := scratchPool.Get().(*[]float64)
	if cap(*p) < len(src) {
		*p = make([]float64, len(src))
	}
	scaled := (*p)[:len(src)]
	for i, v := range src {
		scaled[i] = v * scale
	}
	n := s.Inner.Compress(dst[8:], scaled)
	scratchPool.Put(p)
	return 8 + n
}

// scratchPool holds Scaled.Compress's scaled copies of its input, so
// Scaled stays a plain comparable value and allocates nothing per call.
var scratchPool = sync.Pool{New: func() any { return new([]float64) }}

// Decompress implements Method.
func (s Scaled) Decompress(dst []float64, src []byte) int {
	scale := math.Float64frombits(binary.LittleEndian.Uint64(src))
	n := s.Inner.Decompress(dst, src[8:])
	inv := 1 / scale
	for i := range dst {
		dst[i] *= inv
	}
	return 8 + n
}

func ilogb(x float64) int {
	return int(math.Floor(math.Log2(x)))
}
