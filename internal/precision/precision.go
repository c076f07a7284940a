// Package precision implements the reduced-precision floating-point
// formats used by the lossy all-to-all exchange: IEEE binary16 (FP16),
// bfloat16 (BF16), and generalized mantissa trimming of IEEE binary64
// values to an arbitrary number of retained mantissa bits.
//
// All conversions round to nearest, ties to even, which matches both the
// hardware cast units the paper relies on (Table I) and the truncation
// operations studied in §IV-B.
package precision

import "math"

// Float16 is an IEEE 754 binary16 value stored in its raw bit pattern.
type Float16 uint16

// BFloat16 is a bfloat16 value (the high 16 bits of a binary32) stored in
// its raw bit pattern.
type BFloat16 uint16

const (
	f16ManBits = 10
	f16ExpBias = 15
	f32ExpBias = 127
	f64ExpBias = 1023
	f64ManBits = 52
)

// Float32 converts a Float16 back to float32 exactly.
func (h Float16) Float32() float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h>>f16ManBits) & 0x1f
	man := uint32(h) & 0x3ff

	switch {
	case exp == 0x1f: // Inf/NaN
		if man != 0 {
			return math.Float32frombits(sign | 0x7fc00000 | man<<13)
		}
		return math.Float32frombits(sign | 0x7f800000)
	case exp == 0:
		if man == 0 {
			return math.Float32frombits(sign)
		}
		// Subnormal: normalize.
		e := int32(-14)
		for man&0x400 == 0 {
			man <<= 1
			e--
		}
		man &= 0x3ff
		return math.Float32frombits(sign | uint32(e+f32ExpBias)<<23 | man<<13)
	default:
		return math.Float32frombits(sign | (exp-f16ExpBias+f32ExpBias)<<23 | man<<13)
	}
}

// FromFloat64 converts a float64 to Float16 with round-to-nearest-even.
// It rounds once, directly from the binary64 bits: going through
// float32 would round twice (64→32→16). Every float32 input converts
// exactly to float64, so this is also the float32 conversion.
func FromFloat64(f float64) Float16 {
	b := math.Float64bits(f)
	sign := uint16(b>>48) & 0x8000
	exp := int64(b>>52) & 0x7ff
	man := b & 0xfffffffffffff

	switch {
	case exp == 0x7ff:
		if man != 0 {
			return Float16(sign | 0x7e00)
		}
		return Float16(sign | 0x7c00)
	case exp == 0 && man == 0:
		return Float16(sign)
	}
	e := exp - f64ExpBias
	switch {
	case e > 15:
		return Float16(sign | 0x7c00)
	case e >= -14:
		shift := uint64(f64ManBits - f16ManBits)
		m := man >> shift
		rem := man & ((1 << shift) - 1)
		half := uint64(1) << (shift - 1)
		h := sign | uint16(e+f16ExpBias)<<f16ManBits | uint16(m)
		if rem > half || (rem == half && m&1 == 1) {
			h++
		}
		return Float16(h)
	case e >= -24:
		m := man | 1<<f64ManBits
		shift := uint64(int64(-e)-14) + (f64ManBits - f16ManBits)
		if shift > 63 {
			return Float16(sign)
		}
		q := m >> shift
		rem := m & ((1 << shift) - 1)
		half := uint64(1) << (shift - 1)
		h := sign | uint16(q)
		if rem > half || (rem == half && q&1 == 1) {
			h++
		}
		return Float16(h)
	default:
		return Float16(sign)
	}
}

// Float64 converts a Float16 to float64 exactly.
func (h Float16) Float64() float64 { return float64(h.Float32()) }

// BFromFloat32 converts a float32 to BFloat16 with round-to-nearest-even.
func BFromFloat32(f float32) BFloat16 {
	b := math.Float32bits(f)
	if b&0x7fffffff > 0x7f800000 { // NaN: keep it quiet
		return BFloat16(b>>16 | 0x0040)
	}
	rem := b & 0xffff
	q := b >> 16
	if rem > 0x8000 || (rem == 0x8000 && q&1 == 1) {
		q++
	}
	return BFloat16(q)
}

// BFromFloat64 converts a float64 to BFloat16 via float32 (safe here:
// bfloat16's 8-bit mantissa makes double rounding vanishingly unlikely
// to matter for our error-bound use, and we accept the float32 cast as
// the hardware would perform it).
func BFromFloat64(f float64) BFloat16 { return BFromFloat32(float32(f)) }

// Float32 converts a BFloat16 to float32 exactly.
func (h BFloat16) Float32() float32 { return math.Float32frombits(uint32(h) << 16) }

// Float64 converts a BFloat16 to float64 exactly.
func (h BFloat16) Float64() float64 { return float64(h.Float32()) }

// TrimFloat64 rounds x to a float64 with only m mantissa bits retained
// (0 ≤ m ≤ 52), using round-to-nearest-even. m = 52 is the identity,
// m = 23 matches the FP32 mantissa, m = 10 matches FP16's. The exponent
// range is unchanged (unlike a format cast), which isolates the mantissa
// contribution studied in Fig. 2.
func TrimFloat64(x float64, m uint) float64 {
	if m >= f64ManBits {
		return x
	}
	b := math.Float64bits(x)
	exp := b >> 52 & 0x7ff
	if exp == 0x7ff { // Inf/NaN untouched
		return x
	}
	shift := f64ManBits - m
	mask := uint64(1)<<shift - 1
	rem := b & mask
	b &^= mask
	half := uint64(1) << (shift - 1)
	if rem > half || (rem == half && b>>shift&1 == 1) {
		// Round up; carry may ripple into the exponent, which is correct.
		b += 1 << shift
	}
	return math.Float64frombits(b)
}

// Format describes a floating-point arithmetic as in Table I of the paper.
type Format struct {
	Name         string
	Bits         int
	ExpBits      int
	ManBits      int // stored mantissa bits (without the implicit bit)
	XminSubnorm  float64
	XminNormal   float64
	Xmax         float64
	UnitRoundoff float64
	// Peak throughputs in Tflop/s as reported in Table I (V100 / MI100);
	// zero means not available.
	PeakV100  float64
	PeakMI100 float64
}

// Formats reproduces Table I of the paper.
var Formats = []Format{
	{
		Name: "BFloat16", Bits: 16, ExpBits: 8, ManBits: 7,
		XminSubnorm: 9.2e-41, XminNormal: 1.2e-38, Xmax: 3.4e38,
		UnitRoundoff: 3.9e-3, PeakV100: 0, PeakMI100: 92,
	},
	{
		Name: "FP16", Bits: 16, ExpBits: 5, ManBits: 10,
		XminSubnorm: 6.0e-8, XminNormal: 6.1e-5, Xmax: 6.6e4,
		UnitRoundoff: 4.9e-4, PeakV100: 125, PeakMI100: 184,
	},
	{
		Name: "FP32", Bits: 32, ExpBits: 8, ManBits: 23,
		XminSubnorm: 1.4e-45, XminNormal: 1.2e-38, Xmax: 3.4e38,
		UnitRoundoff: 6.0e-8, PeakV100: 15.7, PeakMI100: 23,
	},
	{
		Name: "FP64", Bits: 64, ExpBits: 11, ManBits: 52,
		XminSubnorm: 4.9e-324, XminNormal: 2.2e-308, Xmax: math.MaxFloat64,
		UnitRoundoff: 1.1e-16, PeakV100: 7.8, PeakMI100: 11.5,
	},
}

// TrimUnitRoundoff is the unit roundoff of a float64 trimmed to m
// mantissa bits: 2^-(m+1).
func TrimUnitRoundoff(m uint) float64 {
	return math.Ldexp(1, -int(m)-1)
}
