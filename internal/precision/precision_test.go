package precision

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFloat16KnownValues(t *testing.T) {
	cases := []struct {
		in   float32
		bits Float16
	}{
		{0, 0x0000},
		{float32(math.Copysign(0, -1)), 0x8000},
		{1, 0x3c00},
		{-1, 0xbc00},
		{2, 0x4000},
		{0.5, 0x3800},
		{65504, 0x7bff},                 // max finite half
		{6.103515625e-05, 0x0400},       // min normal half
		{5.960464477539063e-08, 0x0001}, // min subnormal half
		{float32(math.Inf(1)), 0x7c00},
		{float32(math.Inf(-1)), 0xfc00},
	}
	for _, c := range cases {
		if got := FromFloat64(float64(c.in)); got != c.bits {
			t.Errorf("FromFloat64(%g) = %#04x, want %#04x", c.in, got, c.bits)
		}
	}
}

func TestFloat16Overflow(t *testing.T) {
	if got := FromFloat64(65536); got != 0x7c00 {
		t.Errorf("FromFloat64(65536) = %#04x, want +Inf", got)
	}
	if got := FromFloat64(-70000); got != 0xfc00 {
		t.Errorf("FromFloat64(-70000) = %#04x, want -Inf", got)
	}
	// 65520 rounds to 65536 which overflows to Inf.
	if got := FromFloat64(65520); got != 0x7c00 {
		t.Errorf("FromFloat64(65520) = %#04x, want +Inf (round-up overflow)", got)
	}
	// 65519 rounds down to 65504.
	if got := FromFloat64(65519); got != 0x7bff {
		t.Errorf("FromFloat64(65519) = %#04x, want 0x7bff", got)
	}
}

func TestFloat16Underflow(t *testing.T) {
	tiny := float32(1e-10)
	if got := FromFloat64(float64(tiny)); got != 0 {
		t.Errorf("FromFloat64(%g) = %#04x, want +0", tiny, got)
	}
	if got := FromFloat64(float64(-tiny)); got != 0x8000 {
		t.Errorf("FromFloat64(%g) = %#04x, want -0", -tiny, got)
	}
}

func TestFloat16NaN(t *testing.T) {
	h := FromFloat64(math.NaN())
	if f := h.Float32(); !math.IsNaN(float64(f)) {
		t.Errorf("NaN did not round-trip, got %g", f)
	}
	if f := h.Float64(); !math.IsNaN(f) {
		t.Errorf("NaN (64) did not round-trip, got %g", f)
	}
}

// TestFloat16RoundTripExact checks every binary16 bit pattern converts to
// float32 and back unchanged (ignoring NaN payloads).
func TestFloat16RoundTripExact(t *testing.T) {
	for i := 0; i < 1<<16; i++ {
		h := Float16(i)
		f := h.Float32()
		if math.IsNaN(float64(f)) {
			continue
		}
		if got := FromFloat64(float64(f)); got != h {
			t.Fatalf("round trip %#04x -> %g -> %#04x", h, f, got)
		}
	}
}

// TestFloat16ErrorBound: for values in the normal half range, relative
// error of 64->16 conversion must be within the unit roundoff 2^-11.
func TestFloat16ErrorBound(t *testing.T) {
	u := math.Ldexp(1, -11)
	f := func(x float64) bool {
		// Map into the half normal range.
		x = math.Mod(math.Abs(x), 60000)
		if x < 6.2e-5 {
			return true
		}
		y := FromFloat64(x).Float64()
		return math.Abs(y-x) <= u*x*(1+1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestFloat16RoundToNearestEven(t *testing.T) {
	// 1 + 2^-11 is exactly halfway between 1 and 1+2^-10; ties-to-even
	// rounds down to 1.
	x := 1 + math.Ldexp(1, -11)
	if got := FromFloat64(x).Float64(); got != 1 {
		t.Errorf("ties-to-even: FromFloat64(1+2^-11) = %g, want 1", got)
	}
	// 1 + 3*2^-11 is halfway between 1+2^-10 and 1+2^-9; rounds up to even.
	x = 1 + 3*math.Ldexp(1, -11)
	want := 1 + math.Ldexp(1, -9)
	if got := FromFloat64(x).Float64(); got != want {
		t.Errorf("ties-to-even: got %g, want %g", got, want)
	}
}

func TestFloat16SubnormalRoundTrip(t *testing.T) {
	for i := 1; i < 0x400; i++ {
		h := Float16(i)
		f := h.Float64()
		if got := FromFloat64(f); got != h {
			t.Fatalf("subnormal %#04x -> %g -> %#04x", h, f, got)
		}
	}
}

func TestBFloat16KnownValues(t *testing.T) {
	cases := []struct {
		in   float32
		bits BFloat16
	}{
		{0, 0x0000},
		{1, 0x3f80},
		{-2, 0xc000},
		{float32(math.Inf(1)), 0x7f80},
	}
	for _, c := range cases {
		if got := BFromFloat32(c.in); got != c.bits {
			t.Errorf("BFromFloat32(%g) = %#04x, want %#04x", c.in, got, c.bits)
		}
	}
}

func TestBFloat16RoundTripExact(t *testing.T) {
	for i := 0; i < 1<<16; i++ {
		h := BFloat16(i)
		f := h.Float32()
		if math.IsNaN(float64(f)) {
			continue
		}
		if got := BFromFloat32(f); got != h {
			t.Fatalf("round trip %#04x -> %g -> %#04x", h, f, got)
		}
	}
}

func TestBFloat16ErrorBound(t *testing.T) {
	u := math.Ldexp(1, -8)
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e38 || math.Abs(x) < 1e-38 {
			return true
		}
		y := BFromFloat64(x).Float64()
		return math.Abs(y-x) <= u*math.Abs(x)*(1+1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestTrimIdentityAt52(t *testing.T) {
	f := func(x float64) bool { return TrimFloat64(x, 52) == x || math.IsNaN(x) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTrimIdempotent(t *testing.T) {
	f := func(x float64, mRaw uint8) bool {
		m := uint(mRaw) % 53
		y := TrimFloat64(x, m)
		return TrimFloat64(y, m) == y || math.IsNaN(y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10000}); err != nil {
		t.Error(err)
	}
}

func TestTrimErrorBound(t *testing.T) {
	f := func(x float64, mRaw uint8) bool {
		// Exclude the top binade, where rounding up can overflow to Inf.
		if math.IsNaN(x) || math.IsInf(x, 0) || x == 0 || math.Abs(x) > math.MaxFloat64/2 {
			return true
		}
		m := uint(mRaw) % 53
		y := TrimFloat64(x, m)
		u := TrimUnitRoundoff(m)
		return math.Abs(y-x) <= u*math.Abs(x)*(1+1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10000}); err != nil {
		t.Error(err)
	}
}

func TestTrim23MatchesFloat32Mantissa(t *testing.T) {
	// Trimming to 23 bits must equal a float64->float32->float64 cast
	// whenever the value is within float32's exponent range.
	f := func(x float64) bool {
		if math.IsNaN(x) || math.Abs(x) > 1e38 || (x != 0 && math.Abs(x) < 1e-38) {
			return true
		}
		return TrimFloat64(x, 23) == float64(float32(x))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10000}); err != nil {
		t.Error(err)
	}
}

func TestTrimZeroBits(t *testing.T) {
	// m=0 keeps only the implicit bit: result is a power of two (or zero),
	// within a factor of sqrt(2)-ish of x.
	got := TrimFloat64(1.4, 0)
	if got != 1.0 && got != 2.0 {
		t.Errorf("TrimFloat64(1.4, 0) = %g, want 1 or 2", got)
	}
	if TrimFloat64(1.6, 0) != 2.0 {
		t.Errorf("TrimFloat64(1.6, 0) = %g, want 2", TrimFloat64(1.6, 0))
	}
}

func TestTrimPreservesSpecials(t *testing.T) {
	if !math.IsInf(TrimFloat64(math.Inf(1), 5), 1) {
		t.Error("TrimFloat64(+Inf) != +Inf")
	}
	if !math.IsNaN(TrimFloat64(math.NaN(), 5)) {
		t.Error("TrimFloat64(NaN) != NaN")
	}
	if TrimFloat64(0, 5) != 0 {
		t.Error("TrimFloat64(0) != 0")
	}
}

func TestFormatsTable(t *testing.T) {
	if len(Formats) != 4 {
		t.Fatalf("Formats has %d entries, want 4", len(Formats))
	}
	for _, f := range Formats {
		if f.ExpBits+f.ManBits+1 != f.Bits {
			t.Errorf("%s: sign+exp+man = %d bits, want %d", f.Name, f.ExpBits+f.ManBits+1, f.Bits)
		}
	}
	// Unit roundoff consistency: 2^-(man+1) within table rounding.
	for _, f := range Formats {
		want := math.Ldexp(1, -f.ManBits-1)
		if math.Abs(f.UnitRoundoff-want)/want > 0.15 {
			t.Errorf("%s unit roundoff %g inconsistent with 2^-%d = %g", f.Name, f.UnitRoundoff, f.ManBits+1, want)
		}
	}
}

func TestTrimUnitRoundoff(t *testing.T) {
	if got := TrimUnitRoundoff(23); got != math.Ldexp(1, -24) {
		t.Errorf("TrimUnitRoundoff(23) = %g", got)
	}
}
