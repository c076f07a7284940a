package compress

import (
	"math"
	"testing"
	"testing/quick"
)

// TestCompressDeterministic: identical input yields identical bytes for
// every method (the one-sided exchange relies on reproducible sizes).
func TestCompressDeterministic(t *testing.T) {
	src := randData(512, 99)
	for _, m := range allMethods() {
		a := make([]byte, m.MaxCompressedLen(len(src)))
		b := make([]byte, m.MaxCompressedLen(len(src)))
		na := m.Compress(a, src)
		nb := m.Compress(b, src)
		if na != nb {
			t.Errorf("%s: nondeterministic size %d vs %d", m.Name(), na, nb)
			continue
		}
		for i := 0; i < na; i++ {
			if a[i] != b[i] {
				t.Errorf("%s: nondeterministic byte at %d", m.Name(), i)
				break
			}
		}
	}
}

// TestFixedRateSizeIndependentOfData: fixed-rate methods must produce
// the same compressed size for any data, which the window layout of the
// compressed one-sided exchange depends on.
func TestFixedRateSizeIndependentOfData(t *testing.T) {
	fixed := []Method{None{}, Cast32{}, Cast16{}, CastBF16{}, Trim{M: 11}, Block{Bits: 13}}
	a := randData(777, 1)
	b := make([]float64, 777) // zeros
	for _, m := range fixed {
		bufA := make([]byte, m.MaxCompressedLen(len(a)))
		bufB := make([]byte, m.MaxCompressedLen(len(b)))
		if na, nb := m.Compress(bufA, a), m.Compress(bufB, b); na != nb {
			t.Errorf("%s: size depends on data (%d vs %d)", m.Name(), na, nb)
		}
	}
}

func TestBlockConstantData(t *testing.T) {
	src := make([]float64, 64)
	for i := range src {
		src[i] = 3.25
	}
	out := roundTrip(t, Block{Bits: 20}, src)
	for i, v := range out {
		if math.Abs(v-3.25) > 1e-4 {
			t.Fatalf("constant block decoded %g at %d", v, i)
		}
	}
}

func TestBlockNegativeValues(t *testing.T) {
	src := []float64{-1, -0.5, 0.25, -0.125, 1, -2, 4, -8}
	out := roundTrip(t, Block{Bits: 24}, src)
	for i := range src {
		if math.Abs(out[i]-src[i]) > 1e-4*math.Abs(src[i])+1e-6 {
			t.Fatalf("negative value %g decoded as %g", src[i], out[i])
		}
	}
}

func TestTrimZeroMantissaRoundTrip(t *testing.T) {
	src := randData(100, 7)
	out := roundTrip(t, Trim{M: 0}, src)
	for i := range src {
		// Only the implicit bit: result within a factor ~√2 of input.
		ratio := out[i] / src[i]
		if ratio < 0.6 || ratio > 1.5 {
			t.Fatalf("Trim(0): %g decoded as %g", src[i], out[i])
		}
	}
}

// TestTrimKeepsLowPayloadNaN: a NaN whose payload lies entirely below
// the kept mantissa bits decodes as a NaN of its sign, on the fused
// (M ≤ 20) and the bitWriter (M ≥ 21) paths. Infinities, a quiet NaN
// and finite values keep their bits above the cut, as before.
func TestTrimKeepsLowPayloadNaN(t *testing.T) {
	src := []float64{
		math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff0000000000100),
		math.Inf(1), math.Inf(-1), math.Float64frombits(0x7ff8000000000001), 1.5,
	}
	for _, m := range []uint{1, 8, 20, 21, 40, 51} {
		out := roundTrip(t, Trim{M: m}, src)
		for i, v := range out {
			b := math.Float64bits(src[i])
			if i < 2 {
				if !math.IsNaN(v) || math.Signbit(v) != math.Signbit(src[i]) {
					t.Errorf("Trim(%d): NaN %#016x decoded as %v (%#016x)", m, b, v, math.Float64bits(v))
				}
			} else if want := b &^ (1<<(52-m) - 1); math.Float64bits(v) != want {
				t.Errorf("Trim(%d): %#016x decoded as %#016x, want %#016x", m, b, math.Float64bits(v), want)
			}
		}
	}
}

func TestScaledTrimComposition(t *testing.T) {
	// Scaled wraps any inner method, including bit-packed trim.
	src := []float64{1e8, -2e9, 3e7, 0}
	m := Scaled{Inner: Trim{M: 20}}
	out := roundTrip(t, m, src)
	for i := range src {
		if src[i] == 0 {
			continue
		}
		rel := math.Abs(out[i]-src[i]) / math.Abs(src[i])
		if rel > precisionTrimRoundoff(20) {
			t.Fatalf("scaled trim rel error %g at %d", rel, i)
		}
	}
}

func precisionTrimRoundoff(m int) float64 {
	return math.Ldexp(1, -m-1) * 1.001
}

func TestEmptyInputAllMethods(t *testing.T) {
	for _, m := range allMethods() {
		buf := make([]byte, m.MaxCompressedLen(0)+16)
		n := m.Compress(buf, nil)
		out := make([]float64, 0)
		used := m.Decompress(out, buf[:n])
		if used != n {
			t.Errorf("%s: empty input consumed %d wrote %d", m.Name(), used, n)
		}
	}
}

func TestSingleValueAllMethods(t *testing.T) {
	for _, m := range allMethods() {
		src := []float64{0.123456789}
		out := roundTrip(t, m, src)
		if b := m.ErrorBound(); b > 0 {
			if math.Abs(out[0]-src[0]) > b*(1+1e-9) {
				t.Errorf("%s: single value error %g above bound %g", m.Name(), math.Abs(out[0]-src[0]), b)
			}
		} else if out[0] != src[0] {
			t.Errorf("%s: lossless single value mismatch", m.Name())
		}
	}
}

// TestLosslessWorstCaseBound: adversarial byte patterns must stay within
// MaxCompressedLen.
func TestLosslessWorstCaseBound(t *testing.T) {
	f := func(raw []byte) bool {
		// Interpret arbitrary bytes as float64 payloads.
		n := len(raw) / 8
		if n == 0 {
			return true
		}
		src := make([]float64, n)
		for i := range src {
			bits := uint64(0)
			for b := 0; b < 8; b++ {
				bits |= uint64(raw[8*i+b]) << (8 * b)
			}
			v := math.Float64frombits(bits)
			if math.IsNaN(v) {
				v = 0
			}
			src[i] = v
		}
		m := Lossless{}
		buf := make([]byte, m.MaxCompressedLen(n))
		written := m.Compress(buf, src)
		return written <= len(buf)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestRatioConsistentWithSize: for fixed-rate methods the actual size
// must equal 8·n/Ratio within rounding.
func TestRatioConsistentWithSizeProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%500 + 1
		src := randData(n, seed)
		for _, m := range []Method{Cast32{}, Cast16{}, Trim{M: 30}, Block{Bits: 10}} {
			buf := make([]byte, m.MaxCompressedLen(n))
			got := m.Compress(buf, src)
			want := float64(8*n) / m.Ratio()
			if math.Abs(float64(got)-want) > 0.2*want+24 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFromToleranceMonotonic(t *testing.T) {
	// Tighter tolerance must never produce a higher compression ratio.
	prev := math.Inf(1)
	for _, etol := range []float64{1e-2, 1e-3, 1e-5, 1e-7, 1e-9, 1e-12, 1e-15} {
		r := FromTolerance(etol).Ratio()
		if r > prev {
			t.Errorf("ratio increased to %g as tolerance tightened to %g", r, etol)
		}
		prev = r
	}
}

func TestMethodNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range allMethods() {
		if seen[m.Name()] {
			t.Errorf("duplicate method name %s", m.Name())
		}
		seen[m.Name()] = true
	}
}
