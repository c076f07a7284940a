package compress

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randData(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()*2 - 1
	}
	return x
}

// smoothData mimics spatially correlated fields (what ZFP-class coders
// exploit).
func smoothData(n int, seed int64) []float64 {
	x := make([]float64, n)
	for i := range x {
		t := float64(i) / float64(n)
		x[i] = math.Sin(2*math.Pi*3*t) + 0.5*math.Cos(2*math.Pi*7*t+float64(seed))
	}
	return x
}

func allMethods() []Method {
	return []Method{
		None{}, Cast32{}, Cast16{}, CastBF16{},
		Trim{M: 0}, Trim{M: 5}, Trim{M: 10}, Trim{M: 23}, Trim{M: 40}, Trim{M: 52},
		Block{Bits: 8}, Block{Bits: 16}, Block{Bits: 26},
		Scaled{Inner: Cast16{}}, Scaled{Inner: Cast32{}},
		Lossless{},
	}
}

func roundTrip(t *testing.T, m Method, src []float64) []float64 {
	t.Helper()
	buf := make([]byte, m.MaxCompressedLen(len(src)))
	n := m.Compress(buf, src)
	if n > len(buf) {
		t.Fatalf("%s: wrote %d bytes, bound %d", m.Name(), n, len(buf))
	}
	out := make([]float64, len(src))
	used := m.Decompress(out, buf[:n])
	if used != n {
		t.Fatalf("%s: decompress consumed %d bytes, compress wrote %d", m.Name(), used, n)
	}
	return out
}

func TestRoundTripWithinErrorBound(t *testing.T) {
	src := randData(1000, 1)
	for _, m := range allMethods() {
		out := roundTrip(t, m, src)
		bound := m.ErrorBound()
		for i := range src {
			err := math.Abs(out[i] - src[i])
			tol := bound * math.Max(math.Abs(src[i]), 1) * (1 + 1e-9)
			if bound == 0 {
				if out[i] != src[i] {
					t.Fatalf("%s: lossless mismatch at %d: %v != %v", m.Name(), i, out[i], src[i])
				}
			} else if err > tol {
				t.Errorf("%s: value %d error %g exceeds bound %g", m.Name(), i, err, tol)
				break
			}
		}
	}
}

func TestCompressedSizeMatchesRatio(t *testing.T) {
	n := 4096
	src := randData(n, 2)
	for _, m := range allMethods() {
		if (m == Lossless{}) {
			continue
		}
		buf := make([]byte, m.MaxCompressedLen(n))
		got := m.Compress(buf, src)
		want := float64(8*n) / m.Ratio()
		if math.Abs(float64(got)-want) > 0.05*want+16 {
			t.Errorf("%s: compressed %d bytes, ratio %g implies ~%.0f", m.Name(), got, m.Ratio(), want)
		}
	}
}

func TestCast32MatchesCast(t *testing.T) {
	src := randData(256, 3)
	out := roundTrip(t, Cast32{}, src)
	for i, v := range src {
		if out[i] != float64(float32(v)) {
			t.Fatalf("Cast32 at %d: got %v, want %v", i, out[i], float64(float32(v)))
		}
	}
}

func TestTrimVariousWidths(t *testing.T) {
	src := randData(333, 4) // odd length exercises bit-packing tails
	for m := uint(0); m <= 52; m += 4 {
		out := roundTrip(t, Trim{M: m}, src)
		u := Trim{M: m}.ErrorBound()
		for i := range src {
			if math.Abs(out[i]-src[i]) > u*math.Abs(src[i])*(1+1e-9) {
				t.Fatalf("Trim(%d) at %d: error %g > %g", m, i, math.Abs(out[i]-src[i]), u*math.Abs(src[i]))
			}
		}
	}
}

func TestTrim52IsExactForNormals(t *testing.T) {
	src := randData(100, 5)
	out := roundTrip(t, Trim{M: 52}, src)
	for i := range src {
		if out[i] != src[i] {
			t.Fatalf("Trim(52) not exact at %d", i)
		}
	}
}

func TestLosslessExactProperty(t *testing.T) {
	f := func(vals []float64) bool {
		for i, v := range vals {
			if math.IsNaN(v) {
				vals[i] = 0
			}
		}
		m := Lossless{}
		buf := make([]byte, m.MaxCompressedLen(len(vals)))
		n := m.Compress(buf, vals)
		out := make([]float64, len(vals))
		m.Decompress(out, buf[:n])
		for i := range vals {
			if out[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLosslessCompressesSparseData(t *testing.T) {
	// Mostly-zero data must compress well below 8 bytes/value.
	src := make([]float64, 4096)
	for i := 0; i < 64; i++ {
		src[i*64] = float64(i)
	}
	m := Lossless{}
	buf := make([]byte, m.MaxCompressedLen(len(src)))
	n := m.Compress(buf, src)
	if n > len(src) { // ≥ 32x on this input
		t.Errorf("lossless: sparse data compressed to %d bytes (raw %d)", n, 8*len(src))
	}
}

func TestBlockBeatsTrimOnSmoothData(t *testing.T) {
	// At equal wire size, the block transform coder should have at most
	// the error of plain truncation on smooth data (usually lower).
	src := smoothData(4096, 1)
	blk := Block{Bits: 14} // 8+4*14 = 64 bits / 4 values = 16 bits/value
	trm := Trim{M: 4}      // 16 bits/value
	eBlk := rmsErr(t, blk, src)
	eTrm := rmsErr(t, trm, src)
	if eBlk > eTrm {
		t.Errorf("Block RMS %g > Trim RMS %g on smooth data at equal rate", eBlk, eTrm)
	}
}

func rmsErr(t *testing.T, m Method, src []float64) float64 {
	t.Helper()
	out := roundTrip(t, m, src)
	var s float64
	for i := range src {
		d := out[i] - src[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(src)))
}

func TestBlockZeroBlock(t *testing.T) {
	src := make([]float64, 16)
	out := roundTrip(t, Block{Bits: 12}, src)
	for i, v := range out {
		if v != 0 {
			t.Fatalf("zero block decoded nonzero at %d: %g", i, v)
		}
	}
}

func TestBlockTailPadding(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 7, 9} {
		src := randData(n, int64(n))
		out := roundTrip(t, Block{Bits: 20}, src)
		for i := range src {
			if math.Abs(out[i]-src[i]) > 1e-4 {
				t.Fatalf("n=%d: block tail error %g at %d", n, math.Abs(out[i]-src[i]), i)
			}
		}
	}
}

func TestScaledHandlesLargeMagnitudes(t *testing.T) {
	// Values way beyond FP16 range must survive via the scale header.
	src := []float64{1e6, -3e7, 2.5e5, 0, 999999}
	out := roundTrip(t, Scaled{Inner: Cast16{}}, src)
	for i := range src {
		if src[i] == 0 {
			if out[i] != 0 {
				t.Fatalf("scaled: zero decoded as %g", out[i])
			}
			continue
		}
		rel := math.Abs(out[i]-src[i]) / math.Abs(src[i])
		if rel > 5e-4 {
			t.Errorf("scaled FP16: value %g relative error %g", src[i], rel)
		}
	}
	// Plain Cast16 must fail on the same data (sanity of the test).
	raw := roundTrip(t, Cast16{}, src)
	if !math.IsInf(raw[0], 1) {
		t.Error("expected plain Cast16 to overflow 1e6 to +Inf")
	}
}

func TestFromTolerance(t *testing.T) {
	cases := []struct {
		etol float64
		want string
	}{
		{1e-2, "FP64->BF16"},
		{1e-3, "FP64->FP16"},
		{1e-5, "Trim(16)"},
		{1e-7, "FP64->FP32"},
		{1e-10, "Trim(33)"},
		{0, "FP64"},
		{-1, "FP64"},
	}
	for _, c := range cases {
		got := FromTolerance(c.etol)
		if got.Name() != c.want {
			t.Errorf("FromTolerance(%g) = %s, want %s", c.etol, got.Name(), c.want)
		}
		if c.etol > 0 && got.ErrorBound() > c.etol {
			t.Errorf("FromTolerance(%g): bound %g exceeds tolerance", c.etol, got.ErrorBound())
		}
	}
}

func TestFromTolerancePropertyBoundRespected(t *testing.T) {
	f := func(exp uint8) bool {
		etol := math.Ldexp(1, -int(exp%60)-1)
		m := FromTolerance(etol)
		return m.ErrorBound() <= etol
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRatiosAreOrdered(t *testing.T) {
	if (Cast16{}).Ratio() <= (Cast32{}).Ratio() {
		t.Error("FP16 ratio should exceed FP32 ratio")
	}
	if (Trim{M: 10}).Ratio() <= (Trim{M: 30}).Ratio() {
		t.Error("smaller mantissa should compress more")
	}
}

// BenchmarkCodecs times encode and decode of 64 Ki uniform values in
// (-1, 1) for every Method; MB/s counts the float64 side.
func BenchmarkCodecs(b *testing.B) {
	src := randData(1<<16, 1)
	out := make([]float64, len(src))
	for _, m := range []Method{
		None{}, Cast32{}, Cast16{}, CastBF16{}, Trim{M: 19}, Trim{M: 40},
		Block{Bits: 16}, Scaled{Inner: Cast16{}}, Lossless{},
	} {
		buf := make([]byte, m.MaxCompressedLen(len(src)))
		n := m.Compress(buf, src)
		b.Run(m.Name()+"/encode", func(b *testing.B) {
			b.SetBytes(int64(8 * len(src)))
			for i := 0; i < b.N; i++ {
				m.Compress(buf, src)
			}
		})
		b.Run(m.Name()+"/decode", func(b *testing.B) {
			b.SetBytes(int64(8 * len(src)))
			for i := 0; i < b.N; i++ {
				m.Decompress(out, buf[:n])
			}
		})
	}
}
