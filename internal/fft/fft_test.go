package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func randVec(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	return x
}

func maxErr(a, b []complex128) float64 {
	m := 0.0
	for i := range a {
		if e := cmplx.Abs(a[i] - b[i]); e > m {
			m = e
		}
	}
	return m
}

// ForwardTransform computes the unscaled forward DFT in place.
func (p *Plan[C]) ForwardTransform(x []C) { p.Transform(x, Forward) }

// InverseTransform computes the inverse DFT in place, scaled by 1/n so
// that InverseTransform(ForwardTransform(x)) ≈ x.
func (p *Plan[C]) InverseTransform(x []C) {
	p.Transform(x, Inverse)
	scale := 1 / float64(p.n)
	s := cmplxAs[C](scale, 0)
	for i := range x {
		x[i] *= s
	}
}

// Inverse3D computes the inverse 3-D DFT in place, scaled by 1/(n0·n1·n2).
func Inverse3D[C Complex](x []C, n0, n1, n2 int) {
	Transform3D(x, n0, n1, n2, Inverse)
	s := cmplxAs[C](1/float64(n0*n1*n2), 0)
	for i := range x {
		x[i] *= s
	}
}

// DFT computes the unscaled discrete Fourier transform of x directly in
// O(n²), the oracle the fast transforms are checked against.
func DFT[C Complex](x []C, sign int) []C {
	n := len(x)
	out := make([]C, n)
	for k := 0; k < n; k++ {
		var acc complex128
		for j := 0; j < n; j++ {
			ang := float64(sign) * 2 * math.Pi * float64(j) * float64(k) / float64(n)
			var xv complex128
			switch v := any(x[j]).(type) {
			case complex64:
				xv = complex128(v)
			case complex128:
				xv = v
			}
			acc += xv * complex(math.Cos(ang), math.Sin(ang))
		}
		out[k] = cmplxAs[C](real(acc), imag(acc))
	}
	return out
}

func TestForwardMatchesDFT(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 12, 16, 30, 32, 100, 128, 243} {
		x := randVec(n, int64(n))
		want := DFT(x, Forward)
		p := NewPlan[complex128](n)
		got := append([]complex128(nil), x...)
		p.ForwardTransform(got)
		if e := maxErr(got, want); e > 1e-9*float64(n) {
			t.Errorf("n=%d: max error vs DFT = %g", n, e)
		}
	}
}

func TestInverseMatchesDFT(t *testing.T) {
	for _, n := range []int{2, 6, 8, 17, 64} {
		x := randVec(n, int64(n)+1000)
		want := DFT(x, Inverse)
		for i := range want {
			want[i] /= complex(float64(n), 0)
		}
		p := NewPlan[complex128](n)
		got := append([]complex128(nil), x...)
		p.InverseTransform(got)
		if e := maxErr(got, want); e > 1e-10*float64(n) {
			t.Errorf("n=%d: inverse max error = %g", n, e)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 9, 15, 16, 128, 1000, 1024} {
		x := randVec(n, 42)
		p := NewPlan[complex128](n)
		y := append([]complex128(nil), x...)
		p.ForwardTransform(y)
		p.InverseTransform(y)
		if e := maxErr(y, x); e > 1e-11*float64(n) {
			t.Errorf("n=%d: round trip error = %g", n, e)
		}
	}
}

func TestRoundTripComplex64(t *testing.T) {
	for _, n := range []int{8, 64, 100, 256} {
		rng := rand.New(rand.NewSource(7))
		x := make([]complex64, n)
		for i := range x {
			x[i] = complex(rng.Float32()*2-1, rng.Float32()*2-1)
		}
		p := NewPlan[complex64](n)
		y := append([]complex64(nil), x...)
		p.ForwardTransform(y)
		p.InverseTransform(y)
		var m float64
		for i := range y {
			m = math.Max(m, cmplx.Abs(complex128(y[i]-x[i])))
		}
		if m > 1e-4 {
			t.Errorf("n=%d: complex64 round trip error = %g", n, m)
		}
	}
}

// TestComplex64LessAccurate confirms the complex64 path really computes
// in single precision: its round-trip error must be orders of magnitude
// above the complex128 path's.
func TestComplex64LessAccurate(t *testing.T) {
	const n = 1024
	x := randVec(n, 11)
	x32 := make([]complex64, n)
	for i := range x {
		x32[i] = complex64(x[i])
	}
	p64 := NewPlan[complex128](n)
	p32 := NewPlan[complex64](n)
	y64 := append([]complex128(nil), x...)
	p64.ForwardTransform(y64)
	p64.InverseTransform(y64)
	p32.ForwardTransform(x32)
	p32.InverseTransform(x32)
	var e64, e32 float64
	for i := range x {
		e64 += cmplx.Abs(y64[i]-x[i]) * cmplx.Abs(y64[i]-x[i])
		d := complex128(x32[i]) - x[i]
		e32 += cmplx.Abs(d) * cmplx.Abs(d)
	}
	e64, e32 = math.Sqrt(e64), math.Sqrt(e32)
	if e32 < 1e4*e64 {
		t.Errorf("complex64 error %g not clearly above complex128 error %g", e32, e64)
	}
}

func TestImpulseResponse(t *testing.T) {
	// FFT of a unit impulse is all ones.
	n := 32
	x := make([]complex128, n)
	x[0] = 1
	NewPlan[complex128](n).ForwardTransform(x)
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("impulse FFT[%d] = %v, want 1", i, v)
		}
	}
}

func TestLinearity(t *testing.T) {
	n := 64
	p := NewPlan[complex128](n)
	f := func(seedA, seedB int64, aRe, aIm float64) bool {
		if math.IsNaN(aRe) || math.IsInf(aRe, 0) || math.IsNaN(aIm) || math.IsInf(aIm, 0) {
			return true
		}
		a := complex(math.Mod(aRe, 10), math.Mod(aIm, 10))
		x := randVec(n, seedA)
		y := randVec(n, seedB)
		z := make([]complex128, n)
		for i := range z {
			z[i] = a*x[i] + y[i]
		}
		p.ForwardTransform(x)
		p.ForwardTransform(y)
		p.ForwardTransform(z)
		for i := range z {
			if cmplx.Abs(z[i]-(a*x[i]+y[i])) > 1e-9*(1+cmplx.Abs(z[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestParseval(t *testing.T) {
	// ||X||² = n·||x||² for the unscaled forward transform.
	f := func(seed int64) bool {
		n := 128
		x := randVec(n, seed)
		var ein float64
		for _, v := range x {
			ein += real(v)*real(v) + imag(v)*imag(v)
		}
		NewPlan[complex128](n).ForwardTransform(x)
		var eout float64
		for _, v := range x {
			eout += real(v)*real(v) + imag(v)*imag(v)
		}
		return math.Abs(eout-float64(n)*ein) < 1e-8*eout
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestShiftTheorem(t *testing.T) {
	// FFT of x shifted by s equals FFT(x) modulated by exp(-2πi ks/n).
	n := 64
	s := 5
	x := randVec(n, 99)
	shifted := make([]complex128, n)
	for i := range shifted {
		shifted[i] = x[(i+s)%n]
	}
	p := NewPlan[complex128](n)
	p.ForwardTransform(x)
	p.ForwardTransform(shifted)
	for k := 0; k < n; k++ {
		ang := 2 * math.Pi * float64(k) * float64(s) / float64(n)
		want := x[k] * complex(math.Cos(ang), math.Sin(ang))
		if cmplx.Abs(shifted[k]-want) > 1e-10*(1+cmplx.Abs(want)) {
			t.Fatalf("shift theorem fails at k=%d", k)
		}
	}
}

func TestBatch(t *testing.T) {
	n, count := 16, 8
	x := randVec(n*count, 3)
	want := make([]complex128, 0, n*count)
	for v := 0; v < count; v++ {
		want = append(want, DFT(x[v*n:(v+1)*n], Forward)...)
	}
	NewPlan[complex128](n).Batch(x, count, Forward)
	if e := maxErr(x, want); e > 1e-10 {
		t.Errorf("batch error = %g", e)
	}
}

func TestBatchStrided(t *testing.T) {
	// Transform columns of an 8×6 row-major matrix (stride 8, dist 1).
	rows, cols := 6, 8
	x := randVec(rows*cols, 5)
	want := append([]complex128(nil), x...)
	col := make([]complex128, rows)
	for c := 0; c < cols; c++ {
		for r := 0; r < rows; r++ {
			col[r] = x[r*cols+c]
		}
		out := DFT(col, Forward)
		for r := 0; r < rows; r++ {
			want[r*cols+c] = out[r]
		}
	}
	NewPlan[complex128](rows).BatchStrided(x, cols, cols, 1, Forward)
	if e := maxErr(x, want); e > 1e-10 {
		t.Errorf("strided batch error = %g", e)
	}
}

func Test3DMatchesNestedDFT(t *testing.T) {
	n0, n1, n2 := 4, 3, 5
	x := randVec(n0*n1*n2, 21)
	want := append([]complex128(nil), x...)
	// Apply direct DFT along each axis.
	buf := make([]complex128, 8)
	// axis 0
	for k := 0; k < n2; k++ {
		for j := 0; j < n1; j++ {
			base := n0 * (j + n1*k)
			copy(buf[:n0], want[base:base+n0])
			out := DFT(buf[:n0], Forward)
			copy(want[base:base+n0], out)
		}
	}
	// axis 1
	for k := 0; k < n2; k++ {
		for i := 0; i < n0; i++ {
			for j := 0; j < n1; j++ {
				buf[j] = want[i+n0*(j+n1*k)]
			}
			out := DFT(buf[:n1], Forward)
			for j := 0; j < n1; j++ {
				want[i+n0*(j+n1*k)] = out[j]
			}
		}
	}
	// axis 2
	for j := 0; j < n1; j++ {
		for i := 0; i < n0; i++ {
			for k := 0; k < n2; k++ {
				buf[k] = want[i+n0*(j+n1*k)]
			}
			out := DFT(buf[:n2], Forward)
			for k := 0; k < n2; k++ {
				want[i+n0*(j+n1*k)] = out[k]
			}
		}
	}
	Forward3D(x, n0, n1, n2)
	if e := maxErr(x, want); e > 1e-10 {
		t.Errorf("3-D error vs nested DFT = %g", e)
	}
}

func Test3DRoundTrip(t *testing.T) {
	n0, n1, n2 := 8, 8, 8
	x := randVec(n0*n1*n2, 33)
	orig := append([]complex128(nil), x...)
	Forward3D(x, n0, n1, n2)
	Inverse3D(x, n0, n1, n2)
	if e := maxErr(x, orig); e > 1e-11 {
		t.Errorf("3-D round trip error = %g", e)
	}
}

func TestFlopCount(t *testing.T) {
	if FlopCount(1) != 0 {
		t.Error("FlopCount(1) != 0")
	}
	if got := FlopCount(1024); math.Abs(got-5*1024*10) > 1e-6 {
		t.Errorf("FlopCount(1024) = %g, want %g", got, 5.0*1024*10)
	}
}

func TestPlanLengthValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewPlan(0) did not panic")
		}
	}()
	NewPlan[complex128](0)
}

func TestTransformLengthMismatchPanics(t *testing.T) {
	p := NewPlan[complex128](8)
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	p.ForwardTransform(make([]complex128, 4))
}

func BenchmarkFFT1024(b *testing.B) {
	x := randVec(1024, 1)
	p := NewPlan[complex128](1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.ForwardTransform(x)
	}
}

func BenchmarkFFT3D64(b *testing.B) {
	n := 64
	x := randVec(n*n*n, 1)
	p := NewPlan[complex128](n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Transform3DWithPlans(x, p, p, p, Forward)
	}
}
