// Package fft provides serial 1-D and 3-D fast Fourier transforms in both
// complex128 (FP64) and complex64 (FP32) arithmetic. The complex64 path
// performs the whole computation genuinely in single precision, which the
// reproduction relies on for the FP32 reference pipeline of the paper.
//
// Power-of-two lengths use an iterative radix-2 Cooley-Tukey transform
// with cached twiddle factors; other lengths fall back to Bluestein's
// chirp-z algorithm on a padded power-of-two transform.
package fft

import "math"

// Complex constrains the element type of a transform.
type Complex interface {
	~complex64 | ~complex128
}

// Forward is the sign convention for the forward transform
// (exp(-2πi jk/n)), Inverse for the inverse (exp(+2πi jk/n)).
const (
	Forward = -1
	Inverse = +1
)

// Plan holds precomputed tables for transforms of a fixed length.
// A Plan may be reused for any number of transforms but is not safe for
// concurrent use (each simulated GPU owns its own plans).
type Plan[C Complex] struct {
	n       int
	logn    int // valid if pow2
	pow2    bool
	bitrev  []int
	twidF   []C // forward twiddles, grouped per stage
	twidI   []C // inverse twiddles
	blue    *bluestein[C]
	scratch []C
}

// NewPlan creates a transform plan for length n (n ≥ 1).
func NewPlan[C Complex](n int) *Plan[C] {
	if n <= 0 {
		panic("fft: transform length must be positive")
	}
	p := &Plan[C]{n: n}
	if n&(n-1) == 0 {
		p.pow2 = true
		p.logn = trailingLog2(n)
		p.bitrev = bitrevTable(n)
		p.twidF = twiddles[C](n, Forward)
		p.twidI = twiddles[C](n, Inverse)
	} else {
		p.blue = newBluestein[C](n)
	}
	p.scratch = make([]C, n)
	return p
}

func trailingLog2(n int) int {
	l := 0
	for 1<<l < n {
		l++
	}
	return l
}

func bitrevTable(n int) []int {
	logn := trailingLog2(n)
	t := make([]int, n)
	for i := range t {
		r := 0
		for b := 0; b < logn; b++ {
			r = r<<1 | (i >> b & 1)
		}
		t[i] = r
	}
	return t
}

// cmplxAs builds a value of complex type C from float64 parts, rounding
// to the target precision.
func cmplxAs[C Complex](re, im float64) C {
	var z C
	switch any(z).(type) {
	case complex64:
		return C(complex(float32(re), float32(im)))
	default:
		return C(complex(re, im))
	}
}

// twiddles returns per-stage twiddle factors for an n-point radix-2
// transform, concatenated stage by stage: stage s (half-size h = 2^s)
// contributes h factors w^k = exp(sign·2πi k/(2h)).
func twiddles[C Complex](n, sign int) []C {
	t := make([]C, 0, n-1)
	for h := 1; h < n; h <<= 1 {
		for k := 0; k < h; k++ {
			ang := float64(sign) * math.Pi * float64(k) / float64(h)
			t = append(t, cmplxAs[C](math.Cos(ang), math.Sin(ang)))
		}
	}
	return t
}

// Transform computes an unscaled DFT of x in place with the given sign
// (Forward or Inverse). len(x) must equal the plan length.
func (p *Plan[C]) Transform(x []C, sign int) {
	if len(x) != p.n {
		panic("fft: length mismatch")
	}
	if p.pow2 {
		p.radix2(x, sign)
		return
	}
	p.blue.transform(x, sign)
}

func (p *Plan[C]) radix2(x []C, sign int) {
	n := p.n
	if n == 1 {
		return
	}
	for i, r := range p.bitrev {
		if i < r {
			x[i], x[r] = x[r], x[i]
		}
	}
	tw := p.twidF
	if sign == Inverse {
		tw = p.twidI
	}
	off := 0
	for h := 1; h < n; h <<= 1 {
		stage := tw[off : off+h]
		for base := 0; base < n; base += h << 1 {
			for k := 0; k < h; k++ {
				i, j := base+k, base+k+h
				t := x[j] * stage[k]
				x[j] = x[i] - t
				x[i] += t
			}
		}
		off += h
	}
}

// Batch applies the transform to count contiguous vectors of length n
// packed back to back in x (vector v occupies x[v*n : (v+1)*n]).
func (p *Plan[C]) Batch(x []C, count, sign int) {
	if len(x) < count*p.n {
		panic("fft: batch buffer too short")
	}
	for v := 0; v < count; v++ {
		p.Transform(x[v*p.n:(v+1)*p.n], sign)
	}
}

// BatchStrided applies the transform to count vectors of length n where
// element k of vector v lives at x[v*dist + k*stride]. stride == 1 hits
// the fast contiguous path.
func (p *Plan[C]) BatchStrided(x []C, count, stride, dist, sign int) {
	if stride == 1 {
		for v := 0; v < count; v++ {
			p.Transform(x[v*dist:v*dist+p.n], sign)
		}
		return
	}
	for v := 0; v < count; v++ {
		base := v * dist
		for k := 0; k < p.n; k++ {
			p.scratch[k] = x[base+k*stride]
		}
		p.Transform(p.scratch, sign)
		for k := 0; k < p.n; k++ {
			x[base+k*stride] = p.scratch[k]
		}
	}
}

// bluestein implements the chirp-z transform for arbitrary lengths on
// top of a power-of-two plan of length m ≥ 2n-1.
type bluestein[C Complex] struct {
	n     int
	m     int
	inner *Plan[C]
	wF    []C // chirp exp(-iπ k²/n)
	wI    []C // conjugate chirp
	bF    []C // FFT of the forward chirp filter
	bI    []C // FFT of the inverse chirp filter
	a     []C
}

func newBluestein[C Complex](n int) *bluestein[C] {
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	bs := &bluestein[C]{n: n, m: m, inner: NewPlan[C](m)}
	bs.wF = make([]C, n)
	bs.wI = make([]C, n)
	for k := 0; k < n; k++ {
		// k² mod 2n avoids precision loss for large k.
		kk := int64(k) * int64(k) % int64(2*n)
		ang := math.Pi * float64(kk) / float64(n)
		bs.wF[k] = cmplxAs[C](math.Cos(ang), -math.Sin(ang))
		bs.wI[k] = cmplxAs[C](math.Cos(ang), math.Sin(ang))
	}
	bs.bF = bs.filter(bs.wF)
	bs.bI = bs.filter(bs.wI)
	bs.a = make([]C, m)
	return bs
}

// filter builds the FFT of the chirp filter b[k] = conj(w[|k|]).
func (bs *bluestein[C]) filter(w []C) []C {
	b := make([]C, bs.m)
	for k := 0; k < bs.n; k++ {
		c := conjC(w[k])
		b[k] = c
		if k > 0 {
			b[bs.m-k] = c
		}
	}
	bs.inner.Transform(b, Forward)
	return b
}

func conjC[C Complex](z C) C {
	switch v := any(z).(type) {
	case complex64:
		return any(complex(real(v), -imag(v))).(C)
	default:
		v128 := any(z).(complex128)
		return any(complex(real(v128), -imag(v128))).(C)
	}
}

func (bs *bluestein[C]) transform(x []C, sign int) {
	w, b := bs.wF, bs.bF
	if sign == Inverse {
		w, b = bs.wI, bs.bI
	}
	a := bs.a
	for i := range a {
		a[i] = 0
	}
	for k := 0; k < bs.n; k++ {
		a[k] = x[k] * w[k]
	}
	bs.inner.Transform(a, Forward)
	for i := range a {
		a[i] *= b[i]
	}
	bs.inner.Transform(a, Inverse)
	inv := cmplxAs[C](1/float64(bs.m), 0)
	for k := 0; k < bs.n; k++ {
		x[k] = a[k] * inv * w[k]
	}
}
