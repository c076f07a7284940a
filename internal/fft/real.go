package fft

import "math"

// PlanR2C computes real-to-complex transforms of even length n using the
// standard half-length trick: the n real samples are packed into n/2
// complex values, transformed with a complex plan, and untangled into
// the n/2+1 non-redundant spectrum bins. The inverse (complex-to-real)
// reverses the steps. This halves both compute and — in the distributed
// transform built on top — the first reshape's communication volume.
type PlanR2C[C Complex] struct {
	n     int
	inner *Plan[C]
	// twiddle[k] = exp(-πik/ (n/2)) for the untangle step.
	twiddle []C
	scratch []C
}

// NewPlanR2C creates a real-transform plan for even length n ≥ 2.
func NewPlanR2C[C Complex](n int) *PlanR2C[C] {
	if n < 2 || n%2 != 0 {
		panic("fft: real transforms require even length ≥ 2")
	}
	h := n / 2
	p := &PlanR2C[C]{n: n, inner: NewPlan[C](h)}
	p.twiddle = make([]C, h+1)
	for k := 0; k <= h; k++ {
		ang := -math.Pi * float64(k) / float64(h)
		p.twiddle[k] = cmplxAs[C](math.Cos(ang), math.Sin(ang))
	}
	p.scratch = make([]C, h+1)
	return p
}

// SpectrumLen returns the number of non-redundant bins, n/2 + 1.
func (p *PlanR2C[C]) SpectrumLen() int { return p.n/2 + 1 }

// Forward computes the unscaled DFT of the n real samples in x into the
// n/2+1 bins of out (the remaining bins follow from conjugate symmetry).
func (p *PlanR2C[C]) Forward(x []float64, out []C) {
	h := p.n / 2
	if len(x) != p.n || len(out) < h+1 {
		panic("fft: r2c length mismatch")
	}
	z := p.scratch[:h]
	for k := 0; k < h; k++ {
		z[k] = cmplxAs[C](x[2*k], x[2*k+1])
	}
	p.inner.Transform(z, Forward)
	p.untangle(z, out)
}

// untangle splits the packed half-length spectrum into the true bins:
// X[k] = E[k] + e^{-2πik/n}·O[k], where E and O are the spectra of the
// even and odd samples recovered from Z by symmetry.
func (p *PlanR2C[C]) untangle(z, out []C) {
	h := p.n / 2
	half := cmplxAs[C](0.5, 0)
	mi := cmplxAs[C](0, -0.5)
	for k := 0; k <= h; k++ {
		zk := z[k%h]
		zc := conjC(z[(h-k)%h])
		e := (zk + zc) * half
		o := (zk - zc) * mi
		out[k] = e + p.twiddle[k]*o
	}
}

// Inverse computes the inverse transform of the n/2+1 spectrum bins in
// spec into n real samples, scaled by 1/n so Inverse(Forward(x)) ≈ x.
// spec is not modified.
func (p *PlanR2C[C]) Inverse(spec []C, x []float64) {
	h := p.n / 2
	if len(spec) < h+1 || len(x) != p.n {
		panic("fft: c2r length mismatch")
	}
	// Re-tangle: Z[k] = E[k] + i·conj(twiddle)·O... derived by inverting
	// the untangle relations:
	//   E[k] = (X[k] + conj(X[h-k]))/2
	//   O[k] = (X[k] - conj(X[h-k]))/2 · e^{+2πik/n}
	//   Z[k] = E[k] + i·O[k]
	z := p.scratch[:h]
	half := cmplxAs[C](0.5, 0)
	im := cmplxAs[C](0, 1)
	for k := 0; k < h; k++ {
		xk := spec[k]
		xc := conjC(spec[h-k])
		e := (xk + xc) * half
		o := (xk - xc) * half * conjC(p.twiddle[k])
		z[k] = e + im*o
	}
	p.inner.Transform(z, Inverse)
	scale := 1 / float64(h)
	for k := 0; k < h; k++ {
		re, imPart := parts(z[k])
		x[2*k] = re * scale
		x[2*k+1] = imPart * scale
	}
}

// ForwardBatch transforms count contiguous real vectors of length n
// (vector v at x[v*n:(v+1)*n]) into count contiguous spectra of length
// n/2+1 in out.
func (p *PlanR2C[C]) ForwardBatch(x []float64, out []C, count int) {
	sl := p.SpectrumLen()
	for v := 0; v < count; v++ {
		p.Forward(x[v*p.n:(v+1)*p.n], out[v*sl:(v+1)*sl])
	}
}

// InverseBatch is the inverse of ForwardBatch.
func (p *PlanR2C[C]) InverseBatch(spec []C, x []float64, count int) {
	sl := p.SpectrumLen()
	for v := 0; v < count; v++ {
		p.Inverse(spec[v*sl:(v+1)*sl], x[v*p.n:(v+1)*p.n])
	}
}

// parts extracts float64 components from either complex type.
func parts[C Complex](z C) (re, im float64) {
	switch v := any(z).(type) {
	case complex64:
		return float64(real(v)), float64(imag(v))
	case complex128:
		return real(v), imag(v)
	}
	panic("fft: unsupported complex type")
}
