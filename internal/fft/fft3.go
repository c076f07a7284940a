package fft

import "math"

// Transform3D computes an unscaled 3-D DFT in place on a contiguous
// row-major grid of size n0×n1×n2, where element (i0,i1,i2) lives at
// x[i0 + n0*(i1 + n1*i2)] (axis 0 fastest). It is the serial oracle the
// distributed transform is validated against.
func Transform3D[C Complex](x []C, n0, n1, n2, sign int) {
	if len(x) != n0*n1*n2 {
		panic("fft: 3-D size mismatch")
	}
	p0 := NewPlan[C](n0)
	p1 := NewPlan[C](n1)
	p2 := NewPlan[C](n2)
	Transform3DWithPlans(x, p0, p1, p2, sign)
}

// Transform3DWithPlans is Transform3D with caller-provided plans, so
// repeated transforms of the same shape avoid replanning.
func Transform3DWithPlans[C Complex](x []C, p0, p1, p2 *Plan[C], sign int) {
	n0, n1, n2 := p0.n, p1.n, p2.n
	// Axis 0: contiguous vectors.
	p0.Batch(x, n1*n2, sign)
	// Axis 1: stride n0 within each k-plane.
	for k := 0; k < n2; k++ {
		plane := x[k*n0*n1 : (k+1)*n0*n1]
		p1.BatchStrided(plane, n0, n0, 1, sign)
	}
	// Axis 2: stride n0*n1, one batch per (i0,i1) column.
	p2.BatchStrided(x, n0*n1, n0*n1, 1, sign)
}

// Forward3D computes the unscaled forward 3-D DFT in place.
func Forward3D[C Complex](x []C, n0, n1, n2 int) {
	Transform3D(x, n0, n1, n2, Forward)
}

// FlopCount returns the standard 5·N·log2(N) flop estimate for a complex
// transform of total size n (the metric the paper's Gflop/s figures use).
func FlopCount(n int) float64 {
	if n <= 1 {
		return 0
	}
	return 5 * float64(n) * math.Log2(float64(n))
}
