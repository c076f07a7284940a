// Poisson-type spectral solver — Algorithm 2 of the paper: solve
//
//	−∇²u + u = f   on  Ω = [0, 2π)³, periodic
//
// with forward/inverse FFTs whose communication is lossy-compressed
// under a user error tolerance e_tol. The manufactured solution
// u = sin(x)·cos(2y)·sin(3z) gives f = 15·u exactly, so the numeric
// error is measured against the analytic u.
//
//	go run ./examples/poisson
package main

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/netsim"
)

// The machine and grid the example solves on (main_test.go gates the
// same solves).
var (
	machine = netsim.Summit(2) // 12 GPUs
	n       = [3]int{32, 32, 32}
)

func main() {
	for _, etol := range []float64{0, 1e-4, 1e-8} {
		r := solve(machine, n, etol)
		fmt.Printf("−∇²u+u=f, %d³ grid, %d GPUs, %-34s rel.err = %.3e, t = %.2f ms\n",
			n[0], machine.Ranks(), r.label, r.relErr, r.ms)
	}
}

// result is one solve as rank 0 reports it: the exchange it used, the
// relative L2 error against the analytic u, and the virtual time.
type result struct {
	label      string
	relErr, ms float64
}

func solve(machine netsim.Config, n [3]int, etol float64) (res result) {
	mpi.Run(machine, func(c *mpi.Comm) {
		opts := core.Options{Backend: core.BackendAlltoallv}
		if etol > 0 {
			opts = core.Options{Backend: core.BackendCompressed, Tolerance: etol}
		}
		plan := core.NewPlan[complex128](c, n, opts)
		box := plan.InBox()
		h := [3]float64{2 * math.Pi / float64(n[0]), 2 * math.Pi / float64(n[1]), 2 * math.Pi / float64(n[2])}

		// Step 1: sample f = 15·u at this rank's grid points.
		f := make([]complex128, box.Count())
		uExact := make([]float64, box.Count())
		idx := 0
		for k := box.Lo[2]; k < box.Hi[2]; k++ {
			for j := box.Lo[1]; j < box.Hi[1]; j++ {
				for i := box.Lo[0]; i < box.Hi[0]; i++ {
					u := math.Sin(float64(i)*h[0]) * math.Cos(2*float64(j)*h[1]) * math.Sin(3*float64(k)*h[2])
					uExact[idx] = u
					f[idx] = complex(15*u, 0)
					idx++
				}
			}
		}

		// Step 2: ĝ = FFT(f, e_tol).
		g := append([]complex128(nil), plan.Forward(f)...)

		// Step 3: scale point-wise by the symbol 1/(1 + |k|²).
		out := plan.OutBox()
		idx = 0
		for k := out.Lo[2]; k < out.Hi[2]; k++ {
			for j := out.Lo[1]; j < out.Hi[1]; j++ {
				for i := out.Lo[0]; i < out.Hi[0]; i++ {
					kx, ky, kz := freq(i, n[0]), freq(j, n[1]), freq(k, n[2])
					g[idx] /= complex(1+float64(kx*kx+ky*ky+kz*kz), 0)
					idx++
				}
			}
		}

		// Step 4: u = IFFT(ĝ, e_tol).
		u := plan.Backward(g)

		// Compare with the analytic solution.
		var errSq, normSq float64
		for i := range u {
			d := real(u[i]) - uExact[i]
			errSq += d * d
			normSq += uExact[i] * uExact[i]
		}
		errSq = c.AllreduceFloat64("sum", errSq)
		normSq = c.AllreduceFloat64("sum", normSq)

		if c.Rank() == 0 {
			res = result{"exact FP64 communication", math.Sqrt(errSq / normSq), c.Now() * 1e3}
			if etol > 0 {
				res.label = fmt.Sprintf("e_tol = %.0e (%s)", etol, plan.Method().Name())
			}
		}
	})
	return res
}

// freq maps a DFT bin to its signed integer frequency.
func freq(i, n int) int {
	if i <= n/2 {
		return i
	}
	return i - n
}
