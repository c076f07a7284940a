// Heat equation — a pseudo-spectral time integrator: every step performs
// a forward and inverse 3-D FFT (with lossy-compressed exchanges), so a
// T-step run exercises the plan's cached windows 2·T·R times, the
// pattern §V-A's window caching exists for. The temperature field is
// real, so the steps run on the real-to-complex plan: half the spectrum,
// half the first reshape's volume. The single-mode initial condition
// u₀ = sin(3x) has the exact solution e^{−9αt}·sin(3x), so the
// compression error's growth over many steps is measured directly.
//
//	go run ./examples/heat
package main

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/netsim"
)

// The machine and grid the example integrates on (main_test.go gates
// the same runs).
var (
	machine = netsim.Summit(2) // 12 GPUs
	n       = [3]int{32, 32, 32}
)

const (
	alpha = 0.05 // diffusivity
	dt    = 0.01 // time step
	steps = 50
)

func main() {
	for _, etol := range []float64{0, 1e-7} {
		relErr, elapsed := integrate(machine, n, etol)
		label := "FP64 exchange          "
		if etol > 0 {
			label = fmt.Sprintf("compressed (e_tol=%.0e)", etol)
		}
		fmt.Printf("heat eq, %d steps, %s: rel.err vs analytic %.3e, %.2f ms virtual\n",
			steps, label, relErr, elapsed*1e3)
	}
	fmt.Println("(100 transforms per run reuse the same cached one-sided windows — §V-A)")
}

// integrate runs the steps with exact exchanges (etol 0) or compressed
// ones at tolerance etol, and returns the relative error against the
// analytic solution and the steps' virtual time in seconds.
func integrate(machine netsim.Config, n [3]int, etol float64) (relErr, elapsed float64) {
	mpi.Run(machine, func(c *mpi.Comm) {
		opts := core.Options{Backend: core.BackendAlltoallv}
		if etol > 0 {
			opts = core.Options{Backend: core.BackendCompressed, Tolerance: etol}
		}
		plan := core.NewPlanR2C[complex128](c, n, opts)
		box := plan.InBox()
		h := 2 * math.Pi / float64(n[0])

		u := make([]float64, box.Count())
		idx := 0
		for k := box.Lo[2]; k < box.Hi[2]; k++ {
			for j := box.Lo[1]; j < box.Hi[1]; j++ {
				for i := box.Lo[0]; i < box.Hi[0]; i++ {
					u[idx] = math.Sin(3 * float64(i) * h)
					idx++
				}
			}
		}

		// Precompute the per-step decay factors e^{−α|k|²·dt} over
		// this rank's share of the half spectrum, in its memory order.
		out := plan.OutBox()
		decay := make([]float64, out.Count())
		for k := out.Lo[2]; k < out.Hi[2]; k++ {
			for j := out.Lo[1]; j < out.Hi[1]; j++ {
				for i := out.Lo[0]; i < out.Hi[0]; i++ {
					kx, ky, kz := wrap(i, n[0]), wrap(j, n[1]), wrap(k, n[2])
					k2 := float64(kx*kx + ky*ky + kz*kz)
					decay[plan.OutOrder().Index(out, [3]int{i, j, k})] = math.Exp(-alpha * k2 * dt)
				}
			}
		}

		t0 := c.Now()
		for step := 0; step < steps; step++ {
			spec := plan.Forward(u)
			for i := range spec {
				spec[i] *= complex(decay[i], 0)
			}
			copy(u, plan.Backward(spec))
		}
		dtWall := c.Now() - t0

		// Compare to the analytic solution at t = steps·dt.
		amp := math.Exp(-9 * alpha * dt * steps)
		var errSq, normSq float64
		idx = 0
		for k := box.Lo[2]; k < box.Hi[2]; k++ {
			for j := box.Lo[1]; j < box.Hi[1]; j++ {
				for i := box.Lo[0]; i < box.Hi[0]; i++ {
					want := amp * math.Sin(3*float64(i)*h)
					d := u[idx] - want
					errSq += d * d
					normSq += want * want
					idx++
				}
			}
		}
		errSq = c.AllreduceFloat64("sum", errSq)
		normSq = c.AllreduceFloat64("sum", normSq)
		if c.Rank() == 0 {
			relErr = math.Sqrt(errSq / normSq)
			elapsed = dtWall
		}
	})
	return relErr, elapsed
}

func wrap(i, n int) int {
	if i > n/2 {
		return i - n
	}
	return i
}
