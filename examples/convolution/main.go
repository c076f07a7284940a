// Convolution: smooth a 3-D field with a periodic Gaussian filter using
// the convolution theorem — forward FFT, point-wise multiply by the
// filter's spectrum, inverse FFT — with lossy-compressed communication.
// Gaussians are eigen-like under smoothing, so the result is easy to
// validate: filtering a single Fourier mode must scale it by exactly the
// filter's transfer coefficient.
//
//	go run ./examples/convolution
package main

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/netsim"
)

// The machine and grid the example filters on (main_test.go gates the
// same run).
var (
	machine = netsim.Summit(2) // 12 GPUs
	n       = [3]int{32, 32, 32}
)

const sigma = 0.35 // filter width (radians on the 2π-periodic box)

func main() {
	r := smooth(machine, n)
	fmt.Printf("Gaussian smoothing (σ=%.2f) of a two-mode field on %d GPUs\n", sigma, machine.Ranks())
	fmt.Printf("mode (2,1,0) damped to %.4f, mode (5,0,3) to %.6f\n", r.g1, r.g2)
	fmt.Printf("max abs deviation from analytic filter: %.3e (FP64→FP32 exchange)\n", r.maxErr)
	fmt.Printf("virtual time: %.3f ms\n", r.ms)
}

// result is the run as rank 0 reports it: the two modes' transfer
// coefficients, the largest deviation from the analytic filtered field,
// and the virtual time.
type result struct {
	g1, g2, maxErr, ms float64
}

func smooth(machine netsim.Config, n [3]int) (res result) {
	mpi.Run(machine, func(c *mpi.Comm) {
		plan := core.NewPlan[complex128](c, n, core.Options{
			Backend: core.BackendCompressed,
			Method:  compress.Cast32{},
		})
		box := plan.InBox()
		h := 2 * math.Pi / float64(n[0])

		// Input: a superposition of two Fourier modes.
		const (
			m1 = 2 // mode (2, 1, 0)
			m2 = 5 // mode (5, 0, 3)
		)
		in := make([]complex128, box.Count())
		idx := 0
		for k := box.Lo[2]; k < box.Hi[2]; k++ {
			for j := box.Lo[1]; j < box.Hi[1]; j++ {
				for i := box.Lo[0]; i < box.Hi[0]; i++ {
					x, y, z := float64(i)*h, float64(j)*h, float64(k)*h
					in[idx] = complex(
						math.Cos(m1*x+y)+0.5*math.Cos(m2*x+3*z), 0)
					idx++
				}
			}
		}

		// Forward; multiply by the Gaussian transfer function
		// exp(-σ²|k|²/2); inverse.
		spec := append([]complex128(nil), plan.Forward(in)...)
		out := plan.OutBox()
		idx = 0
		for k := out.Lo[2]; k < out.Hi[2]; k++ {
			for j := out.Lo[1]; j < out.Hi[1]; j++ {
				for i := out.Lo[0]; i < out.Hi[0]; i++ {
					kx, ky, kz := freq(i, n[0]), freq(j, n[1]), freq(k, n[2])
					k2 := float64(kx*kx + ky*ky + kz*kz)
					spec[idx] *= complex(math.Exp(-sigma*sigma*k2/2), 0)
					idx++
				}
			}
		}
		smooth := plan.Backward(spec)

		// Validate: each mode must be scaled by its own transfer factor.
		g1 := math.Exp(-sigma * sigma * (m1*m1 + 1) / 2)
		g2 := math.Exp(-sigma * sigma * (m2*m2 + 9) / 2)
		var maxErr float64
		idx = 0
		for k := box.Lo[2]; k < box.Hi[2]; k++ {
			for j := box.Lo[1]; j < box.Hi[1]; j++ {
				for i := box.Lo[0]; i < box.Hi[0]; i++ {
					x, y, z := float64(i)*h, float64(j)*h, float64(k)*h
					want := g1*math.Cos(m1*x+y) + 0.5*g2*math.Cos(m2*x+3*z)
					if e := cmplx.Abs(smooth[idx] - complex(want, 0)); e > maxErr {
						maxErr = e
					}
					idx++
				}
			}
		}
		maxErr = c.AllreduceFloat64("max", maxErr)
		if c.Rank() == 0 {
			res = result{g1: g1, g2: g2, maxErr: maxErr, ms: c.Now() * 1e3}
		}
	})
	return res
}

func freq(i, n int) int {
	if i <= n/2 {
		return i
	}
	return i - n
}
