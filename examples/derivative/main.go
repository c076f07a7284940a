// Spectral derivative: compute ∂u/∂x of a periodic field by multiplying
// the spectrum with i·kx, comparing the compressed-communication FFT
// against the analytic derivative — and against the same computation in
// a full FP32 pipeline, reproducing the mixed-precision accuracy
// advantage on a calculus workload.
//
//	go run ./examples/derivative
package main

import (
	"fmt"
	"math"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/fft"
	"repro/internal/mpi"
	"repro/internal/netsim"
)

// The machine and grid the example differentiates on (main_test.go
// gates the same runs).
var (
	machine = netsim.Summit(2) // 12 GPUs
	n       = [3]int{32, 32, 32}
)

func main() {
	errMP := derivativeError[complex128](machine, n, core.Options{
		Backend: core.BackendCompressed, Method: compress.Cast32{},
	})
	err32 := derivativeError[complex64](machine, n, core.Options{Backend: core.BackendAlltoallv})
	err64 := derivativeError[complex128](machine, n, core.Options{Backend: core.BackendAlltoallv})

	fmt.Printf("∂/∂x of sin(3x)cos(2y)cos(z) on a %d³ grid, 12 GPUs\n", n[0])
	fmt.Printf("FP64 pipeline                 : rel.err %.3e\n", err64)
	fmt.Printf("FP64 compute, FP32 exchange   : rel.err %.3e\n", errMP)
	fmt.Printf("FP32 pipeline                 : rel.err %.3e\n", err32)
	fmt.Printf("mixed precision is %.1fx more accurate than full FP32\n", err32/errMP)
}

func derivativeError[C fft.Complex](machine netsim.Config, n [3]int, opts core.Options) float64 {
	var rel float64
	mpi.Run(machine, func(c *mpi.Comm) {
		plan := core.NewPlan[C](c, n, opts)
		box := plan.InBox()
		h := 2 * math.Pi / float64(n[0])

		in := make([]C, box.Count())
		want := make([]float64, box.Count())
		idx := 0
		for k := box.Lo[2]; k < box.Hi[2]; k++ {
			for j := box.Lo[1]; j < box.Hi[1]; j++ {
				for i := box.Lo[0]; i < box.Hi[0]; i++ {
					x, y, z := float64(i)*h, float64(j)*h, float64(k)*h
					in[idx] = cset[C](math.Sin(3*x) * math.Cos(2*y) * math.Cos(z))
					want[idx] = 3 * math.Cos(3*x) * math.Cos(2*y) * math.Cos(z)
					idx++
				}
			}
		}

		spec := append([]C(nil), plan.Forward(in)...)
		out := plan.OutBox()
		idx = 0
		for k := out.Lo[2]; k < out.Hi[2]; k++ {
			for j := out.Lo[1]; j < out.Hi[1]; j++ {
				for i := out.Lo[0]; i < out.Hi[0]; i++ {
					kx := freq(i, n[0])
					if 2*i == n[0] {
						kx = 0 // Nyquist mode of an odd derivative
					}
					spec[idx] *= cmul[C](0, float64(kx))
					idx++
				}
			}
		}
		du := plan.Backward(spec)

		var errSq, normSq float64
		for i := range du {
			d := float64(real(complex128(du[i]))) - want[i]
			errSq += d * d
			normSq += want[i] * want[i]
		}
		errSq = c.AllreduceFloat64("sum", errSq)
		normSq = c.AllreduceFloat64("sum", normSq)
		if c.Rank() == 0 {
			rel = math.Sqrt(errSq / normSq)
		}
	})
	return rel
}

func cset[C fft.Complex](re float64) C {
	var z C
	if _, ok := any(z).(complex64); ok {
		return C(complex(float32(re), 0))
	}
	return C(complex(re, 0))
}

func cmul[C fft.Complex](re, im float64) C {
	var z C
	if _, ok := any(z).(complex64); ok {
		return C(complex(float32(re), float32(im)))
	}
	return C(complex(re, im))
}

func freq(i, n int) int {
	if i <= n/2 {
		return i
	}
	return i - n
}
