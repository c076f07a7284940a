// Structure factor — a molecular-dynamics analysis kernel (the paper's
// introduction names MD among the FFT's driving applications): particles
// are binned onto a periodic mesh and S(k) = |ρ̂(k)|²/N is read off the
// distributed FFT of the density. The density is real, so the
// real-to-complex plan transforms it into the half spectrum kx ≤ n/2,
// which holds every wavevector checked here. A perfect crystal must
// produce Bragg peaks exactly at the reciprocal-lattice vectors and
// ~nothing between; the run checks both with the lossy-compressed
// exchange in place and exits 1 when the peak misses N.
//
//	go run ./examples/structurefactor
package main

import (
	"fmt"
	"math"
	"os"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/netsim"
)

func main() {
	machine := netsim.Summit(2)
	n := [3]int{32, 32, 32}
	const spacing = 8 // simple cubic crystal: one particle every 8 cells

	var peak, background float64
	var nParticles int
	mpi.Run(machine, func(c *mpi.Comm) {
		plan := core.NewPlanR2C[complex128](c, n, core.Options{
			Backend:   core.BackendCompressed,
			Tolerance: 1e-6,
		})
		box := plan.InBox()

		// Bin the crystal onto this rank's brick of the density mesh.
		rho := make([]float64, box.Count())
		local := 0
		for i := box.Lo[0]; i < box.Hi[0]; i++ {
			for j := box.Lo[1]; j < box.Hi[1]; j++ {
				for k := box.Lo[2]; k < box.Hi[2]; k++ {
					if i%spacing == 0 && j%spacing == 0 && k%spacing == 0 {
						rho[grid.Natural.Index(box, [3]int{i, j, k})] = 1
						local++
					}
				}
			}
		}
		total := int(c.AllreduceFloat64("sum", float64(local)))

		spec := plan.Forward(rho)

		// S(k) at a Bragg peak (4,0,0 in mesh units: 32/8) and at an
		// off-lattice wavevector (1,0,0).
		out := plan.OutBox()
		sAt := func(kx, ky, kz int) float64 {
			if !out.Contains(kx, ky, kz) {
				return -1
			}
			v := spec[plan.OutOrder().Index(out, [3]int{kx, ky, kz})]
			return (real(v)*real(v) + imag(v)*imag(v)) / float64(total)
		}
		pk := c.AllreduceFloat64("max", sAt(n[0]/spacing, 0, 0))
		bg := c.AllreduceFloat64("max", sAt(1, 0, 0))
		if c.Rank() == 0 {
			peak, background, nParticles = pk, bg, total
		}
	})

	// A perfect crystal of N particles has S(G) = N at reciprocal
	// lattice vectors G.
	fmt.Printf("simple cubic crystal, %d particles on a %d³ mesh (12 GPUs)\n", nParticles, n[0])
	fmt.Printf("S(G) at Bragg peak (4,0,0): %.3f   (theory: N = %d)\n", peak, nParticles)
	fmt.Printf("S(k) off-lattice (1,0,0)  : %.2e (theory: 0)\n", background)
	if math.Abs(peak-float64(nParticles)) > 1e-3*float64(nParticles) {
		fmt.Println("FAIL: Bragg peak off theory")
		os.Exit(1)
	}
	fmt.Println("OK: Bragg peaks match theory under compressed communication")
}
