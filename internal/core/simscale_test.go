package core

import (
	"testing"

	"repro/internal/compress"
	"repro/internal/mpi"
	"repro/internal/netsim"
)

// TestSimScaleIsExact holds the scaled-volume mode to its claim: a 16³
// data grid timed at SimScale s charges exactly what the real (16·s)³
// run charges — the same forward time and the same netsim.Stats, bit
// for bit — on every backend, on bricks and with PencilIO, in both
// precisions (the compressed backends are FP64 only) and with one
// method of each fixed-rate compressor family. One known departure is
// asserted exactly, so a fix and a new drift both fail: Bruck pads to
// the maximum pairwise count. In scaled mode each reshape reduces that
// maximum twice at construction, for the data plan and for the
// simulated plan (the bruck builder's maxSend), so the scaled run sends one
// extra AllreduceFloat64 per reshape. Its forward time departs as well,
// by ULPs to 0.03% at 12 ranks and by up to 4.7% at 24 ranks, for a
// cause not isolated.
//
// Variable-rate methods (Lossless) compress the values they are given,
// and Scaled's 8-byte scale header is scaled with its data by the
// compressed transports' wire rule, so neither can be exact and neither
// is claimed (EXPERIMENTS.md note E).
func TestSimScaleIsExact(t *testing.T) {
	const s = 2
	small, big := [3]int{16, 16, 16}, [3]int{16 * s, 16 * s, 16 * s}
	type cell struct {
		opts Options
		c64  bool
	}
	var cells []cell
	for _, b := range []Backend{BackendAlltoallv, BackendOSC, BackendBruck} {
		cells = append(cells, cell{Options{Backend: b}, false}, cell{Options{Backend: b}, true})
	}
	for _, m := range []compress.Method{compress.Cast32{}, compress.Trim{M: 20}, compress.Block{Bits: 12}} {
		for _, b := range []Backend{BackendCompressed, BackendCompressedTwoSided} {
			cells = append(cells, cell{Options{Backend: b, Method: m}, false})
		}
	}
	measure := func(cfg netsim.Config, n [3]int, opts Options, c64 bool) Result {
		if c64 {
			return Measure[complex64](cfg, n, opts, 1, false)
		}
		return Measure[complex128](cfg, n, opts, 1, false)
	}
	for _, ranks := range []int{12, 24} {
		cfg := machine(ranks)
		allreduce := mpi.Run(cfg, func(c *mpi.Comm) { c.AllreduceFloat64("max", 1) }).Stats
		for _, cl := range cells {
			for _, pio := range []bool{false, true} {
				opts := cl.opts
				opts.PencilIO = pio
				name := opts.Backend.String()
				if opts.Method != nil {
					name += "/" + opts.Method.Name()
				}
				if cl.c64 {
					name += "/complex64"
				}
				if pio {
					name += "/pencil-io"
				}
				full := measure(cfg, big, opts, cl.c64)
				opts.SimScale = s
				scaled := measure(cfg, small, opts, cl.c64)

				want, timeDeparts := full.Stats, false
				if opts.Backend == BackendBruck {
					reshapes := 8 // fwd0..3 and bwd0..3
					if pio {
						reshapes = 4
					}
					want.Messages += reshapes * allreduce.Messages
					want.BytesInter += int64(reshapes) * allreduce.BytesInter
					want.BytesIntra += int64(reshapes) * allreduce.BytesIntra
					want.BytesLocal += int64(reshapes) * allreduce.BytesLocal
					timeDeparts = true
				}
				if scaled.Stats != want {
					t.Errorf("%d ranks %s: scaled stats %+v, want %+v (full %+v)", ranks, name, scaled.Stats, want, full.Stats)
				}
				if departs := scaled.ForwardTime != full.ForwardTime; departs != timeDeparts {
					t.Errorf("%d ranks %s: scaled forward time %v, full %v; departure expected: %v",
						ranks, name, scaled.ForwardTime, full.ForwardTime, timeDeparts)
				}
			}
		}
	}
}
