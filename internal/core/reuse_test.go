package core

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/compress"
	"repro/internal/grid"
	"repro/internal/mpi"
)

// TestRepeatedTransformsBitIdentical: every reshape packs into the same
// wire buffers on every call, so back-to-back transforms must reproduce
// the first call's output bit for bit, with one rank running behind the
// others. Every backend, the PencilIO configuration (two reshapes per
// direction, so a reshape's next call comes soonest) and the
// real-to-complex plan are covered.
// The lease rules that keep a reused buffer from reaching a receiver
// early are tested in mpi and exchange: here every reshape's next call
// depends on data its receivers send only after unpacking, so the
// pipeline never finds a lease busy.
func TestRepeatedTransformsBitIdentical(t *testing.T) {
	const ranks, calls, slow = 12, 5, 7
	n := [3]int{16, 8, 8}
	delay := func(c *mpi.Comm) {
		if c.Rank() == slow {
			c.Elapse(1e-3)
		}
	}
	same := func(name string, call int, got []complex128, first *[]complex128) {
		if call == 0 {
			*first = slices.Clone(got)
		} else if !slices.Equal(got, *first) {
			t.Errorf("%s: call %d differs from call 0", name, call)
		}
	}
	cfg := machine(ranks)
	for _, b := range []Backend{BackendAlltoallv, BackendOSC, BackendCompressed, BackendCompressedTwoSided, BackendBruck} {
		for _, pencil := range []bool{false, true} {
			opts := Options{Backend: b, PencilIO: pencil}
			if b.compressed() {
				opts.Method = compress.Cast32{}
			}
			name := b.String()
			if pencil {
				name += "/pencil"
			}
			mpi.Run(cfg, func(c *mpi.Comm) {
				pl := NewPlan[complex128](c, n, opts)
				in := make([]complex128, pl.InBox().Count())
				FillBox(in, pl.InBox(), pl.InOrder(), 3)
				var fwd, bwd []complex128
				for call := 0; call < calls; call++ {
					delay(c)
					out := pl.Forward(in)
					same(name+" forward", call, out, &fwd)
					delay(c)
					same(name+" backward", call, pl.Backward(out), &bwd)
				}
			})
		}
	}
	mpi.Run(cfg, func(c *mpi.Comm) {
		pl := NewPlanR2C[complex128](c, n, Options{Backend: BackendAlltoallv})
		in := make([]float64, pl.InBox().Count())
		fillRealBrick(in, pl.InBox(), 3)
		var fwd []complex128
		var bwd []float64
		for call := 0; call < calls; call++ {
			delay(c)
			out := pl.Forward(in)
			same("r2c forward", call, out, &fwd)
			delay(c)
			back := pl.Backward(out)
			if call == 0 {
				bwd = slices.Clone(back)
			} else if !slices.Equal(back, bwd) {
				t.Errorf("r2c backward: call %d differs from call 0", call)
			}
		}
	})
}

// TestSteadyStateForwardAllocations guards the reused wire buffers: once
// a plan has run, a forward 64³ transform on 24 ranks allocates at most
// 1 MB in total on every backend (each of its four reshapes moves 4 MB,
// which used to be allocated afresh on every call, and Bruck's rounds
// several times that).
func TestSteadyStateForwardAllocations(t *testing.T) {
	const ops = 3
	n := [3]int{64, 64, 64}
	for _, b := range []Backend{BackendAlltoallv, BackendOSC, BackendBruck, BackendCompressed, BackendCompressedTwoSided} {
		opts := Options{Backend: b, SimScale: 16}
		if b.compressed() {
			opts.Method = compress.Cast32{}
		}
		var before, after runtime.MemStats
		mpi.Run(machine(24), func(c *mpi.Comm) {
			pl := NewPlan[complex128](c, n, opts)
			in := make([]complex128, pl.InBox().Count())
			FillBox(in, pl.InBox(), grid.Natural, 1)
			pl.Forward(in)
			c.Barrier()
			if c.Rank() == 0 {
				runtime.ReadMemStats(&before)
			}
			for i := 0; i < ops; i++ {
				pl.Forward(in)
			}
			c.Barrier()
			if c.Rank() == 0 {
				runtime.ReadMemStats(&after)
			}
		})
		perOp := float64(after.TotalAlloc-before.TotalAlloc) / ops
		t.Logf("%s: steady-state Forward allocates %.3f MB per call", b, perOp/1e6)
		if perOp > 1e6 {
			t.Errorf("%s: steady-state Forward allocates %.2f MB, want <= 1 MB", b, perOp/1e6)
		}
	}
}

// TestCompressedPlanFootprint bounds the live heap of a 64³ compressed
// plan on 24 ranks after one Forward: the compressed reshapes hold no
// FP64 send block and their transports no decoded receive buffers, so
// what is left is the input, the outputs, the windows and the
// compressed staging. Measured 61.0 MB; the layout before, which staged
// the pencil twice in FP64 per reshape, held 111.2 MB.
func TestCompressedPlanFootprint(t *testing.T) {
	const measured, margin = 61.0e6, 1.25
	var ms runtime.MemStats
	mpi.Run(machine(24), func(c *mpi.Comm) {
		pl := NewPlan[complex128](c, [3]int{64, 64, 64}, Options{Backend: BackendCompressed, Method: compress.Cast32{}})
		in := make([]complex128, pl.InBox().Count())
		FillBox(in, pl.InBox(), grid.Natural, 1)
		pl.Forward(in)
		c.Barrier()
		if c.Rank() == 0 {
			runtime.GC()
			runtime.ReadMemStats(&ms)
		}
		c.Barrier()
		runtime.KeepAlive(pl)
		runtime.KeepAlive(in)
	})
	t.Logf("live heap after one Forward: %.1f MB", float64(ms.HeapAlloc)/1e6)
	if float64(ms.HeapAlloc) > measured*margin {
		t.Errorf("live heap after one Forward is %.1f MB, want <= %.1f MB (measured %.1f MB × %.2f)",
			float64(ms.HeapAlloc)/1e6, measured*margin/1e6, measured/1e6, margin)
	}
}
