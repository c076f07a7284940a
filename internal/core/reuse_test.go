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
	for _, row := range Backends {
		b := row.Backend
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
	for _, row := range Backends {
		b := row.Backend
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

// TestCompressedPlanFootprint bounds the live heap of a 64³ plan on 24
// ranks after one Forward, on every backend, at its measured figure ×
// 1.25. What is left is the input, the forward reshapes' outputs and
// exchange buffers, and the plan's tables: every exchange allocates its
// buffers (window memory and staging, send blocks, Bruck's area) on its
// first call, so the four backward reshapes hold none, and the
// compressed backends hold no FP64 send block and no decoded receive
// buffers. An exchange that allocates at construction again fails here:
// at construction the backward windows alone put the one-sided rows
// past their bound.
func TestCompressedPlanFootprint(t *testing.T) {
	const margin = 1.25
	measured := map[Backend]float64{
		BackendAlltoallv:          38.5e6,
		BackendBruck:              407.6e6, // every pair padded to the global maximum overlap
		BackendOSC:                55.6e6,
		BackendCompressed:         42.3e6,
		BackendCompressedTwoSided: 32.9e6,
	}
	for _, row := range Backends {
		opts := Options{Backend: row.Backend}
		if row.Compressed {
			opts.Method = compress.Cast32{}
		}
		var ms runtime.MemStats
		mpi.Run(machine(24), func(c *mpi.Comm) {
			pl := NewPlan[complex128](c, [3]int{64, 64, 64}, opts)
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
		live, want := float64(ms.HeapAlloc), measured[row.Backend]*margin
		t.Logf("%s: live heap after one Forward: %.1f MB", row.Name, live/1e6)
		if live > want {
			t.Errorf("%s: live heap after one Forward is %.1f MB, want <= %.1f MB (measured %.1f MB × %.2f)",
				row.Name, live/1e6, want/1e6, measured[row.Backend]/1e6, margin)
		}
	}
}
