package exchange

import (
	"runtime"
	"testing"

	"repro/internal/compress"
	"repro/internal/gpu"
	"repro/internal/mpi"
)

// TestSteadyStateExchangeAllocations guards the one-sided epoch at a
// scale where its puts outnumber the engine's pool of recycled inbox
// nodes: 48 ranks put 2,304 times per epoch. Once the ring has run, a
// phantom OSC exchange and a Cast32 CompressedOSC exchange allocate at
// most once each; a put that is queued as an inbox node instead of
// counted where it lands costs one 256-node slab per 256 puts past the
// pool.
func TestSteadyStateExchangeAllocations(t *testing.T) {
	const ops = 5
	cfg := machine(8)
	p := cfg.Ranks()
	cases := []struct {
		name  string
		build func(c *mpi.Comm) func()
	}{
		{"osc-phantom", func(c *mpi.Comm) func() {
			return NewOSCPhantom(c, Uniform(80*1024), true).ExchangeN
		}},
		{"osc-comp32", func(c *mpi.Comm) func() {
			const count = 64
			x := NewCompressedOSC(c, compress.Cast32{}, gpu.NewStream(gpu.V100(), c), 4, UniformCount(count))
			send := make([][]float64, p)
			for d := range send {
				send[d] = make([]float64, count)
				for i := range send[d] {
					send[d][i] = float64(c.Rank()*p+d) + float64(i)/count
				}
			}
			return func() { x.Exchange(send) }
		}},
	}
	for _, tc := range cases {
		var before, after runtime.MemStats
		mpi.Run(cfg, func(c *mpi.Comm) {
			op := tc.build(c)
			op()
			c.Barrier()
			if c.Rank() == 0 {
				runtime.ReadMemStats(&before)
			}
			for i := 0; i < ops; i++ {
				op()
			}
			c.Barrier()
			if c.Rank() == 0 {
				runtime.ReadMemStats(&after)
			}
		})
		perOp := float64(after.Mallocs-before.Mallocs) / ops
		t.Logf("%s: %.1f allocations per steady-state exchange on %d ranks", tc.name, perOp, p)
		if perOp > 1 {
			t.Errorf("%s: %.1f allocations per steady-state exchange on %d ranks, want <= 1", tc.name, perOp, p)
		}
	}
}
