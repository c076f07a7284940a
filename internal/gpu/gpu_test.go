package gpu

import (
	"math"
	"testing"
)

// fakeClock implements Clock for tests.
type fakeClock struct{ t float64 }

func (c *fakeClock) Now() float64     { return c.t }
func (c *fakeClock) Elapse(d float64) { c.t += d }
func (c *fakeClock) AdvanceTo(t float64) {
	if t > c.t {
		c.t = t
	}
}

func TestFFTCostScaling(t *testing.T) {
	d := V100()
	small := d.FFTCost(1024, 1, 64)
	big := d.FFTCost(1024, 1000, 64)
	if big <= small {
		t.Error("batched FFT not more expensive")
	}
	// FP32 at least as fast as FP64 for the same shape.
	if d.FFTCost(4096, 100, 32) > d.FFTCost(4096, 100, 64) {
		t.Error("FP32 FFT slower than FP64")
	}
	// Large batch approaches the flop model: 5 n log2 n count / rate.
	n, count := 4096, 10000
	want := 5 * float64(n) * math.Log2(float64(n)) * float64(count) / d.FFTFlops64
	got := d.FFTCost(n, count, 64)
	if got < want {
		t.Errorf("FFT cost %g below flop model %g", got, want)
	}
}

func TestCostFloors(t *testing.T) {
	d := V100()
	if d.FFTCost(1, 0, 64) != d.KernelLatency {
		t.Error("degenerate FFT should cost kernel latency")
	}
	if d.CopyCost(1) != d.KernelLatency {
		t.Error("tiny copy should cost kernel latency")
	}
	if d.CompressCost(1, 1) != d.KernelLatency {
		t.Error("tiny compress should cost kernel latency")
	}
}

func TestCopyCostBandwidthBound(t *testing.T) {
	d := V100()
	bytes := 1 << 30
	want := 2 * float64(bytes) / d.MemBW
	if got := d.CopyCost(bytes); math.Abs(got-want) > 1e-12 {
		t.Errorf("copy cost %g, want %g", got, want)
	}
}

func TestStreamInOrderExecution(t *testing.T) {
	clk := &fakeClock{}
	s := NewStream(V100(), clk)
	var order []int
	t1 := s.Launch(1e-3, func() { order = append(order, 1) })
	t2 := s.Launch(2e-3, func() { order = append(order, 2) })
	if !(t2 > t1) {
		t.Errorf("completions not increasing: %g then %g", t1, t2)
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Errorf("work ran out of order: %v", order)
	}
	// Kernel 2 starts only after kernel 1: t2 ≥ t1 + cost2.
	if t2 < t1+2e-3 {
		t.Errorf("kernel 2 overlapped kernel 1")
	}
}

func TestStreamSynchronize(t *testing.T) {
	clk := &fakeClock{}
	s := NewStream(V100(), clk)
	done := s.Launch(5e-3, nil)
	if s.ReadyAt() <= clk.Now() {
		t.Error("stream should be busy after launch")
	}
	s.Synchronize()
	if clk.Now() < done {
		t.Errorf("host clock %g before kernel completion %g", clk.Now(), done)
	}
	if s.ReadyAt() > clk.Now() {
		t.Error("stream busy after synchronize")
	}
}

func TestStreamChargesLaunchOverheadToHost(t *testing.T) {
	clk := &fakeClock{}
	d := V100()
	s := NewStream(d, clk)
	s.Launch(1e-3, nil)
	if math.Abs(clk.Now()-d.KernelLaunch) > 1e-15 {
		t.Errorf("host clock after launch = %g, want %g", clk.Now(), d.KernelLaunch)
	}
}

func TestStreamIdleGapRestartsAtHostTime(t *testing.T) {
	clk := &fakeClock{}
	s := NewStream(V100(), clk)
	s.Launch(1e-6, nil)
	s.Synchronize()
	clk.Elapse(1) // long host pause
	done := s.Launch(1e-6, nil)
	if done < 1 {
		t.Errorf("kernel completed at %g, before host time", done)
	}
}

func TestCompressCostAsymmetric(t *testing.T) {
	d := V100()
	// Compressing 8 MB down to 4 MB and decompressing 4 MB up to 8 MB
	// cost the same (both stream 12 MB through memory).
	c := d.CompressCost(8<<20, 4<<20)
	dec := d.CompressCost(4<<20, 8<<20)
	if c != dec {
		t.Errorf("compress %g != decompress %g", c, dec)
	}
	want := float64(12<<20) / d.MemBW
	if math.Abs(c-want) > 1e-12 {
		t.Errorf("compress cost %g, want %g", c, want)
	}
}

func TestFFTCostMemoryBoundFloor(t *testing.T) {
	d := V100()
	// A tiny transform over a huge batch is memory-bound: cost tracks
	// two full sweeps of the data, not the flop model.
	n, batch := 2, 1_000_000
	got := d.FFTCost(n, batch, 64)
	floor := 2 * 16.0 * float64(n) * float64(batch) / d.MemBW
	if got < floor {
		t.Errorf("FFT cost %g below memory floor %g", got, floor)
	}
}

func TestTwoStreamsIndependentTimelines(t *testing.T) {
	clk := &fakeClock{}
	a := NewStream(V100(), clk)
	b := NewStream(V100(), clk)
	ta := a.Launch(1e-3, nil)
	tb := b.Launch(1e-3, nil)
	// Streams model independent queues: the second stream's kernel does
	// not wait for the first stream's.
	if tb-ta > 1e-4 {
		t.Errorf("streams serialized: %g then %g", ta, tb)
	}
}
