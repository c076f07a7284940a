package mpi

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/netsim"
)

func cfgN(ranks int) netsim.Config {
	cfg := netsim.Summit((ranks + 5) / 6)
	if ranks%6 != 0 {
		cfg.GPUsPerNode = 1
		cfg.Nodes = ranks
	}
	return cfg
}

// Put is PutLogical charging the payload's own size, the form the tests
// put real bytes with.
func (w *Win) Put(target, offset int, data []byte) (completion float64) {
	return w.PutLogical(target, offset, data, len(data))
}

func TestSendRecvEager(t *testing.T) {
	Run(cfgN(2), func(c *Comm) {
		if c.Rank() == 0 {
			data := []byte("hello")
			c.Send(1, 3, data)
			data[0] = 'X' // eager buffers: mutation must not corrupt the message
		} else if c.Rank() == 1 {
			got := c.Recv(0, 3)
			if string(got) != "hello" {
				t.Errorf("got %q", got)
			}
		}
	})
}

func TestRendezvousSurcharge(t *testing.T) {
	// A large message's arrival includes the handshake round trip.
	big := 1 << 20
	cfg := cfgN(12)
	var eagerT, rdvT float64
	Run(cfg, func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.SetEagerThreshold(big + 1)
			c.SendN(6, 1, big)
		case 6:
			c.SetEagerThreshold(big + 1)
			pkt := c.RecvPacket(0, 1)
			eagerT = pkt.Arrival
		}
	})
	Run(cfg, func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.SendN(6, 1, big) // default threshold: rendezvous
		case 6:
			pkt := c.RecvPacket(0, 1)
			rdvT = pkt.Arrival
		}
	})
	// The rendezvous message pays the handshake round trip in latency
	// plus the per-message protocol occupancy on the NIC.
	wantDelta := 2*cfg.InterLatency + cfg.ProtoOverheadInter
	if math.Abs((rdvT-eagerT)-wantDelta) > 1e-12 {
		t.Errorf("rendezvous surcharge = %g, want %g", rdvT-eagerT, wantDelta)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	// After a barrier, everyone's clock is at least the latest arrival
	// caused by the slowest rank's pre-barrier work.
	clocks := make([]float64, 12)
	Run(cfgN(12), func(c *Comm) {
		if c.Rank() == 5 {
			c.Elapse(1e-3)
		}
		c.Barrier()
		clocks[c.Rank()] = c.Now()
	})
	for r, ck := range clocks {
		if ck < 1e-3 {
			t.Errorf("rank %d clock %g below straggler time", r, ck)
		}
	}
}

func TestBarrierRepeated(t *testing.T) {
	// Successive barriers must not cross-talk via stale tags.
	Run(cfgN(7), func(c *Comm) {
		for i := 0; i < 5; i++ {
			c.Barrier()
		}
	})
}

func TestAllreduce(t *testing.T) {
	Run(cfgN(8), func(c *Comm) {
		v := float64(c.Rank() + 1)
		if got := c.AllreduceFloat64("sum", v); got != 36 {
			t.Errorf("sum = %g", got)
		}
		if got := c.AllreduceFloat64("max", v); got != 8 {
			t.Errorf("max = %g", got)
		}
		if got := c.AllreduceFloat64("min", v); got != 1 {
			t.Errorf("min = %g", got)
		}
	})
}

func TestAlltoallvCorrectness(t *testing.T) {
	for _, p := range []int{1, 2, 5, 12} {
		Run(cfgN(p), func(c *Comm) {
			send := make([][]byte, p)
			for d := 0; d < p; d++ {
				// Variable sizes: rank r sends r+d+1 bytes to d.
				send[d] = bytes.Repeat([]byte{byte(10*c.Rank() + d)}, c.Rank()+d+1)
			}
			recv := c.Alltoallv(send)
			for s := 0; s < p; s++ {
				want := bytes.Repeat([]byte{byte(10*s + c.Rank())}, s+c.Rank()+1)
				if !bytes.Equal(recv[s], want) {
					t.Errorf("p=%d rank %d from %d: got %v want %v", p, c.Rank(), s, recv[s], want)
				}
			}
		})
	}
}

func TestAlltoallvPhantomStats(t *testing.T) {
	p := 12
	res := Run(cfgN(p), func(c *Comm) {
		sizes := make([]int, p)
		for i := range sizes {
			sizes[i] = 1000
		}
		c.AlltoallvN(sizes)
	})
	wantTotal := int64(p * p * 1000)
	got := res.Stats.BytesInter + res.Stats.BytesIntra + res.Stats.BytesLocal
	if got != wantTotal {
		t.Errorf("total bytes %d, want %d", got, wantTotal)
	}
}

func TestWindowPutFence(t *testing.T) {
	p := 6
	Run(cfgN(p), func(c *Comm) {
		buf := make([]byte, p) // one byte slot per source
		win := c.WinCreate(buf)
		// Everyone puts its rank id into slot[rank] of every window.
		for target := 0; target < p; target++ {
			win.Put(target, c.Rank(), []byte{byte(c.Rank() + 100)})
		}
		expected := make([]int, p)
		for i := range expected {
			expected[i] = 1
		}
		win.Fence(expected)
		for s := 0; s < p; s++ {
			if buf[s] != byte(s+100) {
				t.Errorf("rank %d slot %d = %d", c.Rank(), s, buf[s])
			}
		}
	})
}

func TestWindowFenceEpochsReset(t *testing.T) {
	p := 4
	Run(cfgN(p), func(c *Comm) {
		buf := make([]byte, 8*p)
		win := c.WinCreate(buf)
		for epoch := 0; epoch < 3; epoch++ {
			for target := 0; target < p; target++ {
				win.Put(target, 8*c.Rank(), []byte{byte(epoch)})
			}
			if win.puts[0] != 1 {
				t.Errorf("puts issued tracking broken")
			}
			expected := make([]int, p)
			for i := range expected {
				expected[i] = 1
			}
			win.Fence(expected)
			for s := 0; s < p; s++ {
				if buf[8*s] != byte(epoch) {
					t.Errorf("epoch %d slot %d = %d", epoch, s, buf[8*s])
				}
			}
		}
	})
}

func TestWindowCachingCheaperThanRecreate(t *testing.T) {
	p := 12
	iters := 8
	cached := Run(cfgN(p), func(c *Comm) {
		win := c.WinCreate(make([]byte, 64))
		for i := 0; i < iters; i++ {
			win.Fence(nil)
		}
	})
	recreate := Run(cfgN(p), func(c *Comm) {
		for i := 0; i < iters; i++ {
			win := c.WinCreate(make([]byte, 64))
			win.Fence(nil)
		}
	})
	if cached.Time >= recreate.Time {
		t.Errorf("window caching not cheaper: cached %g vs recreate %g", cached.Time, recreate.Time)
	}
}

func TestUserTagValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on invalid tag")
		}
	}()
	Run(cfgN(2), func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, tagUserLimit, nil)
		} else {
			c.Recv(0, 0)
		}
	})
}

func TestByteConversions(t *testing.T) {
	f64 := []float64{0, 1.5, -2.25, math.Pi}
	if got := BytesToFloat64s(Float64sToBytes(f64)); !reflect.DeepEqual(got, f64) {
		t.Errorf("float64 round trip: %v", got)
	}
}
