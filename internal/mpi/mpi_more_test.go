package mpi

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

// TestAllreduceNonPowerOfTwo exercises the fold step of recursive
// doubling across awkward rank counts.
func TestAllreduceNonPowerOfTwo(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 6, 7, 9, 11, 12, 13} {
		p := p
		Run(cfgN(p), func(c *Comm) {
			v := float64(c.Rank()*c.Rank() + 1)
			want := 0.0
			for r := 0; r < p; r++ {
				want += float64(r*r + 1)
			}
			if got := c.AllreduceFloat64("sum", v); math.Abs(got-want) > 1e-9 {
				t.Errorf("p=%d rank=%d: sum=%g want %g", p, c.Rank(), got, want)
			}
		})
	}
}

func TestAllreduceAgreesEverywhere(t *testing.T) {
	p := 11
	results := make([]float64, p)
	Run(cfgN(p), func(c *Comm) {
		results[c.Rank()] = c.AllreduceFloat64("max", float64((c.Rank()*7)%5))
	})
	for r := 1; r < p; r++ {
		if results[r] != results[0] {
			t.Fatalf("rank %d disagrees: %g vs %g", r, results[r], results[0])
		}
	}
}

func TestAllreducePropertyRandomValues(t *testing.T) {
	f := func(vals [6]float64) bool {
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				vals[i] = 0
			}
		}
		ok := true
		Run(cfgN(6), func(c *Comm) {
			got := c.AllreduceFloat64("min", vals[c.Rank()])
			want := vals[0]
			for _, v := range vals[1:] {
				want = math.Min(want, v)
			}
			if got != want {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestAlltoallvSparseAsymmetric: the sparse pattern need not be
// symmetric — rank r sends only to (r+1) mod p.
func TestAlltoallvSparseAsymmetric(t *testing.T) {
	p := 7
	Run(cfgN(p), func(c *Comm) {
		send := make([][]byte, p)
		recvNonzero := make([]bool, p)
		for d := range send {
			send[d] = []byte{}
		}
		send[(c.Rank()+1)%p] = []byte{byte(c.Rank() + 50)}
		recvNonzero[(c.Rank()-1+p)%p] = true
		recv := c.AlltoallvSparse(send, recvNonzero, nil)
		src := (c.Rank() - 1 + p) % p
		if len(recv[src]) != 1 || recv[src][0] != byte(src+50) {
			t.Errorf("rank %d: got %v from %d", c.Rank(), recv[src], src)
		}
		for s := range recv {
			if s != src && recv[s] != nil {
				t.Errorf("unexpected data from %d", s)
			}
		}
	})
}

// TestAlltoallvLogicalSizesAffectTimingOnly: scaled logical sizes slow
// the exchange down without touching payloads.
func TestAlltoallvLogicalSizesAffectTimingOnly(t *testing.T) {
	p := 12
	run := func(logical []int) (time float64, sample byte) {
		Run(cfgN(p), func(c *Comm) {
			send := make([][]byte, p)
			nonzero := make([]bool, p)
			for d := range send {
				send[d] = []byte{byte(c.Rank()), byte(d)}
				nonzero[d] = true
			}
			recv := c.AlltoallvSparse(send, nonzero, logical)
			c.Barrier()
			if c.Rank() == 0 {
				time = c.Now()
				sample = recv[5][0]
			}
		})
		return
	}
	logical := make([]int, p)
	for i := range logical {
		logical[i] = 10 << 20 // 10 MB logical per pair
	}
	tSmall, sSmall := run(nil)
	tBig, sBig := run(logical)
	if tBig <= tSmall*10 {
		t.Errorf("logical sizes did not slow the exchange: %g vs %g", tBig, tSmall)
	}
	if sSmall != 5 || sBig != 5 {
		t.Errorf("payload corrupted by logical sizing")
	}
}

func TestWindowPutLogicalTiming(t *testing.T) {
	cfg := cfgN(12)
	run := func(logical int) float64 {
		var arr float64
		Run(cfg, func(c *Comm) {
			win := c.WinCreate(make([]byte, 16))
			if c.Rank() == 0 {
				arr = win.PutLogical(6, 0, []byte{1, 2}, logical)
			}
			exp := make([]int, c.Size())
			if c.Rank() == 6 {
				exp[0] = 1
			}
			win.Fence(exp)
		})
		return arr
	}
	small := run(2)
	big := run(25_000_000) // 1 ms at 25 GB/s
	if big-small < 0.9e-3 {
		t.Errorf("logical put size ignored: %g vs %g", big, small)
	}
}

func TestWindowDataIntegrityManyEpochs(t *testing.T) {
	p := 6
	Run(cfgN(p), func(c *Comm) {
		buf := make([]byte, 4*p)
		win := c.WinCreate(buf)
		for epoch := 0; epoch < 5; epoch++ {
			for tgt := 0; tgt < p; tgt++ {
				val := []byte{byte(epoch), byte(c.Rank()), byte(tgt), 0xAB}
				win.Put(tgt, 4*c.Rank(), val)
			}
			exp := make([]int, p)
			for i := range exp {
				exp[i] = 1
			}
			win.Fence(exp)
			for s := 0; s < p; s++ {
				want := []byte{byte(epoch), byte(s), byte(c.Rank()), 0xAB}
				if !bytes.Equal(buf[4*s:4*s+4], want) {
					t.Fatalf("epoch %d slot %d = %v want %v", epoch, s, buf[4*s:4*s+4], want)
				}
			}
		}
	})
}

// TestRendezvousZeroCopySemantics: above the eager threshold the payload
// is handed over without copying, so the paper's requirement that the
// send buffer stay constant during the exchange is explicit.
func TestRendezvousZeroCopySemantics(t *testing.T) {
	big := make([]byte, DefaultEagerThreshold+1)
	big[0] = 7
	Run(cfgN(2), func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, big)
		} else if c.Rank() == 1 {
			got := c.Recv(0, 1)
			if &got[0] != &big[0] {
				t.Error("rendezvous payload was copied; expected zero-copy hand-over")
			}
		}
	})
}

func TestBarrierManySizesProperty(t *testing.T) {
	for _, p := range []int{2, 3, 4, 5, 8, 13} {
		done := make([]bool, p)
		Run(cfgN(p), func(c *Comm) {
			c.Barrier()
			c.Barrier()
			done[c.Rank()] = true
		})
		for r, d := range done {
			if !d {
				t.Fatalf("p=%d rank %d never passed the barriers", p, r)
			}
		}
	}
}

func TestEagerThresholdSwitch(t *testing.T) {
	// A message exactly at the threshold is eager; one byte more pays
	// the rendezvous surcharge.
	cfg := cfgN(12)
	var atThr, overThr float64
	Run(cfg, func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.SendN(6, 1, DefaultEagerThreshold)
			c.SendN(6, 2, DefaultEagerThreshold+1)
		case 6:
			a := c.RecvPacket(0, 1)
			b := c.RecvPacket(0, 2)
			atThr = a.Arrival
			overThr = b.Arrival - a.Arrival
		}
	})
	_ = atThr
	cfgS := cfg
	minExtra := 2 * cfgS.InterLatency
	if overThr < minExtra {
		t.Errorf("threshold crossing did not add rendezvous cost: delta %g", overThr)
	}
}

// TestInterleavedCollectivesAndWindows stresses tag isolation: barriers,
// reductions, window epochs, and tagged p2p interleaved in one program
// must not cross-match.
func TestInterleavedCollectivesAndWindows(t *testing.T) {
	p := 9
	Run(cfgN(p), func(c *Comm) {
		win := c.WinCreate(make([]byte, p))
		for round := 0; round < 4; round++ {
			// p2p ring with a user tag
			next, prev := (c.Rank()+1)%p, (c.Rank()-1+p)%p
			c.Send(next, 7, []byte{byte(round*10 + c.Rank())})
			got := c.Recv(prev, 7)
			if got[0] != byte(round*10+prev) {
				t.Errorf("round %d: p2p corrupt", round)
			}
			// reduction
			if s := c.AllreduceFloat64("sum", 1); s != float64(p) {
				t.Errorf("round %d: sum=%g", round, s)
			}
			// window epoch
			for tgt := 0; tgt < p; tgt++ {
				win.Put(tgt, c.Rank(), []byte{byte(round)})
			}
			exp := make([]int, p)
			for i := range exp {
				exp[i] = 1
			}
			win.Fence(exp)
			for s := 0; s < p; s++ {
				if win.Buffer()[s] != byte(round) {
					t.Errorf("round %d: window slot %d = %d", round, s, win.Buffer()[s])
				}
			}
			c.Barrier()
		}
	})
}

// TestManyRanksSmoke exercises the engine at the paper's largest scale
// with a light workload (barrier + reduction over 1536 ranks).
func TestManyRanksSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("1536-rank smoke test")
	}
	p := 1536
	Run(cfgN(p), func(c *Comm) {
		c.Barrier()
		got := c.AllreduceFloat64("sum", 1)
		if got != float64(p) {
			t.Errorf("sum over %d ranks = %g", p, got)
		}
	})
}
