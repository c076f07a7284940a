package exchange

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/compress"
	"repro/internal/gpu"
	"repro/internal/mpi"
)

// TestOSCFuzzAgainstLinear: for random (deterministic-seeded) size
// matrices, the one-sided exchange must deliver exactly what the linear
// baseline delivers.
func TestOSCFuzzAgainstLinear(t *testing.T) {
	f := func(seed int64) bool {
		cfg := machine(1) // 6 ranks
		p := cfg.Ranks()
		rng := rand.New(rand.NewSource(seed))
		sizes := make([][]int, p)
		for d := range sizes {
			sizes[d] = make([]int, p)
			for s := range sizes[d] {
				if rng.Intn(3) > 0 {
					sizes[d][s] = rng.Intn(200)
				}
			}
		}
		sizeFn := func(dst, src int) int { return sizes[dst][src] }
		ok := true
		mpi.Run(cfg, func(c *mpi.Comm) {
			me := c.Rank()
			send := make([][]byte, p)
			for d := 0; d < p; d++ {
				send[d] = payload(me, d, sizes[d][me])
			}
			osc := NewOSC(c, sizeFn, true)
			got := osc.Exchange(send)
			for s := 0; s < p; s++ {
				want := payload(s, me, sizes[me][s])
				if !bytes.Equal(got[s], want) {
					ok = false
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestCompressedOSCFuzzPatterns: random sparse count matrices with the
// lossless method must round-trip exactly.
func TestCompressedOSCFuzzPatterns(t *testing.T) {
	f := func(seed int64) bool {
		cfg := machine(1)
		p := cfg.Ranks()
		rng := rand.New(rand.NewSource(seed))
		counts := make([][]int, p)
		for d := range counts {
			counts[d] = make([]int, p)
			for s := range counts[d] {
				if rng.Intn(2) == 0 {
					counts[d][s] = rng.Intn(50)
				}
			}
		}
		countFn := func(dst, src int) int { return counts[dst][src] }
		ok := true
		mpi.Run(cfg, func(c *mpi.Comm) {
			me := c.Rank()
			x := NewCompressedOSC(c, compress.None{}, gpu.NewStream(gpu.V100(), c), 3, countFn)
			send := make([][]float64, p)
			for d := 0; d < p; d++ {
				send[d] = make([]float64, counts[d][me])
				for i := range send[d] {
					send[d][i] = float64(me*1000+d*100+i) / 7
				}
			}
			got := x.Exchange(send)
			for s := 0; s < p; s++ {
				for i := 0; i < counts[me][s]; i++ {
					if got[s][i] != float64(s*1000+me*100+i)/7 {
						ok = false
					}
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestDecodeSlotFuzzNeverPanics: the window-slot decoder is the first
// consumer of bytes that crossed the (possibly corrupting) one-sided
// transport. Whatever those bytes hold — random noise, a mutated valid
// stream, an oversized length header — it must return an error or a
// value, never panic or read out of range.
func TestDecodeSlotFuzzNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	methods := []compress.Method{
		compress.None{}, compress.Cast32{}, compress.Cast16{}, compress.CastBF16{},
		compress.Trim{M: 20}, compress.Block{Bits: 12},
		compress.Scaled{Inner: compress.Cast16{}}, compress.Lossless{},
	}
	vals := make([]float64, 37)
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	for _, m := range methods {
		// A valid slot: 4-byte length header + compressed payload, padded
		// to the fixed window slot size.
		slot := make([]byte, 4+m.MaxCompressedLen(len(vals)))
		clen := m.Compress(slot[4:], vals)
		putLE32(slot, uint32(clen))
		dst := make([]float64, len(vals))
		if err := decodeSlot(m, dst, slot); err != nil {
			t.Errorf("%s: valid slot rejected: %v", m.Name(), err)
		}
		for trial := 0; trial < 300; trial++ {
			bad := append([]byte(nil), slot...)
			switch trial % 3 {
			case 0: // mutate bytes anywhere, header included
				for flips := 1 + rng.Intn(5); flips > 0; flips-- {
					bad[rng.Intn(len(bad))] ^= byte(1 + rng.Intn(255))
				}
			case 1: // hostile length header
				putLE32(bad, rng.Uint32())
			case 2: // pure noise
				rng.Read(bad)
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s: decodeSlot panicked on corrupt slot: %v", m.Name(), r)
					}
				}()
				_ = decodeSlot(m, dst, bad)
			}()
		}
		// Truncated slots, down to and below the header.
		for _, n := range []int{0, 1, 3, 4, len(slot) / 2} {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s: decodeSlot panicked on %d-byte slot: %v", m.Name(), n, r)
					}
				}()
				_ = decodeSlot(m, dst, slot[:n])
			}()
		}
	}
}

func putLE32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

// TestAlgorithmsAgreeOnTime: phantom and real exchanges of the same
// pattern take identical virtual time (the data plane never affects the
// time plane).
func TestAlgorithmsAgreeOnTime(t *testing.T) {
	cfg := machine(2)
	p := cfg.Ranks()
	msg := 4096
	var tReal, tPhantom float64
	mpi.Run(cfg, func(c *mpi.Comm) {
		send := make([][]byte, p)
		for d := range send {
			send[d] = make([]byte, msg)
		}
		c.AlltoallvSparse(send, nil, nil)
		c.Barrier()
		if c.Rank() == 0 {
			tReal = c.Now()
		}
	})
	mpi.Run(cfg, func(c *mpi.Comm) {
		sizes := make([]int, p)
		for i := range sizes {
			sizes[i] = msg
		}
		c.AlltoallvN(sizes)
		c.Barrier()
		if c.Rank() == 0 {
			tPhantom = c.Now()
		}
	})
	if tReal != tPhantom {
		t.Errorf("phantom time %g != real time %g", tPhantom, tReal)
	}
}
