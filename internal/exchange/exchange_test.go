package exchange

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/compress"
	"repro/internal/gpu"
	"repro/internal/mpi"
	"repro/internal/netsim"
	recov "repro/internal/recover"
)

func machine(nodes int) netsim.Config { return netsim.Summit(nodes) }

// payload builds a distinguishable message from src to dst.
func payload(src, dst, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(src*7 + dst*13 + i)
	}
	return b
}

func checkAlltoall(t *testing.T, name string, run func(c *mpi.Comm, send [][]byte) [][]byte) {
	t.Helper()
	cfg := machine(2) // 12 ranks
	p := cfg.Ranks()
	mpi.Run(cfg, func(c *mpi.Comm) {
		send := make([][]byte, p)
		for d := 0; d < p; d++ {
			send[d] = payload(c.Rank(), d, 64+d)
		}
		recv := run(c, send)
		for s := 0; s < p; s++ {
			want := payload(s, c.Rank(), 64+c.Rank())
			if !bytes.Equal(recv[s], want) {
				t.Errorf("%s: rank %d from %d corrupt", name, c.Rank(), s)
			}
		}
	})
}

func TestLinearAlltoallv(t *testing.T) {
	checkAlltoall(t, "linear", func(c *mpi.Comm, send [][]byte) [][]byte { return c.AlltoallvSparse(send, nil, nil) })
}

func TestPairwiseAlltoallv(t *testing.T) {
	checkAlltoall(t, "pairwise", func(c *mpi.Comm, send [][]byte) [][]byte { return PairwiseAlltoallv(c, send, nil) })
}

func TestOSCExchange(t *testing.T) {
	for _, nodeAware := range []bool{true, false} {
		checkAlltoall(t, "osc", func(c *mpi.Comm, send [][]byte) [][]byte {
			size := func(dst, src int) int { return 64 + dst }
			o := NewOSC(c, size, nodeAware)
			return o.Exchange(send)
		})
	}
}

func TestOSCReuseAcrossExchanges(t *testing.T) {
	cfg := machine(1)
	p := cfg.Ranks()
	mpi.Run(cfg, func(c *mpi.Comm) {
		o := NewOSC(c, Uniform(32), true)
		for iter := 0; iter < 3; iter++ {
			send := make([][]byte, p)
			for d := 0; d < p; d++ {
				send[d] = payload(c.Rank()+iter, d, 32)
			}
			recv := o.Exchange(send)
			for s := 0; s < p; s++ {
				if !bytes.Equal(recv[s], payload(s+iter, c.Rank(), 32)) {
					t.Errorf("iter %d rank %d from %d corrupt", iter, c.Rank(), s)
				}
			}
		}
	})
}

func TestOSCSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on size mismatch")
		}
	}()
	cfg := machine(1)
	mpi.Run(cfg, func(c *mpi.Comm) {
		o := NewOSC(c, Uniform(8), true)
		send := make([][]byte, c.Size())
		for d := range send {
			send[d] = make([]byte, 9) // wrong size
		}
		o.Exchange(send)
	})
}

func TestRingOrderNodeAware(t *testing.T) {
	cfg := machine(3) // 18 ranks, 6 per node
	mpi.Run(cfg, func(c *mpi.Comm) {
		order := ringOrder(c, true)
		if len(order) != c.Size() {
			t.Fatalf("order length %d", len(order))
		}
		seen := make(map[int]bool)
		for _, d := range order {
			if seen[d] {
				t.Fatalf("rank %d: duplicate destination %d", c.Rank(), d)
			}
			seen[d] = true
		}
		// First 6 destinations are all on the next node.
		wantNode := (c.Node() + 1) % 3
		for _, d := range order[:6] {
			if c.NodeOf(d) != wantNode {
				t.Errorf("rank %d: early destination %d not on node %d", c.Rank(), d, wantNode)
			}
		}
	})
}

func TestRingOrderSpreadsTargets(t *testing.T) {
	// At each step index, the 6 ranks of node 0 must target 6 distinct
	// remote ranks (the permute[] property of Algorithm 3).
	cfg := machine(2)
	orders := make([][]int, cfg.Ranks())
	mpi.Run(cfg, func(c *mpi.Comm) {
		orders[c.Rank()] = ringOrder(c, true)
	})
	for step := 0; step < cfg.Ranks(); step++ {
		seen := make(map[int]bool)
		for r := 0; r < 6; r++ { // node 0's ranks
			d := orders[r][step]
			if seen[d] {
				t.Fatalf("step %d: two node-0 ranks target %d", step, d)
			}
			seen[d] = true
		}
	}
}

func TestCompressedOSCLossless(t *testing.T) {
	cfg := machine(1)
	p := cfg.Ranks()
	mpi.Run(cfg, func(c *mpi.Comm) {
		count := 100
		x := NewCompressedOSC(c, compress.None{}, gpu.NewStream(gpu.V100(), c), 3, UniformCount(count))
		send := make([][]float64, p)
		for d := range send {
			send[d] = make([]float64, count)
			for i := range send[d] {
				send[d][i] = float64(c.Rank()) + float64(d)/100 + float64(i)/1e6
			}
		}
		recv := x.Exchange(send)
		for s := 0; s < p; s++ {
			for i := 0; i < count; i++ {
				want := float64(s) + float64(c.Rank())/100 + float64(i)/1e6
				if recv[s][i] != want {
					t.Fatalf("rank %d from %d [%d]: %v != %v", c.Rank(), s, i, recv[s][i], want)
				}
			}
		}
	})
}

func TestCompressedOSCCast32ErrorBound(t *testing.T) {
	cfg := machine(1)
	p := cfg.Ranks()
	mpi.Run(cfg, func(c *mpi.Comm) {
		count := 257 // odd count exercises chunk tails
		x := NewCompressedOSC(c, compress.Cast32{}, gpu.NewStream(gpu.V100(), c), 4, UniformCount(count))
		send := make([][]float64, p)
		for d := range send {
			send[d] = make([]float64, count)
			for i := range send[d] {
				send[d][i] = math.Sin(float64(c.Rank()*1000 + d*100 + i))
			}
		}
		recv := x.Exchange(send)
		for s := 0; s < p; s++ {
			for i := 0; i < count; i++ {
				want := math.Sin(float64(s*1000 + c.Rank()*100 + i))
				if got := recv[s][i]; got != float64(float32(want)) {
					t.Fatalf("value not FP32-cast: got %v want %v", got, float64(float32(want)))
				}
			}
		}
	})
}

func TestCompressedOSCVariableRate(t *testing.T) {
	// Lossless (variable-rate) must work thanks to per-chunk headers.
	cfg := machine(1)
	p := cfg.Ranks()
	mpi.Run(cfg, func(c *mpi.Comm) {
		count := 64
		x := NewCompressedOSC(c, compress.Lossless{}, gpu.NewStream(gpu.V100(), c), 2, UniformCount(count))
		send := make([][]float64, p)
		for d := range send {
			send[d] = make([]float64, count) // zeros compress well
			send[d][0] = float64(c.Rank()*100 + d)
		}
		recv := x.Exchange(send)
		for s := 0; s < p; s++ {
			if recv[s][0] != float64(s*100+c.Rank()) || recv[s][1] != 0 {
				t.Fatalf("lossless exchange corrupt")
			}
		}
	})
}

func TestCompressedFasterThanUncompressedOSC(t *testing.T) {
	cfg := machine(4) // 24 ranks: communication-dominated
	count := 10000    // 80 KB per pair
	tNone := CompressedExchangeTimeWith(nil, cfg, compress.None{}, 4, count, 2, true)
	tCast := CompressedExchangeTimeWith(nil, cfg, compress.Cast32{}, 4, count, 2, true)
	if tCast >= tNone {
		t.Errorf("compression not faster: FP32 %.3g vs FP64 %.3g", tCast, tNone)
	}
	// Speedup should approach the compression rate (×2) but not exceed
	// it by much; allow a broad band for latency effects.
	sp := tNone / tCast
	if sp < 1.2 || sp > 2.6 {
		t.Errorf("FP64→FP32 exchange speedup %.2f outside plausible band", sp)
	}
}

func TestPipelineBeatsSynchronousCompression(t *testing.T) {
	cfg := machine(2)
	count := 20000
	tPipe := CompressedExchangeTimeWith(nil, cfg, compress.Cast32{}, 8, count, 2, true)
	tSync := CompressedExchangeTimeWith(nil, cfg, compress.Cast32{}, 8, count, 2, false)
	if tPipe > tSync*1.02 {
		t.Errorf("pipelined %.3g slower than synchronous %.3g", tPipe, tSync)
	}
}

func TestNodeBandwidthOSCBeatsLinearAtScale(t *testing.T) {
	cfg := machine(16) // 96 ranks
	msg := 80 * 1024
	bwLinear := NodeBandwidthSpec(nil, cfg, Spec{Algo: AlgoLinear}, msg, 1)
	bwOSC := NodeBandwidthSpec(nil, cfg, Spec{Algo: AlgoOSC}, msg, 1)
	if bwOSC <= bwLinear {
		t.Errorf("OSC %.3g GB/s not above linear %.3g GB/s", bwOSC/1e9, bwLinear/1e9)
	}
}

// TestNodeBandwidthUnknownAlgoRejectedUpFront: a misspelt algorithm is
// refused on the caller's goroutine, naming the valid ones, before any
// simulation exists — the zero machine config would not survive a run.
func TestNodeBandwidthUnknownAlgoRejectedUpFront(t *testing.T) {
	wantMsg := func(msg string) {
		t.Helper()
		if !strings.Contains(msg, `unknown algorithm "nope"`) {
			t.Errorf("diagnostic %q does not name the bad algorithm", msg)
		}
		for _, a := range Algos {
			if !strings.Contains(msg, a) {
				t.Errorf("diagnostic %q does not list %q", msg, a)
			}
		}
	}
	_, out, err := NodeBandwidthRecoverableSpec(nil, netsim.Config{}, Spec{Algo: "nope"}, 1024, 1, recov.Policy{})
	if err == nil || out.Attempts != 0 {
		t.Fatalf("recoverable harness: err=%v attempts=%d, want an error before the first attempt", err, out.Attempts)
	}
	wantMsg(err.Error())
	defer func() {
		msg, _ := recover().(string)
		wantMsg(msg)
	}()
	NodeBandwidthSpec(nil, netsim.Config{}, Spec{Algo: "nope"}, 1024, 1)
}

func TestSplitGroups(t *testing.T) {
	order := []int{5, 3, 8, 1, 9, 2, 7}
	groups := splitGroups(order, 3)
	if len(groups) != 3 {
		t.Fatalf("got %d groups", len(groups))
	}
	var flat []int
	for _, g := range groups {
		if len(g) == 0 {
			t.Error("empty group")
		}
		flat = append(flat, g...)
	}
	for i, v := range flat {
		if v != order[i] {
			t.Fatalf("groups reorder destinations: %v", groups)
		}
	}
	// More chunks than destinations degrades gracefully.
	if got := splitGroups([]int{1, 2}, 10); len(got) != 2 {
		t.Errorf("splitGroups small = %v", got)
	}
}

// newTwoSidedCompressed builds the two-sided codec column for the
// pattern counts, probing it at every rank.
func newTwoSidedCompressed(c *mpi.Comm, m compress.Method, stream *gpu.Stream, counts CountFn) *TwoSided {
	var send, recv []Peer
	for r := 0; r < c.Size(); r++ {
		if n := 8 * counts(r, c.Rank()); n > 0 {
			send = append(send, Peer{Rank: r, Bytes: n, Logical: n})
		}
		if n := 8 * counts(c.Rank(), r); n > 0 {
			recv = append(recv, Peer{Rank: r, Bytes: n, Logical: n})
		}
	}
	return NewTwoSided(c, send, recv, Codec{Method: m, Stream: stream, Label: "exchange-2s"}, nil)
}

// Exchange drives x over whole per-peer slices, the form these tests
// use; core drives it through a reshape's Payloads.
func (x *TwoSided) Exchange(send [][]float64) [][]float64 {
	w := whole[float64]{send: send, out: make([][]float64, len(send))}
	for _, pe := range x.recv {
		w.out[pe.Rank] = make([]float64, pe.Bytes/8)
	}
	x.ExchangeWith(&w)
	return w.out
}

func TestTwoSidedCompressedCorrectness(t *testing.T) {
	cfg := machine(1)
	p := cfg.Ranks()
	mpi.Run(cfg, func(c *mpi.Comm) {
		count := 97
		x := newTwoSidedCompressed(c, compress.Cast32{}, gpu.NewStream(gpu.V100(), c), UniformCount(count))
		send := make([][]float64, p)
		for d := range send {
			send[d] = make([]float64, count)
			for i := range send[d] {
				send[d][i] = math.Cos(float64(c.Rank()*500 + d*50 + i))
			}
		}
		recv := x.Exchange(send)
		for s := 0; s < p; s++ {
			for i := 0; i < count; i++ {
				want := float64(float32(math.Cos(float64(s*500 + c.Rank()*50 + i))))
				if recv[s][i] != want {
					t.Fatalf("value mismatch at src %d idx %d", s, i)
				}
			}
		}
	})
}

// TestTwoSidedCompressedEpochIsolation: back-to-back exchanges with
// different payloads each deliver their own epoch's values. The two-sided
// all-to-all hands compressed payloads to receivers zero-copy, so a
// sender that runs ahead into the next exchange must not recompress into
// a buffer a slower receiver has not decompressed yet.
func TestTwoSidedCompressedEpochIsolation(t *testing.T) {
	cfg := machine(1)
	p := cfg.Ranks()
	const count = 64
	value := func(epoch, src, dst, i int) float64 { return float64(epoch*100000 + src*1000 + dst*100 + i) }
	first := make([][][]float64, p)
	mpi.Run(cfg, func(c *mpi.Comm) {
		me := c.Rank()
		x := newTwoSidedCompressed(c, compress.Cast32{}, gpu.NewStream(gpu.V100(), c), UniformCount(count))
		for epoch := 1; epoch <= 2; epoch++ {
			send := make([][]float64, p)
			for d := range send {
				send[d] = make([]float64, count)
				for i := range send[d] {
					send[d][i] = value(epoch, me, d, i)
				}
			}
			recv := x.Exchange(send)
			if epoch == 1 {
				first[me] = make([][]float64, p)
				for s := range recv {
					first[me][s] = append([]float64(nil), recv[s]...)
				}
			}
		}
	})
	bad := 0
	for r := 0; r < p; r++ {
		for s := 0; s < p; s++ {
			for i := 0; i < count; i++ {
				if first[r][s][i] != value(1, s, r, i) {
					bad++
					break
				}
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d slots of the first exchange hold another epoch's values", bad, p*p)
	}
}

func TestTwoSidedCompressedSparsePattern(t *testing.T) {
	// Asymmetric sparse pattern: rank r sends only to r+1 (mod p).
	cfg := machine(1)
	p := cfg.Ranks()
	counts := func(dst, src int) int {
		if dst == (src+1)%p {
			return 10
		}
		return 0
	}
	mpi.Run(cfg, func(c *mpi.Comm) {
		x := newTwoSidedCompressed(c, compress.None{}, gpu.NewStream(gpu.V100(), c), counts)
		send := make([][]float64, p)
		for d := range send {
			send[d] = make([]float64, counts(d, c.Rank()))
			for i := range send[d] {
				send[d][i] = float64(c.Rank()*100 + i)
			}
		}
		recv := x.Exchange(send)
		src := (c.Rank() - 1 + p) % p
		for i := 0; i < 10; i++ {
			if recv[src][i] != float64(src*100+i) {
				t.Fatalf("sparse pattern corrupt at %d", i)
			}
		}
	})
}

// TestOSCBeatsTwoSidedCompressed: with equal compression, the one-sided
// pipelined transport must not be slower in the communication-dominated
// regime — the transport half of the paper's contribution.
func TestOSCBeatsTwoSidedCompressed(t *testing.T) {
	cfg := machine(8)
	count := 20000
	var tOSC, t2S float64
	{
		p := cfg.Ranks()
		mpi.Run(cfg, func(c *mpi.Comm) {
			x := NewCompressedOSC(c, compress.Cast32{}, gpu.NewStream(gpu.V100(), c), 8, UniformCount(count))
			send := mkSend(c.Rank(), p, count)
			x.Exchange(send)
			c.Barrier()
			t0 := c.AllreduceFloat64("min", c.Now())
			x.Exchange(send)
			c.Barrier()
			t1 := c.AllreduceFloat64("max", c.Now())
			if c.Rank() == 0 {
				tOSC = t1 - t0
			}
		})
		mpi.Run(cfg, func(c *mpi.Comm) {
			x := newTwoSidedCompressed(c, compress.Cast32{}, gpu.NewStream(gpu.V100(), c), UniformCount(count))
			send := mkSend(c.Rank(), p, count)
			x.Exchange(send)
			c.Barrier()
			t0 := c.AllreduceFloat64("min", c.Now())
			x.Exchange(send)
			c.Barrier()
			t1 := c.AllreduceFloat64("max", c.Now())
			if c.Rank() == 0 {
				t2S = t1 - t0
			}
		})
	}
	if tOSC > t2S*1.05 {
		t.Errorf("compressed OSC %.3g slower than two-sided compressed %.3g", tOSC, t2S)
	}
}

// TestDefaultWireSizesAreReal: an exchange whose logical sizes the
// caller leaves alone charges the real sizes — exactly what setting
// them to the pattern's own sizes charges, the form core uses whenever
// SimScale is 1.
func TestDefaultWireSizesAreReal(t *testing.T) {
	cfg := machine(2)
	p := cfg.Ranks()
	counts := func(dst, src int) int { return 16 + (dst+2*src)%5 }
	size := func(dst, src int) int { return 8 * counts(dst, src) }
	for _, name := range []string{"osc", "compressed-osc", "two-sided-compressed"} {
		run := func(explicit bool) netsim.Result {
			return mpi.Run(cfg, func(c *mpi.Comm) {
				me := c.Rank()
				vals := make([][]float64, p)
				raw := make([][]byte, p)
				for d := range vals {
					vals[d] = make([]float64, counts(d, me))
					for i := range vals[d] {
						vals[d][i] = float64(me+d+i) / 7
					}
					raw[d] = payload(me, d, size(d, me))
				}
				stream := gpu.NewStream(gpu.V100(), c)
				switch name {
				case "osc":
					o := NewOSC(c, size, true)
					if explicit {
						o.Logical = size
					}
					o.Exchange(raw)
				case "compressed-osc":
					x := NewCompressedOSC(c, compress.Cast32{}, stream, 2, counts)
					if explicit {
						x.Logical = size
					}
					x.Exchange(vals)
				default:
					x := newTwoSidedCompressed(c, compress.Cast32{}, stream, counts)
					if explicit {
						for i := range x.send {
							x.send[i].Logical = size(x.send[i].Rank, me)
						}
						for i := range x.recv {
							x.recv[i].Logical = size(me, x.recv[i].Rank)
						}
					}
					x.Exchange(vals)
				}
			})
		}
		def, set := run(false), run(true)
		if def.Time != set.Time || def.Stats != set.Stats {
			t.Errorf("%s: default sizes charge %v s, %+v; the real sizes %v s, %+v", name, def.Time, def.Stats, set.Time, set.Stats)
		}
	}
}

func mkSend(rank, p, count int) [][]float64 {
	send := make([][]float64, p)
	for d := range send {
		send[d] = make([]float64, count)
		for i := range send[d] {
			send[d][i] = float64((rank*13+d*7+i)%1000) / 1000
		}
	}
	return send
}

// bruckAlltoall runs one Bruck exchange of send's blocks (nil: the
// phantom exchange) and returns the blocks received.
func bruckAlltoall(c *mpi.Comm, send [][]byte, bs, logical int) [][]byte {
	b := NewBruck(c, bs, logical)
	if send == nil {
		b.ExchangeWith(nil)
		return nil
	}
	io := &whole[byte]{send: send, out: make([][]byte, len(send))}
	for s := range io.out {
		io.out[s] = make([]byte, bs)
	}
	b.ExchangeWith(io)
	return io.out
}

func TestBruckAlltoallCorrectness(t *testing.T) {
	for _, ranks := range []int{2, 3, 5, 8, 12} {
		cfg := machine(1)
		if ranks != cfg.Ranks() {
			cfg.GPUsPerNode = 1
			cfg.Nodes = ranks
		}
		p := cfg.Ranks()
		const bs = 24
		mpi.Run(cfg, func(c *mpi.Comm) {
			send := make([][]byte, p)
			for d := 0; d < p; d++ {
				send[d] = payload(c.Rank(), d, bs)
			}
			recv := bruckAlltoall(c, send, bs, bs)
			for s := 0; s < p; s++ {
				if !bytes.Equal(recv[s], payload(s, c.Rank(), bs)) {
					t.Errorf("p=%d rank %d from %d corrupt", p, c.Rank(), s)
				}
			}
		})
	}
}

func TestBruckMessageCountLogarithmic(t *testing.T) {
	cfg := machine(16) // 96 ranks
	p := cfg.Ranks()
	res := mpi.Run(cfg, func(c *mpi.Comm) {
		bruckAlltoall(c, nil, 1024, 1024)
	})
	rounds := 0
	for k := 1; k < p; k <<= 1 {
		rounds++
	}
	if res.Stats.Messages != p*rounds {
		t.Errorf("bruck sent %d messages, want %d (p·⌈log2 p⌉)", res.Stats.Messages, p*rounds)
	}
}

// TestBruckWinsAtSmallMessages: in the latency/per-message-cost bound
// regime the log-round algorithm must beat the linear one and the
// one-sided ring — the cell that keeps Bruck in the tuner's candidate
// set (ROADMAP item 27).
func TestBruckWinsAtSmallMessages(t *testing.T) {
	cfg := machine(32) // 192 ranks
	small := 64        // bytes per pair
	bwBruck := NodeBandwidthSpec(nil, cfg, Spec{Algo: AlgoBruck}, small, 1)
	for _, algo := range []string{AlgoLinear, AlgoOSC} {
		if bw := NodeBandwidthSpec(nil, cfg, Spec{Algo: algo}, small, 1); bwBruck <= bw {
			t.Errorf("bruck %.3g not above %s %.3g at small messages", bwBruck, algo, bw)
		}
	}
}

func TestBruckNonUniformPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	mpi.Run(machine(1), func(c *mpi.Comm) {
		send := make([][]byte, c.Size())
		for d := range send {
			send[d] = make([]byte, d+1)
		}
		bruckAlltoall(c, send, 1, 1)
	})
}
