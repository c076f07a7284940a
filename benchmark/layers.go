package main

import (
	"math"
	"time"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/exchange"
	"repro/internal/fft"
	"repro/internal/gpu"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/precision"
	recov "repro/internal/recover"
	"repro/internal/tune"
)

// Standalone layer replays: each times calls into one layer's public
// functions at the workload's shapes, from outside. A replay costs what
// the layer alone would cost per op; what the real op costs on top
// (copies, conversions, allocation, goroutine handoff) is the residual.
// Repeated replays report their best pass, for the reason op_s reports
// its least disturbed repetition (quietOpS).

// replayMsgs is how many messages a message-rate replay sends at p
// ranks: enough to time at scale, fifty per pair on small
// machines.
func replayMsgs(p int) int {
	if n := 50 * p * p; n < 60000 {
		return n
	}
	return 60000
}

// ringMsgsPerS is the engine's raw event rate: every rank of the machine
// passes small messages round a Send/Recv ring.
func ringMsgsPerS(cfg netsim.Config) float64 {
	p := cfg.Ranks()
	rounds := replayMsgs(p)/p + 1
	t0 := time.Now()
	res := netsim.Run(cfg, func(pr *netsim.Proc) {
		next, prev := (pr.Rank()+1)%p, (pr.Rank()+p-1)%p
		for i := 0; i < rounds; i++ {
			pr.Send(next, 1, nil, 8)
			pr.Recv(prev, 1)
		}
	})
	return float64(res.Stats.Messages) / time.Since(t0).Seconds()
}

// mpiCosts are host costs of the runtime's primitives at the workload's
// rank count and message size.
type mpiCosts struct {
	alltoallvUsPerMsg, putUsPerPut, barrierUs, winCreateMs float64
}

func mpiPrimitives(cfg netsim.Config, bytes int) mpiCosts {
	p := cfg.Ranks()
	calls := replayMsgs(p)/(p*p) + 1
	puts := replayMsgs(p)/p + 1
	const barriers, wins = 200, 20
	var lap [5]time.Time // rank 0's host clock after each section's closing barrier
	mpi.Run(cfg, func(c *mpi.Comm) {
		mark := func(i int) {
			c.Barrier()
			if c.Rank() == 0 {
				lap[i] = time.Now()
			}
		}
		sizes := make([]int, p)
		for i := range sizes {
			sizes[i] = bytes
		}
		mark(0)
		for i := 0; i < calls; i++ {
			c.AlltoallvN(sizes)
		}
		mark(1)
		for i := 0; i < barriers; i++ {
			c.Barrier()
		}
		mark(2)
		var w *mpi.Win
		for i := 0; i < wins; i++ {
			w = c.WinCreate(nil)
		}
		mark(3)
		expected := make([]int, p)
		expected[(c.Rank()+p-1)%p] = puts
		for i := 0; i < puts; i++ {
			w.PutN((c.Rank()+1)%p, 0, bytes)
		}
		w.Fence(expected)
		mark(4)
	})
	sec := func(i int) float64 { return lap[i+1].Sub(lap[i]).Seconds() }
	return mpiCosts{
		alltoallvUsPerMsg: sec(0) / float64(calls*p*p) * 1e6,
		barrierUs:         sec(1) / barriers * 1e6,
		winCreateMs:       sec(2) / wins * 1e3,
		putUsPerPut:       sec(3) / float64(puts*p) * 1e6,
	}
}

// stages are the five decompositions of the FFT pipeline (bricks,
// x/y/z-pencils, bricks) and their memory orders, as core.NewPlan lays
// them out.
type stages struct {
	boxes  [5][]grid.Box
	orders [5]grid.Order
}

func newStages(n [3]int, p int) stages {
	var s stages
	s.boxes[0] = grid.Bricks(n, grid.Factor3(p))
	s.boxes[1] = grid.Pencils(n, 0, p)
	s.boxes[2] = grid.Pencils(n, 1, p)
	s.boxes[3] = grid.Pencils(n, 2, p)
	s.boxes[4] = s.boxes[0]
	s.orders = [5]grid.Order{grid.Natural, grid.ForAxis(0), grid.ForAxis(1), grid.ForAxis(2), grid.Natural}
	return s
}

// wireBytes is what one pair's message occupies on the wire for values
// float64s under the cell's method (the compressed slot carries a 4-byte
// length).
func (w *workload) wireBytes(values int) int {
	if values == 0 {
		return 0
	}
	if !w.compressed() {
		return 8 * values
	}
	return 4 + w.method().MaxCompressedLen(values)
}

// transportReplay returns host seconds per op of the cell's exchanges
// with phantom payloads: the same messages, puts and fences at the same
// wire sizes, no data plane. ops is the number of timed replays.
func (w *workload) transportReplay(ops int) float64 {
	cfg := w.machine()
	p := cfg.Ranks()
	var t0, t1 time.Time
	mpi.Run(cfg, func(c *mpi.Comm) {
		me := c.Rank()
		var op func()
		switch {
		case !w.isFFT():
			o := exchange.NewOSCPhantom(c, exchange.Uniform(w.wireBytes(msgBytes/8)), true)
			op = o.ExchangeN
		default:
			s := w.opts.SimScale
			sim := newStages([3]int{s * w.n, s * w.n, s * w.n}, p)
			var reshapes [4]func()
			for st := 0; st < 4; st++ {
				from, to := sim.boxes[st], sim.boxes[st+1]
				size := func(dst, src int) int { return w.wireBytes(2 * grid.Intersect(from[src], to[dst]).Count()) }
				if w.opts.Backend == core.BackendCompressed {
					reshapes[st] = exchange.NewOSCPhantom(c, size, true).ExchangeN
					continue
				}
				logical := make([]int, p)
				recvNonzero := make([]bool, p)
				for r := 0; r < p; r++ {
					logical[r] = size(r, me)
					recvNonzero[r] = size(me, r) > 0
				}
				send := make([][]byte, p)
				reshapes[st] = func() { c.AlltoallvSparse(send, recvNonzero, logical) }
			}
			op = func() {
				for _, r := range reshapes {
					r()
				}
			}
		}
		op() // warm-up
		c.Barrier()
		if me == 0 {
			t0 = time.Now()
		}
		for i := 0; i < ops; i++ {
			op()
		}
		c.Barrier()
		if me == 0 {
			t1 = time.Now()
		}
	})
	return t1.Sub(t0).Seconds() / float64(ops)
}

// linearBaseline runs the two-sided linear all-to-all Fig. 3 compares
// the one-sided ring against, through the library harness: its virtual
// node bandwidth (GB/s) and its host cost per message.
func linearBaseline(cfg netsim.Config) (virtGBs, usPerMsg float64) {
	const iters = 2
	t0 := time.Now()
	bw := exchange.NodeBandwidthSpec(nil, cfg, exchange.Spec{Algo: exchange.AlgoLinear}, msgBytes, iters)
	p := cfg.Ranks()
	return bw / 1e9, time.Since(t0).Seconds() / float64((iters+1)*p*p) * 1e6
}

// codecReplay is the cell's method run standalone over one op's worth of
// values, message by message at the cell's message length.
type codecReplay struct {
	encS, decS float64 // host seconds for one op's values (best of 3)
	inputBytes float64 // FP64 bytes of one op (computed)
	arrayMB    float64 // source array the messages are cut from
	ratio      float64 // input bytes / encoded bytes
	maxRelErr  float64
}

// maxReplayValues caps the codec replay's source array at 128 MB; an op
// with more values wraps around it.
const maxReplayValues = 16 << 20

func compressReplay(m compress.Method, msgLen, opValues int, seed uint64) codecReplay {
	msgs := opValues / msgLen
	distinct := msgs
	if distinct*msgLen > maxReplayValues {
		distinct = maxReplayValues / msgLen
	}
	src := make([]float64, distinct*msgLen)
	fillPayload(src, seed, 0, 0)
	dec := make([]float64, len(src))
	slot := m.MaxCompressedLen(msgLen)
	enc := make([]byte, distinct*slot)
	lens := make([]int, distinct)

	r := codecReplay{inputBytes: 8 * float64(msgs*msgLen), arrayMB: 8 * float64(len(src)) / 1e6}
	var encS, decS []float64
	for pass := 0; pass < 3; pass++ {
		t0 := time.Now()
		for i := 0; i < msgs; i++ {
			j := i % distinct
			lens[j] = m.Compress(enc[j*slot:(j+1)*slot], src[j*msgLen:(j+1)*msgLen])
		}
		t1 := time.Now()
		for i := 0; i < msgs; i++ {
			j := i % distinct
			m.Decompress(dec[j*msgLen:(j+1)*msgLen], enc[j*slot:j*slot+lens[j]])
		}
		encS = append(encS, t1.Sub(t0).Seconds())
		decS = append(decS, time.Since(t1).Seconds())
	}
	r.encS, r.decS = lowest(encS), lowest(decS)
	encoded := 0
	for _, n := range lens {
		encoded += n
	}
	r.ratio = 8 * float64(len(src)) / float64(encoded)
	for i, v := range src {
		if e := relErr(dec[i], v, m); e > r.maxRelErr || math.IsNaN(e) {
			r.maxRelErr = e
		}
	}
	return r
}

// usesFP16 reports whether the method goes through precision.Float16.
func usesFP16(m compress.Method) bool {
	if s, ok := m.(compress.Scaled); ok {
		m = s.Inner
	}
	_, ok := m.(compress.Cast16)
	return ok
}

// f16MvalsPerS times the FP16 cast pair the Cast16 codec is built on.
func f16MvalsPerS(seed uint64) float64 {
	src := make([]float64, 1<<20)
	fillPayload(src, seed, 0, 0)
	var sink float32
	t0 := time.Now()
	for _, v := range src {
		sink += precision.FromFloat64(v).Float32()
	}
	s := time.Since(t0).Seconds()
	if math.IsNaN(float64(sink)) {
		return math.NaN()
	}
	return float64(len(src)) / s / 1e6
}

// fftReplay runs one op's 1-D transforms standalone: for each axis,
// every rank's batch of pencils at the cell's length. Best of 3.
func fftReplay(n, p int) float64 {
	st := newStages([3]int{n, n, n}, p)
	plan := fft.NewPlan[complex128](n)
	data := make([]complex128, n*n*n)
	for i := range data {
		data[i] = complex(float64(i%7)-3, float64(i%5)-2)
	}
	var times []float64
	for pass := 0; pass < 3; pass++ {
		// Unnormalised transforms grow the data; reset its scale so no
		// pass runs on overflowed values.
		for i := range data {
			data[i] /= complex(float64(n*n*n), 0)
		}
		t0 := time.Now()
		for axis := 0; axis < 3; axis++ {
			off := 0
			for _, b := range st.boxes[axis+1] {
				cnt := b.Count()
				plan.Batch(data[off:off+cnt], cnt/n, fft.Forward)
				off += cnt
			}
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return lowest(times)
}

// gridReplay runs one op's pack and unpack work standalone: all four
// reshapes, every rank's transfer list. It also times grid.NewPlan.
type gridCosts struct {
	packS, unpackS float64 // host seconds per op (best of 3)
	bytes          float64 // complex128 bytes packed per op (computed)
	planUs         float64 // one grid.NewPlan at the cell's rank count
}

func gridReplay(n, p int) gridCosts {
	st := newStages([3]int{n, n, n}, p)
	var plans [4][]grid.Plan
	t0 := time.Now()
	for s := range plans {
		plans[s] = make([]grid.Plan, p)
		for r := 0; r < p; r++ {
			plans[s][r] = grid.NewPlan(r, st.boxes[s], st.boxes[s+1])
		}
	}
	g := gridCosts{planUs: time.Since(t0).Seconds() / float64(4*p) * 1e6, bytes: 4 * 16 * float64(n*n*n)}

	// Each rank's local array is its slice of one n³ buffer, as the ranks
	// of a run hold n³ elements between them.
	local := make([]complex128, n*n*n)
	out := make([]complex128, n*n*n)
	staging := make([]complex128, n*n*n)
	var packS, unpackS []float64
	for pass := 0; pass < 3; pass++ {
		t0 := time.Now()
		for s := range plans {
			off := 0
			for r, pl := range plans[s] {
				box := st.boxes[s][r]
				for _, t := range pl.Send {
					grid.Pack(local[off:off+box.Count()], box, st.orders[s], t.Sub, st.orders[s+1], staging[t.Offset:t.Offset+t.Count])
				}
				off += box.Count()
			}
		}
		t1 := time.Now()
		for s := range plans {
			off := 0
			for r, pl := range plans[s] {
				box := st.boxes[s+1][r]
				for _, t := range pl.Recv {
					grid.Unpack(staging[t.Offset:t.Offset+t.Count], t.Sub, out[off:off+box.Count()], box, st.orders[s+1])
				}
				off += box.Count()
			}
		}
		packS = append(packS, t1.Sub(t0).Seconds())
		unpackS = append(unpackS, time.Since(t1).Seconds())
	}
	g.packS, g.unpackS = lowest(packS), lowest(unpackS)
	return g
}

// hostClock satisfies gpu.Clock outside a simulation.
type hostClock struct{ t float64 }

func (c *hostClock) Now() float64     { return c.t }
func (c *hostClock) Elapse(d float64) { c.t += d }
func (c *hostClock) AdvanceTo(t float64) {
	if t > c.t {
		c.t = t
	}
}

// gpuLaunchNs is the host cost of one empty kernel launch + synchronize.
func gpuLaunchNs() float64 {
	const launches = 200000
	s := gpu.NewStream(gpu.V100(), &hostClock{})
	t0 := time.Now()
	for i := 0; i < launches; i++ {
		s.Launch(1e-6, nil)
		s.Synchronize()
	}
	return time.Since(t0).Seconds() / launches * 1e9
}

// predictRatio is measured / predicted exchange time, averaged over the
// forward reshapes: core.PredictExchanges against the per-reshape
// histograms a metrics recorder collects from one harness run.
func (w *workload) predictRatio() float64 {
	cfg, n3 := w.machine(), [3]int{w.n, w.n, w.n}
	rec := obs.New(obs.Options{Metrics: true})
	core.MeasureWith[complex128](rec, cfg, n3, w.opts, 1, false)
	sum, cnt := 0.0, 0
	for _, est := range core.PredictExchanges(cfg, n3, w.opts, 16) {
		h, ok := rec.Metrics().Hist("exchange/" + est.Label + "/time_s")
		if !ok || h.Count == 0 || est.Predicted <= 0 {
			continue
		}
		sum += h.Mean() / est.Predicted
		cnt++
	}
	return sum / float64(cnt)
}

// harnessOverheads compares the library harness with the recovery
// runtime (fault-free, default policy) and with a full recorder attached
// against the plain call, over interleaved rounds.
type harnessOverheads struct {
	recoverHost, recoverVirt, recorderHost float64
}

func (w *workload) harnessOverheads() (harnessOverheads, error) {
	cfg, n3 := w.machine(), [3]int{w.n, w.n, w.n}
	var plain, recovered, recorded []float64
	var virtPlain, virtRecovered float64
	for round := 0; round < 3; round++ {
		t0 := time.Now()
		virtPlain = core.Measure[complex128](cfg, n3, w.opts, 1, false).ForwardTime
		t1 := time.Now()
		res, _, err := core.MeasureRecoverable[complex128](nil, cfg, n3, w.opts, 1, false, recov.Policy{})
		if err != nil {
			return harnessOverheads{}, err
		}
		virtRecovered = res.ForwardTime
		t2 := time.Now()
		core.MeasureWith[complex128](obs.New(obs.Options{Trace: true, Metrics: true}), cfg, n3, w.opts, 1, false)
		plain = append(plain, t1.Sub(t0).Seconds())
		recovered = append(recovered, t2.Sub(t1).Seconds())
		recorded = append(recorded, time.Since(t2).Seconds())
	}
	return harnessOverheads{
		recoverHost:  lowest(recovered)/lowest(plain) - 1,
		recoverVirt:  virtRecovered/virtPlain - 1,
		recorderHost: lowest(recorded)/lowest(plain) - 1,
	}, nil
}

// tuneSelectMs times the autotuner's predictor-only selection.
func (w *workload) tuneSelectMs() (float64, error) {
	t0 := time.Now()
	_, err := tune.FFT[complex128](w.machine(), [3]int{w.n, w.n, w.n}, w.opts, tune.Space{Budget: w.method().ErrorBound()})
	return time.Since(t0).Seconds() * 1e3, err
}
