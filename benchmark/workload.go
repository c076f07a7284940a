package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/exchange"
	"repro/internal/gpu"
	"repro/internal/mpi"
	"repro/internal/netsim"
)

// msgBytes is the Fig. 3 message size: 80 KB per process pair.
const msgBytes = 80 * 1024

// workload is one cell of the benchmark: a grid point of the paper's own
// figures, so a committed reference row exists for its virtual numbers.
// The cells are fixed; only k (ops per repetition) is a tuning knob of
// the benchmark itself.
type workload struct {
	name  string
	nodes int // netsim.Summit(nodes): 6 ranks per node

	// fft_* cells: an n³ complex128 transform with opts.
	n    int
	opts core.Options
	// a2a_* cells: a uniform all-to-all of msgBytes per pair.
	spec exchange.Spec

	k int // steady-state ops per repetition

	// ref is the committed results/fig{3,4}.txt value this cell must
	// reproduce (GF/s for fft_*, node GB/s for a2a_*) within ±refAbs;
	// ref == 0 means the cell has no committed row. refLinear is the
	// committed two-sided value at the same grid point (a2a_osc_* only).
	ref, refAbs, refLinear float64

	// deep cells also carry the measurements that need a data plane worth
	// parallelising: the parallel-engine pairs and, for fft_*, the
	// tune / recover / obs harness comparisons.
	deep bool
}

func (w *workload) isFFT() bool { return w.n > 0 }

func (w *workload) machine() netsim.Config { return netsim.Summit(w.nodes) }

// method is the cell's compression method (None when uncompressed).
func (w *workload) method() compress.Method {
	switch {
	case w.isFFT() && w.opts.Backend == core.BackendCompressed:
		if w.opts.Method != nil {
			return w.opts.Method
		}
		return compress.FromTolerance(w.opts.Tolerance)
	case w.spec.Algo == exchange.AlgoOSCComp:
		return w.spec.Method
	}
	return compress.None{}
}

func (w *workload) compressed() bool {
	_, plain := w.method().(compress.None)
	return !plain
}

// workloads returns the six cells; small shrinks each to 6–12 ranks and
// a 16³ grid for the smoke test (reference rows do not apply there).
func workloads(small bool) []*workload {
	ws := []*workload{
		{name: "fft_fp64_p24", nodes: 4, n: 64, k: 40,
			opts: core.Options{Backend: core.BackendAlltoallv, SimScale: 16},
			ref:  398.1, refAbs: 0.05},
		{name: "fft_tol_p24", nodes: 4, n: 64, k: 15, deep: true,
			opts: core.Options{Backend: core.BackendCompressed, Tolerance: 1e-6, SimScale: 16}},
		// Scaled, because plain Cast16 round-trips to NaN at 64³ (the DC
		// bin exceeds 65504); the 8-byte scale header per message keeps
		// the virtual rate within 0.5% of the committed fp64-16 row.
		{name: "fft_sfp16_p96", nodes: 16, n: 64, k: 12,
			opts: core.Options{Backend: core.BackendCompressed, Method: compress.Scaled{Inner: compress.Cast16{}}, SimScale: 16},
			ref:  3090.5, refAbs: 0.005 * 3090.5},
		{name: "fft_fp64_p384", nodes: 64, n: 64, k: 6,
			opts: core.Options{Backend: core.BackendAlltoallv, SimScale: 16},
			ref:  2903.3, refAbs: 0.05},
		{name: "a2a_comp32_p48", nodes: 8, k: 10, deep: true,
			spec: exchange.Spec{Algo: exchange.AlgoOSCComp, Method: compress.Cast32{}, Chunks: 4}},
		{name: "a2a_osc_p384", nodes: 64, k: 2,
			spec: exchange.Spec{Algo: exchange.AlgoOSC},
			ref:  19.46, refAbs: 0.005, refLinear: 3.92},
	}
	if small {
		for i, w := range ws {
			w.nodes = 1 + i%2
			w.k = 1
			w.ref, w.refLinear = 0, 0
			if w.isFFT() {
				w.n = 16
				w.opts.SimScale = 4
			}
		}
	}
	return ws
}

// reference is what the library's own harness reports for the cell —
// the virtual-clock side of the benchmark, bit-identical to what
// fftbench / alltoallbench print for the same grid point.
type reference struct {
	wallS      float64 // host seconds of the harness call (proc.cold_cell_s)
	virtSPerOp float64
	figure     float64 // GF/s (fft_*) or node GB/s (a2a_*): the reference-row quantity
	relErr     float64 // harness round-trip error (fft_*), NaN otherwise
	profile    core.Profile
	stats      netsim.Stats
}

func (w *workload) reference() reference {
	cfg := w.machine()
	t0 := time.Now()
	var r reference
	if w.isFFT() {
		res := core.Measure[complex128](cfg, [3]int{w.n, w.n, w.n}, w.opts, 1, true)
		r = reference{virtSPerOp: res.ForwardTime, figure: res.Gflops, relErr: res.RelErr, profile: res.Profile, stats: res.Stats}
	} else {
		bw := exchange.NodeBandwidthSpec(nil, cfg, w.spec, msgBytes, 2)
		p := float64(cfg.Ranks())
		r = reference{virtSPerOp: p * p * msgBytes / bw / float64(cfg.Nodes), figure: bw / 1e9, relErr: math.NaN()}
	}
	r.wallS = time.Since(t0).Seconds()
	return r
}

// errBound is the accuracy an op's check value must meet: the per-stage
// budgets of a forward+inverse round trip composed as Π(1+eᵢ)−1 for
// fft_*, the method's own per-value bound for a2a_*; plus a floor for
// FP64 round-off in the transforms themselves.
func (w *workload) errBound() float64 {
	const fp64Floor = 1e-12
	if !w.isFFT() {
		return w.method().ErrorBound()
	}
	prod := 1.0
	for _, inverse := range []bool{false, true} {
		for _, st := range core.StageBounds(w.opts, inverse) {
			prod *= 1 + st.Bound
		}
	}
	return prod - 1 + fp64Floor
}

// repetition is what one timed pass (one mpi.RunChecked of the rank
// body) yields. All host marks are taken by rank 0 right after a
// barrier: under the cooperative engine per-rank intervals overlap and
// do not sum, whereas rank 0 leaves a barrier only after every rank's
// host work before it is done.
type repetition struct {
	setupS    float64   // run start → barrier after the warm-up op
	opS       []float64 // one sample per steady-state op
	backwardS float64   // host seconds of the verify op's Backward (fft_*)
	cpuS      float64   // process CPU seconds over the op loop
	liveBytes uint64    // HeapAlloc after a forced GC, everything constructed
	allocated uint64    // TotalAlloc delta over the op loop
	mallocs   uint64    // Mallocs delta over the op loop
	virt      []float64 // rank 0's virtual clock at each mark
	check     float64   // rel_err of the verify op
	mismatch  float64   // decoded values differing from the codec's own round trip
	stats     netsim.Stats
}

// marks is rank 0's stopwatch inside one repetition. hooks, when set,
// receive the window boundaries (the traced pass hangs its spans and
// profile windows on them).
type marks struct {
	rep   *repetition
	hooks *traceHooks
	start time.Time
	last  time.Time
	ms0   runtime.MemStats
	cpu0  float64
}

// setupDone closes the setup window, measures the live heap, and opens
// the op loop. The forced GC sits between the two windows, in neither.
func (m *marks) setupDone(c *mpi.Comm) {
	if c.Rank() != 0 {
		return
	}
	m.rep.setupS = time.Since(m.start).Seconds()
	m.hooks.window("")
	runtime.GC()
	runtime.ReadMemStats(&m.ms0)
	m.rep.liveBytes = m.ms0.HeapAlloc
	m.rep.virt = append(m.rep.virt, c.Now())
	m.hooks.window("ops")
	m.cpu0 = cpuSeconds()
	m.last = time.Now()
}

func (m *marks) opDone(c *mpi.Comm) {
	if c.Rank() != 0 {
		return
	}
	now := time.Now()
	m.rep.opS = append(m.rep.opS, now.Sub(m.last).Seconds())
	m.rep.virt = append(m.rep.virt, c.Now())
	m.hooks.op(m.last, now)
	m.last = now
}

func (m *marks) loopDone(c *mpi.Comm) {
	if c.Rank() != 0 {
		return
	}
	m.rep.cpuS = cpuSeconds() - m.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.rep.allocated = ms.TotalAlloc - m.ms0.TotalAlloc
	m.rep.mallocs = ms.Mallocs - m.ms0.Mallocs
	m.hooks.window("verify")
}

// rankOps is one rank's share of a cell after construction: op is the
// steady-state operation, verify the checked one.
type rankOps struct {
	op     func()
	verify func(m *marks)
}

// build constructs the cell on rank c and generates its input from the
// seed — everything setup_s pays for besides the first op.
func (w *workload) build(c *mpi.Comm, seed uint64) rankOps {
	switch {
	case w.isFFT():
		return w.buildFFT(c, seed)
	case w.spec.Algo == exchange.AlgoOSCComp:
		return w.buildCompressed(c, seed)
	default:
		o := exchange.NewOSCPhantom(c, exchange.Uniform(msgBytes), true)
		// Phantom payloads carry no data: the checks on this cell are the
		// virtual clock's (reference row, bit-identical repetitions).
		return rankOps{op: o.ExchangeN, verify: func(*marks) { o.ExchangeN() }}
	}
}

func (w *workload) buildFFT(c *mpi.Comm, seed uint64) rankOps {
	pl := core.NewPlan[complex128](c, [3]int{w.n, w.n, w.n}, w.opts)
	in := make([]complex128, pl.InBox().Count())
	core.FillBox(in, pl.InBox(), pl.InOrder(), seed)
	return rankOps{
		op: func() { pl.Forward(in) },
		verify: func(m *marks) {
			// The reshape reuses its output buffer: copy before the
			// inverse pipeline runs.
			spec := append([]complex128(nil), pl.Forward(in)...)
			c.Barrier()
			t0 := time.Now()
			back := pl.Backward(spec)
			c.Barrier()
			backwardS := time.Since(t0).Seconds()
			var errSq, normSq float64
			for i, v := range in {
				d := back[i] - v
				errSq += real(d)*real(d) + imag(d)*imag(d)
				normSq += real(v)*real(v) + imag(v)*imag(v)
			}
			errSq = c.AllreduceFloat64("sum", errSq)
			normSq = c.AllreduceFloat64("sum", normSq)
			if c.Rank() == 0 {
				m.rep.backwardS = backwardS
				m.rep.check = math.Sqrt(errSq) / math.Sqrt(normSq)
			}
		},
	}
}

func (w *workload) buildCompressed(c *mpi.Comm, seed uint64) rankOps {
	const count = msgBytes / 8
	p, me := c.Size(), c.Rank()
	method := w.method()
	stream := gpu.NewStream(gpu.V100(), c)
	x := exchange.NewCompressedOSC(c, method, stream, w.spec.Chunks, exchange.UniformCount(count))
	send := make([][]float64, p)
	for d := range send {
		send[d] = make([]float64, count)
		fillPayload(send[d], seed, me, d)
	}
	return rankOps{
		op: func() { x.Exchange(send) },
		verify: func(m *marks) {
			recv := x.Exchange(send)
			// Every source's payload is a function of (seed, src, dst), so
			// the receiver can regenerate it and push it through the
			// codec's own round trip: the exchange must deliver exactly
			// that, and that must sit within the method's error bound.
			src := make([]float64, count)
			want := make([]float64, count)
			enc := make([]byte, method.MaxCompressedLen(count))
			var mismatch, worst float64
			for s := 0; s < p; s++ {
				fillPayload(src, seed, s, me)
				method.Decompress(want, enc[:method.Compress(enc, src)])
				for i, v := range recv[s] {
					if v != want[i] {
						mismatch++
					}
					if e := relErr(v, src[i], method); e > worst || math.IsNaN(e) {
						worst = e
					}
				}
			}
			mismatch = c.AllreduceFloat64("sum", mismatch)
			worst = c.AllreduceFloat64("max", worst)
			if me == 0 {
				m.rep.mismatch = mismatch
				m.rep.check = worst
			}
		},
	}
}

// relErr scores a decoded value against its original: the relative
// error, or — below the method's normal range, where a format keeps only
// absolute accuracy — the absolute error over the bottom of that range.
func relErr(got, want float64, m compress.Method) float64 {
	return math.Abs(got-want) / math.Max(math.Abs(want), m.MinNormal())
}

// fillPayload writes the (seed, src, dst) payload: SplitMix64 values
// uniform in [-1, 1), never zero.
func fillPayload(dst []float64, seed uint64, src, to int) {
	x := seed ^ uint64(src)*0x9e3779b97f4a7c15 ^ uint64(to)*0xbf58476d1ce4e5b9
	for i := range dst {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		z ^= z >> 31
		dst[i] = (float64(int64(z)) + 0.5) / (1 << 63)
	}
}

// runRep executes one repetition of the cell with k steady-state ops.
// A panic or typed error inside any rank comes back as err, and every
// op of the repetition then counts as failed.
func (w *workload) runRep(cfg netsim.Config, seed uint64, k int, hooks *traceHooks) (repetition, error) {
	var rep repetition
	m := &marks{rep: &rep, hooks: hooks}
	hooks.window("setup")
	m.start = time.Now()
	res, err := mpi.RunChecked(cfg, func(c *mpi.Comm) {
		ops := w.build(c, seed)
		ops.op() // warm-up
		c.Barrier()
		m.setupDone(c)
		for j := 0; j < k; j++ {
			ops.op()
			c.Barrier()
			m.opDone(c)
		}
		m.loopDone(c)
		ops.verify(m)
	})
	hooks.window("")
	rep.stats = res.Stats
	if err != nil {
		return rep, fmt.Errorf("%s: %w", w.name, err)
	}
	return rep, nil
}
