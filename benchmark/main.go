// Command benchmark is the repo's two-clock benchmark: six paper-shaped
// workloads measured on the host clock (how long the simulator takes,
// what it allocates) and checked on the virtual clock (what the
// simulated Summit would take), with a traced pass that attributes each
// workload's host time to the layers of internal/. See README.md.
//
//	go run ./benchmark                    all workloads, end-to-end metrics
//	go run ./benchmark -trace 1           all workloads, per-layer metrics
//	go run ./benchmark -workload <name>   one workload, in this process
//	go run ./benchmark -selfcheck         two sets, differences against the bounds
//
// The last line of a one-workload run is its result as one JSON object.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"repro/internal/exchange"
	"repro/internal/fft"
)

// runConfig is what one run of one workload is given.
type runConfig struct {
	seed    uint64
	seconds float64 // measuring window of the untraced repetitions
	minReps int     // repetitions run even when the window is already spent
	traced  bool
	outDir  string // spans and profiles of the traced pass
}

func main() {
	workloadName := flag.String("workload", "", "run this workload in this process (default: all six, one process each)")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 15, "measuring window per workload run")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	traced := flag.Bool("traced", false, "same as -trace 1")
	selfcheck := flag.Bool("selfcheck", false, "run two full sets and compare them against the bounds in BENCHMARK.json")
	flag.Parse()
	rc := runConfig{seed: *seed, seconds: *seconds, minReps: 3, traced: *traced || *trace == 1, outDir: filepath.Join("benchmark", "out")}
	if rc.traced {
		rc.minReps = 2
	}

	var err error
	switch {
	case *selfcheck:
		err = selfCheck(rc)
	case *workloadName == "":
		_, err = runAll(rc, os.Stdout)
	default:
		err = runNamed(*workloadName, rc)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func runNamed(name string, rc runConfig) error {
	for _, w := range workloads(false) {
		if w.name == name {
			r := runWorkload(w, rc, os.Stdout)
			return r.print(os.Stdout, w.name, metricDefs(rc.traced))
		}
	}
	return fmt.Errorf("unknown workload %q", name)
}

func metricDefs(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// runWorkload measures one workload in this process and returns its
// report; progress lines (timing summaries) go to out.
func runWorkload(w *workload, rc runConfig, out io.Writer) *report {
	r := newReport(metricDefs(rc.traced))
	var tr *tracer
	if rc.traced {
		tr = newTracer()
	}
	root := tr.begin("workload", 0)

	// Reference pass: the library's own harness, exactly as the paper
	// drivers call it. It yields the virtual-clock numbers, polices the
	// committed reference row, and warms the heap.
	sp := tr.begin("reference", root)
	ref := w.reference()
	tr.end(sp)
	r.Attempted++
	if w.ref != 0 && !(ref.figure >= w.ref-w.refAbs && ref.figure <= w.ref+w.refAbs) {
		r.fail(1, "%s: virtual result %.4f does not reproduce the committed %.4g (±%.3g)", w.name, ref.figure, w.ref, w.refAbs)
	}
	if w.isFFT() && !(ref.relErr <= w.errBound()) {
		r.fail(1, "%s: harness rel_err %.3g exceeds the bound %.3g", w.name, ref.relErr, w.errBound())
	}

	window := rc.seconds
	if rc.traced {
		window /= 4 // most of a traced run goes to the traced repetitions and the replays
	}
	sp = tr.begin("untraced", root)
	reps := w.timedPass(rc.seed, window, rc.minReps, r)
	tr.end(sp)
	if len(reps) == 0 {
		return r
	}
	e := aggregate(reps, w.k)
	fmt.Fprintf(out, "%-16s setup samples (s): %v\n", w.name, e.setup)
	fmt.Fprintf(out, "%-16s op samples (s):    %v  least disturbed repetition %.6g\n", w.name, e.op, e.opS)

	if !rc.traced {
		r.set("setup_s", e.setup.median)
		r.set("op_s", e.opS)
		r.set("alloc_mb_per_op", e.allocMB)
		r.set("allocs_per_op", e.allocs)
		r.set("live_mb", e.liveMB)
		return r
	}
	(&session{w: w, rc: rc, r: r, tr: tr, root: root, out: out}).tracedPass(ref, e)
	tr.end(root)
	if err := tr.write(filepath.Join(rc.outDir, w.name+".spans.json"), w.name); err != nil {
		r.fail(1, "%v", err)
	}
	return r
}

// timedPass runs untraced repetitions of the cell until both minReps and
// the window are met, checking each. A repetition that fails outright
// ends the pass: its ops are counted as failed and retrying would only
// repeat the failure.
func (w *workload) timedPass(seed uint64, seconds float64, minReps int, r *report) []repetition {
	var reps []repetition
	start := time.Now()
	for len(reps) < minReps || time.Since(start).Seconds() < seconds {
		rep, err := w.runRep(w.machine(), seed, w.k, nil)
		r.Attempted += w.k + 2 // warm-up, k ops, verify
		if err != nil {
			r.fail(w.k+2, "%v", err)
			break
		}
		w.checkRep(&rep, reps, r)
		reps = append(reps, rep)
	}
	return reps
}

// checkRep applies the data and determinism checks to one repetition:
// the verify op's error within the cell's bound, the decoded payload
// equal to the codec's own round trip, and the virtual clock and traffic
// counts bit-identical to those of the first of the earlier repetitions
// (which were held to it in turn).
func (w *workload) checkRep(rep *repetition, earlier []repetition, r *report) {
	if !(rep.check <= w.errBound()) {
		r.fail(1, "%s: rel_err %.3g exceeds the bound %.3g", w.name, rep.check, w.errBound())
	}
	if rep.mismatch != 0 {
		r.fail(1, "%s: %.0f decoded values differ from the codec's own round trip", w.name, rep.mismatch)
	}
	if len(earlier) == 0 {
		return
	}
	first := &earlier[0]
	for i := 0; i < len(rep.virt) && i < len(first.virt); i++ {
		if rep.virt[i] != first.virt[i] {
			r.fail(1, "%s: virtual clock differs between repetitions at mark %d: %v vs %v", w.name, i, rep.virt[i], first.virt[i])
			break
		}
	}
	if len(rep.virt) == len(first.virt) && (rep.check != first.check || !reflect.DeepEqual(rep.stats, first.stats)) {
		r.fail(1, "%s: results differ between repetitions", w.name)
	}
}

// aggregated is the host-clock summary of a pass.
type aggregated struct {
	setup, op               summary
	opS                     float64 // the gated op_s, see quietOpS
	allocMB, allocs, liveMB float64 // medians over the repetitions
	cpuSPerOp, backwardS    float64
	check                   float64
}

// quietOpS is the op time of the least disturbed repetition: the lowest
// of the repetitions' median op times. Interference from outside the
// process is one-sided and, on shared machines, comes in phases of
// seconds that slow every op alike (README.md, "Steadiness"), so the
// median over a whole run follows how much of the run was disturbed;
// the best repetition's median does not, as long as one repetition of
// the run fell into a quiet phase.
func quietOpS(reps []repetition) float64 {
	var medians []float64
	for _, rep := range reps {
		medians = append(medians, median(rep.opS))
	}
	return lowest(medians)
}

func aggregate(reps []repetition, k int) aggregated {
	var setup, ops, allocMB, allocs, live, cpu, backward []float64
	for _, rep := range reps {
		setup = append(setup, rep.setupS)
		ops = append(ops, rep.opS...)
		allocMB = append(allocMB, float64(rep.allocated)/float64(k)/1e6)
		allocs = append(allocs, float64(rep.mallocs)/float64(k))
		live = append(live, float64(rep.liveBytes)/1e6)
		cpu = append(cpu, rep.cpuS/float64(k))
		backward = append(backward, rep.backwardS)
	}
	return aggregated{
		setup: summarize(setup), op: summarize(ops), opS: quietOpS(reps),
		allocMB: median(allocMB), allocs: median(allocs), liveMB: median(live),
		cpuSPerOp: median(cpu), backwardS: median(backward), check: reps[0].check,
	}
}

// session is the traced pass of one workload in progress: what its
// steps report into.
type session struct {
	w    *workload
	rc   runConfig
	r    *report
	tr   *tracer
	root int // the workload span
	out  io.Writer
}

// tracedPass repeats the workload with spans and CPU profiles, replays
// its layers standalone, and fills in the per-layer metrics. base is the
// untraced pass of the same process, the yardstick for overheads and
// derived ratios.
func (s *session) tracedPass(ref reference, base aggregated) {
	w, rc, r, tr, root, out := s.w, s.rc, s.r, s.tr, s.root, s.out
	cfg := w.machine()
	prof, err := newProfiler(rc.outDir, w.name)
	if err != nil {
		r.fail(1, "%v", err)
		return
	}

	// Two traced repetitions: a short one of k ops and a long one of 3k,
	// which carries the CPU profiles (one pair of windows: starting and
	// stopping a profile costs 0.2 s). The difference of their traffic
	// counts is exactly 2k ops' worth.
	var traced []repetition
	for i, k := range []int{w.k, 3 * w.k} {
		hooks := &traceHooks{tr: tr, parent: tr.begin(fmt.Sprintf("rep[%d]", i), root)}
		if i == 1 {
			hooks.prof = prof
		}
		rep, err := w.runRep(cfg, rc.seed, k, hooks)
		tr.end(hooks.parent)
		r.Attempted += k + 2
		if err != nil {
			r.fail(k+2, "%v", err)
			return
		}
		w.checkRep(&rep, traced, r)
		traced = append(traced, rep)
	}
	a, b := traced[0].stats, traced[1].stats
	perOp := func(name string, diff int64) float64 {
		if diff%int64(2*w.k) != 0 {
			r.fail(1, "%s: %s: %d over %d ops is not a whole count per op", w.name, name, diff, 2*w.k)
		}
		v := float64(diff / int64(2*w.k))
		r.set(name, v)
		return v
	}
	msgsPerOp := perOp("netsim.msgs_per_op", int64(b.Messages-a.Messages))
	putsPerOp := perOp("netsim.puts_per_op", int64(b.Puts-a.Puts))
	perOp("netsim.fences_per_op", int64(b.Fences-a.Fences))
	bytesPerOp := perOp("netsim.bytes_inter_per_op", b.BytesInter-a.BytesInter) +
		perOp("netsim.bytes_intra_per_op", b.BytesIntra-a.BytesIntra)
	opS := base.opS

	r.set("virt_s_per_op", ref.virtSPerOp)
	r.set("rel_err", base.check)
	r.set("netsim.virt_per_host", ref.virtSPerOp/opS)
	r.set("proc.cold_cell_s", ref.wallS)
	r.set("proc.cpu_s_per_op", base.cpuSPerOp)
	r.set("proc.setup_share", base.setup.median/(base.setup.median+opS))
	r.set("proc.trace_overhead_frac", quietOpS(traced)/opS-1)

	// CPU profiles of the op loops, folded by layer; of the setup
	// windows, for the one layer whose setup share is tracked.
	fold := func(window string) map[string]float64 {
		shares, err := foldProfiles(prof.files[window])
		switch {
		case prof.err != nil:
			r.fail(1, "cpu profile: %v", prof.err)
		case errors.Is(err, errNoSamples):
			fmt.Fprintf(out, "%-16s no CPU samples in the %s windows (shorter than the 10 ms sampling period)\n", w.name, window)
		case err != nil:
			r.fail(1, "%v", err)
		}
		return shares
	}
	for name, share := range fold("ops") {
		r.set(name, share)
	}
	r.set("grid.setup_frac", fold("setup")["grid.self_frac"])

	s.replayLayers(ref, base, perOpTraffic{msgs: msgsPerOp, puts: putsPerOp, bytes: bytesPerOp})
	r.set("proc.peak_rss_mb", peakRSSMB())
}

// perOpTraffic is one op's exact traffic, from the traced repetitions.
type perOpTraffic struct{ msgs, puts, bytes float64 }

// replayLayers runs the standalone replays of layers.go at the
// workload's shapes, each under its own replay.<layer> span, and fills
// in their metrics and the residual they leave.
func (s *session) replayLayers(ref reference, base aggregated, traffic perOpTraffic) {
	w, rc, r, tr, out := s.w, s.rc, s.r, s.tr, s.out
	cfg := w.machine()
	p := cfg.Ranks()
	replay := func(layer string, f func()) {
		sp := tr.begin("replay."+layer, s.root)
		f()
		tr.end(sp)
	}
	replayed := 0.0 // Σ *.replay_s
	replay("netsim", func() { r.set("netsim.ring_msgs_per_s", ringMsgsPerS(cfg)) })
	replay("mpi", func() {
		bytes := msgBytes
		if w.isFFT() {
			bytes = int(traffic.bytes / traffic.msgs)
		}
		c := mpiPrimitives(cfg, bytes)
		r.set("mpi.alltoallv_us_per_msg", c.alltoallvUsPerMsg)
		r.set("mpi.put_us_per_put", c.putUsPerPut)
		r.set("mpi.barrier_us", c.barrierUs)
		r.set("mpi.win_create_ms", c.winCreateMs)
	})
	replay("exchange", func() {
		sec := w.transportReplay(int(math.Min(150000/traffic.msgs+2, 50)))
		r.set("exchange.transport_replay_s", sec)
		replayed += sec
		if !w.isFFT() {
			r.set("exchange.virt_node_gbs", ref.figure)
		}
		if w.spec.Algo == exchange.AlgoOSC {
			gbs, us := linearBaseline(cfg)
			r.set("exchange.linear_virt_node_gbs", gbs)
			r.set("exchange.linear_us_per_msg", us)
			r.Attempted++
			if w.refLinear != 0 && !(gbs >= w.refLinear-w.refAbs && gbs <= w.refLinear+w.refAbs) {
				r.fail(1, "%s: linear all-to-all %.4f GB/s does not reproduce the committed %.4g", w.name, gbs, w.refLinear)
			}
		}
	})
	if m := w.method(); w.compressed() {
		replay("compress", func() {
			msgLen, opValues := msgBytes/8, p*p*msgBytes/8
			if w.isFFT() {
				opValues = 4 * 2 * w.n * w.n * w.n
				msgLen = opValues / int(traffic.puts)
			}
			c := compressReplay(m, msgLen, opValues, rc.seed)
			fmt.Fprintf(out, "%-16s codec replay: %s, %d values per message, source array %.0f MB (largest cache %.0f MB)\n",
				w.name, m.Name(), msgLen, c.arrayMB, llcMB())
			r.set("compress.enc_gbs", c.inputBytes/c.encS/1e9)
			r.set("compress.dec_gbs", c.inputBytes/c.decS/1e9)
			r.set("compress.replay_s", c.encS+c.decS)
			r.set("compress.achieved_ratio", c.ratio)
			r.set("compress.max_rel_err", c.maxRelErr)
			replayed += c.encS + c.decS
		})
		if usesFP16(m) {
			replay("precision", func() { r.set("precision.f16_mvals_per_s", f16MvalsPerS(rc.seed)) })
		}
	}
	replay("gpu", func() { r.set("gpu.launch_ns", gpuLaunchNs()) })
	if w.isFFT() {
		replay("fft", func() {
			sec := fftReplay(w.n, p)
			r.set("fft.replay_s", sec)
			r.set("fft.batch_gflops", fft.FlopCount(w.n*w.n*w.n)/sec/1e9)
			replayed += sec
		})
		replay("grid", func() {
			g := gridReplay(w.n, p)
			r.set("grid.pack_gbs", g.bytes/g.packS/1e9)
			r.set("grid.unpack_gbs", g.bytes/g.unpackS/1e9)
			r.set("grid.replay_s", g.packS+g.unpackS)
			r.set("grid.plan_us", g.planUs)
			replayed += g.packS + g.unpackS
		})
		replay("core", func() {
			total := ref.profile.Total()
			r.set("core.backward_s", base.backwardS)
			r.set("core.virt_gflops", ref.figure)
			r.set("core.virt_exchange_frac", ref.profile.Exchange/total)
			r.set("core.virt_fft_frac", ref.profile.FFT/total)
			r.set("core.virt_pack_frac", (ref.profile.Pack+ref.profile.Unpack)/total)
			r.set("core.predict_ratio", w.predictRatio())
			r.set("core.plan_over_data", base.liveMB/(16*float64(w.n*w.n*w.n)/1e6))
		})
	}
	r.set("proc.residual_frac", 1-replayed/base.opS)

	if w.deep {
		replay("parallel", s.parallelPairs)
		if w.isFFT() {
			replay("harness", func() {
				h, err := w.harnessOverheads()
				ms, err2 := w.tuneSelectMs()
				if err != nil || err2 != nil {
					r.fail(1, "%s: harness replays: %v %v", w.name, err, err2)
					return
				}
				r.set("recover.host_overhead_frac", h.recoverHost)
				r.set("recover.virt_overhead_frac", h.recoverVirt)
				r.set("obs.recorder_overhead_frac", h.recorderHost)
				r.set("tune.fft_select_ms", ms)
			})
		}
	}
}

// parallelPairs runs the same rank body under the sequential and the
// parallel engine in interleaved pairs, alternating which goes first.
// The engines must agree bit for bit; the speedup is the ratio of their
// op_s (quietOpS), the CPU ratio what the parallel engine burns for it.
func (s *session) parallelPairs() {
	w, r := s.w, s.r
	const pairs = 5
	k := w.k
	if k > 3 {
		k = 3
	}
	var reps [2][]repetition // [0] sequential, [1] parallel
	var cpuS [2][]float64
	for i := 0; i < pairs; i++ {
		for j := 0; j < 2; j++ {
			mode := (i + j) % 2
			cfg := w.machine()
			cfg.Parallel = mode == 1
			cpu0 := cpuSeconds()
			rep, err := w.runRep(cfg, s.rc.seed, k, nil)
			r.Attempted += k + 2
			if err != nil {
				r.fail(k+2, "%v", err)
				return
			}
			cpuS[mode] = append(cpuS[mode], cpuSeconds()-cpu0)
			// The first run is sequential: both engines are held to it.
			w.checkRep(&rep, reps[0], r)
			reps[mode] = append(reps[mode], rep)
		}
	}
	r.set("netsim.parallel_speedup", quietOpS(reps[0])/quietOpS(reps[1]))
	r.set("netsim.parallel_cpu_ratio", lowest(cpuS[1])/lowest(cpuS[0]))
}
