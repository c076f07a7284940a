package exchange

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/compress"
	"repro/internal/gpu"
	"repro/internal/mpi"
	"repro/internal/netsim"
	"repro/internal/obs"
	recov "repro/internal/recover"
)

// Algorithms available to the bandwidth harness.
const (
	AlgoLinear   = "linear"
	AlgoPairwise = "pairwise"
	AlgoBruck    = "bruck" // log-round aggregated algorithm (small messages)
	AlgoOSC      = "osc"
	AlgoOSCNaive = "osc-naive" // ring without the node-aware permutation
	// AlgoOSCComp is the compressed one-sided exchange on real payloads
	// (FP64→FP32 cast); its bandwidth is computed over the logical bytes,
	// so the speedup over plain osc shows the compression win.
	AlgoOSCComp = "osc-comp"
)

// Algos lists every algorithm name the bandwidth harness accepts, so
// drivers can validate user input before a run starts.
var Algos = []string{AlgoLinear, AlgoPairwise, AlgoBruck, AlgoOSC, AlgoOSCNaive, AlgoOSCComp}

// Spec parameterizes the bandwidth harness beyond the named algorithm
// presets: the compressed algorithm's method and pipeline depth become
// selectable (the autotuner's winners need both). The zero Method /
// Chunks keep the presets' fixed configuration (Cast32, 4 chunks), so
// Spec{Algo: a} behaves exactly like the plain algorithm string.
type Spec struct {
	Algo   string
	Method compress.Method // AlgoOSCComp only; nil selects Cast32
	Chunks int             // AlgoOSCComp only; 0 selects 4
}

// resolve fills the defaults and rejects an algorithm the harness does
// not know — on the caller's goroutine, before any rank starts.
func (s Spec) resolve() (Spec, error) {
	if s.Method == nil {
		s.Method = compress.Cast32{}
	}
	if s.Chunks == 0 {
		s.Chunks = 4
	}
	if slices.Contains(Algos, s.Algo) {
		return s, nil
	}
	return s, fmt.Errorf("exchange: unknown algorithm %q (valid: %s)", s.Algo, strings.Join(Algos, ", "))
}

// newCell builds one rank's side of a bandwidth cell: run performs one
// uniform all-to-all of msgBytes per pair (phantom payloads, except the
// compressed exchange, which needs real data); cosc is that compressed
// exchange — the only algorithm here with a healing ledger to
// checkpoint — and nil otherwise. Collective: everything sizes itself
// off the live communicator.
func newCell(c *mpi.Comm, spec Spec, msgBytes int) (run func(), cosc *CompressedOSC) {
	switch spec.Algo {
	case AlgoLinear, AlgoPairwise:
		sizes := make([]int, c.Size())
		for i := range sizes {
			sizes[i] = msgBytes
		}
		if spec.Algo == AlgoLinear {
			return func() { c.AlltoallvLeased(nil, nil, nil, sizes) }, nil
		}
		return func() { PairwiseAlltoallv(c, nil, sizes) }, nil
	case AlgoBruck:
		return func() { BruckAlltoall(c, nil, msgBytes, msgBytes) }, nil
	case AlgoOSC, AlgoOSCNaive:
		o := NewOSCPhantom(c, Uniform(msgBytes), spec.Algo == AlgoOSC)
		return func() { o.Exchange(nil) }, nil
	case AlgoOSCComp:
		count := msgBytes / 8
		if count < 1 {
			count = 1
		}
		stream := gpu.NewStream(gpu.V100(), c)
		stream.SetObserver(c.Obs())
		cosc = NewCompressedOSC(c, spec.Method, stream, spec.Chunks, UniformCount(count))
		cosc.SetLabel("bench")
		send := benchPayload(c.Rank(), c.Size(), count)
		return func() { cosc.Exchange(send) }, cosc
	}
	panic("exchange: unresolved algorithm " + spec.Algo)
}

// timedLoop is the measurement window every harness shares: one warmup
// step, then iters measured steps between barriers. It returns the
// earliest start and the latest end over all ranks (virtual seconds).
func timedLoop(c *mpi.Comm, iters int, step func(measured bool)) (t0, t1 float64) {
	step(false) // warmup
	c.Barrier()
	t0 = c.AllreduceFloat64("min", c.Now())
	for i := 0; i < iters; i++ {
		step(true)
	}
	c.Barrier()
	t1 = c.AllreduceFloat64("max", c.Now())
	return t0, t1
}

// NodeBandwidthSpec runs a uniform all-to-all (msgBytes per pair) iters
// times on the machine, with the recorder attached (nil records
// nothing), and returns the average node bandwidth in bytes/s — the
// Fig. 3 metric: total bytes sent divided by the exchange time and the
// node count. Setup (window creation, warmup iteration) is excluded
// from the measured window. It panics on an unknown Spec.Algo before
// the simulation starts.
func NodeBandwidthSpec(rec *obs.Recorder, cfg netsim.Config, spec Spec, msgBytes, iters int) float64 {
	spec, err := spec.resolve()
	if err != nil {
		panic(err.Error())
	}
	p := cfg.Ranks()
	var start, end float64
	mpi.RunWith(cfg, rec, func(c *mpi.Comm) {
		run, _ := newCell(c, spec, msgBytes)
		t0, t1 := timedLoop(c, iters, func(bool) { run() })
		if c.Rank() == 0 {
			start, end = t0, t1
		}
	})
	total := float64(iters) * float64(p) * float64(p) * float64(msgBytes)
	return total / (end - start) / float64(cfg.Nodes)
}

// NodeBandwidthRecoverableSpec is NodeBandwidthSpec under the
// crash-recovery runtime (docs/ROBUSTNESS.md): every iteration ends with
// an epoch checkpoint carrying the exchange's healing ledger, and on a
// watchdog crash verdict the controller rolls back, respawns, and
// resumes the sweep instead of failing it. The bandwidth is computed
// over the iterations the final attempt actually executed (replayed
// iterations are restored, not re-run), so a recovered measurement
// stays well-defined. An unknown Spec.Algo is an error, returned before
// the simulation starts.
func NodeBandwidthRecoverableSpec(rec *obs.Recorder, cfg netsim.Config, spec Spec, msgBytes, iters int, pol recov.Policy) (float64, recov.Outcome, error) {
	spec, err := spec.resolve()
	if err != nil {
		return 0, recov.Outcome{}, err
	}
	p := cfg.Ranks()
	var start, end float64
	var performed int
	ct := &recov.Controller{Policy: pol}
	out, err := ct.Run(cfg, rec, func(c *mpi.Comm, rk *recov.Rank) {
		run, cosc := newCell(c, spec, msgBytes)
		// One iteration = one recovery epoch: epochs the committed
		// checkpoint covers are skipped (their ledger state is restored),
		// the rest execute and checkpoint. myPerformed is rank-local;
		// rank 0 publishes it after the closing barrier.
		epoch, myPerformed := 0, 0
		t0, t1 := timedLoop(c, iters, func(measured bool) {
			epoch++
			if resume := rk.Resume(); epoch <= resume {
				if epoch == resume && cosc != nil {
					snap, err := rk.Restore()
					if err != nil {
						panic(fmt.Sprintf("exchange: rank %d cannot restore epoch %d: %v", c.Rank(), epoch, err))
					}
					if err := cosc.RestoreLedger(snap); err != nil {
						panic(fmt.Sprintf("exchange: rank %d epoch %d: %v", c.Rank(), epoch, err))
					}
				}
				return
			}
			run()
			if measured {
				myPerformed++
			}
			var snap []byte
			if cosc != nil {
				snap = cosc.LedgerState()
			}
			rk.Checkpoint(epoch, snap)
		})
		if c.Rank() == 0 {
			start, end = t0, t1
			performed = myPerformed
		}
	})
	if err != nil {
		return 0, out, err
	}
	if performed == 0 || end <= start {
		return 0, out, nil
	}
	total := float64(performed) * float64(p) * float64(p) * float64(msgBytes)
	return total / (end - start) / float64(cfg.Nodes), out, nil
}

// benchPayload builds deterministic pseudo-data in (-1, 1) for every
// destination rank.
func benchPayload(rank, p, count int) [][]float64 {
	send := make([][]float64, p)
	for d := range send {
		send[d] = make([]float64, count)
		for i := range send[d] {
			send[d][i] = float64((rank*31+d*17+i*13)%2000-1000) / 1000
		}
	}
	return send
}

// CompressedExchangeTimeWith measures one compressed OSC exchange of
// count float64 values per pair on real random-like data, with the
// recorder attached (nil records nothing), and returns the exchange
// time (excluding construction and warmup).
func CompressedExchangeTimeWith(rec *obs.Recorder, cfg netsim.Config, method compress.Method, chunks, count, iters int, pipelined bool) float64 {
	var start, end float64
	mpi.RunWith(cfg, rec, func(c *mpi.Comm) {
		stream := gpu.NewStream(gpu.V100(), c)
		stream.SetObserver(c.Obs())
		x := NewCompressedOSC(c, method, stream, chunks, UniformCount(count))
		x.Pipelined = pipelined
		send := benchPayload(c.Rank(), c.Size(), count)
		t0, t1 := timedLoop(c, iters, func(bool) { x.Exchange(send) })
		if c.Rank() == 0 {
			start, end = t0, t1
		}
	})
	return (end - start) / float64(iters)
}
