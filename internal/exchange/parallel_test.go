package exchange

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/compress"
	"repro/internal/gpu"
	"repro/internal/mpi"
	"repro/internal/netsim"
)

// The determinism equivalence suite: for seeded workloads spanning all
// five exchange kinds — with and without seeded fault plans — a
// parallel run must be bit-identical to the sequential run in virtual
// times, Stats (including FaultStats), trace events, diagnostics, and
// every byte each rank received. See docs/DETERMINISM.md.

var parKinds = []string{"linear", "pairwise", "bruck", "osc", "osc-comp"}

// capture is everything observable from one workload run.
type capture struct {
	res    netsim.Result
	errStr string
	events []netsim.TraceEvent
	recv   [][]byte // flattened receive buffers per rank
}

// seededBytes builds the (src, dst)-distinguishable payload for a seed.
func seededBytes(seed int64, src, dst, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(int64(src*7+dst*13+i*3) + seed)
	}
	return b
}

// runWorkload executes one (kind, seed) workload cell. Message sizes
// vary with the seed; seeds with faults attach netsim.RandomPlan(seed)
// (which also turns on the reliable transport) and run checked.
func runWorkload(kind string, seed int64, faults, parallel bool) capture {
	cfg := netsim.Summit(1 + int(seed%2)) // 6 or 12 ranks
	cfg.Parallel = parallel
	if faults {
		plan := netsim.RandomPlan(seed)
		if plan.CrashAt > 0 {
			plan.CrashAt = 1e-6 * float64(1+seed%20)
		}
		cfg.Faults = plan
	}
	tb := netsim.NewTraceBuffer(1 << 16)
	cfg.Tracer = tb.Recorder()
	p := cfg.Ranks()
	msgBytes := 64 + 32*int(seed%5)
	msgVals := 16 + 8*int(seed%3)
	method := []compress.Method{compress.None{}, compress.Cast32{}, compress.Cast16{}, compress.Lossless{}, compress.Trim{M: 16}}[seed%5]

	var c capture
	c.recv = make([][]byte, p)
	body := func(cm *mpi.Comm) {
		me := cm.Rank()
		flat := func(got [][]byte) {
			for _, g := range got {
				c.recv[me] = append(c.recv[me], g...)
			}
		}
		switch kind {
		case "linear", "pairwise", "bruck":
			send := make([][]byte, p)
			for d := 0; d < p; d++ {
				send[d] = seededBytes(seed, me, d, msgBytes)
			}
			switch kind {
			case "linear":
				flat(cm.AlltoallvSparse(send, nil, nil))
			case "pairwise":
				flat(PairwiseAlltoallv(cm, send, nil))
			case "bruck":
				flat(BruckAlltoall(cm, send, msgBytes, msgBytes))
			}
		case "osc":
			o := NewOSC(cm, Uniform(msgBytes), seed%2 == 0)
			send := make([][]byte, p)
			for d := 0; d < p; d++ {
				send[d] = seededBytes(seed, me, d, msgBytes)
			}
			for it := 0; it < 2; it++ {
				flat(o.Exchange(send))
			}
		case "osc-comp":
			x := NewCompressedOSC(cm, method, gpu.NewStream(gpu.V100(), cm), 2+int(seed%3), UniformCount(msgVals))
			send := make([][]float64, p)
			for d := 0; d < p; d++ {
				send[d] = make([]float64, msgVals)
				for i := range send[d] {
					// Small integers: exactly representable under every
					// method swept, so lossy kinds still round-trip.
					send[d][i] = float64((me*31 + d*17 + i*5 + int(seed)) % 256)
				}
			}
			got := x.Exchange(send)
			for _, g := range got {
				for _, v := range g {
					var buf [8]byte
					bits := math.Float64bits(v)
					for k := 0; k < 8; k++ {
						buf[k] = byte(bits >> (8 * k))
					}
					c.recv[me] = append(c.recv[me], buf[:]...)
				}
			}
		default:
			panic("unknown workload kind " + kind)
		}
	}
	if faults {
		res, err := mpi.RunChecked(cfg, body)
		c.res = res
		if err != nil {
			c.errStr = err.Error()
		}
	} else {
		c.res = mpi.Run(cfg, body)
	}
	c.events = tb.Events()
	return c
}

func requireCapturesIdentical(t *testing.T, name string, seq, par capture) {
	t.Helper()
	if seq.res.Time != par.res.Time {
		t.Errorf("%s: Time differs: seq %v par %v", name, seq.res.Time, par.res.Time)
	}
	if !reflect.DeepEqual(seq.res.Clocks, par.res.Clocks) {
		t.Errorf("%s: Clocks differ", name)
	}
	if seq.res.Stats != par.res.Stats {
		t.Errorf("%s: Stats differ:\nseq %+v\npar %+v", name, seq.res.Stats, par.res.Stats)
	}
	if seq.errStr != par.errStr {
		t.Errorf("%s: diagnostics differ:\nseq %q\npar %q", name, seq.errStr, par.errStr)
	}
	if !reflect.DeepEqual(seq.events, par.events) {
		t.Errorf("%s: traces differ (%d vs %d events)", name, len(seq.events), len(par.events))
		for i := range seq.events {
			if i < len(par.events) && seq.events[i] != par.events[i] {
				t.Errorf("%s: first divergence at event %d:\nseq %+v\npar %+v", name, i, seq.events[i], par.events[i])
				break
			}
		}
	}
	for r := range seq.recv {
		if !bytes.Equal(seq.recv[r], par.recv[r]) {
			t.Errorf("%s: rank %d received different bytes (%d vs %d)", name, r, len(seq.recv[r]), len(par.recv[r]))
		}
	}
}

// TestParallelEquivalenceCleanWorkloads: every exchange kind across
// fault-free seeds (15 cells at two machine sizes).
func TestParallelEquivalenceCleanWorkloads(t *testing.T) {
	for _, kind := range parKinds {
		for seed := int64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("%s-seed%d", kind, seed)
			t.Run(name, func(t *testing.T) {
				seq := runWorkload(kind, seed, false, false)
				par := runWorkload(kind, seed, false, true)
				requireCapturesIdentical(t, name, seq, par)
				if len(seq.events) == 0 {
					t.Fatal("workload produced no traffic")
				}
			})
		}
	}
}

// TestParallelEquivalenceFaultedWorkloads: every exchange kind under
// seeded fault plans covering all RandomPlan scenario classes (drops,
// CRC + silent corruption, duplicates/spikes, degraded NICs + stalls,
// crashes, mixed), run checked so diagnostics are part of the
// comparison (10 cells; with the clean 15, 25 total ≥ the 20 the
// acceptance bar asks for).
func TestParallelEquivalenceFaultedWorkloads(t *testing.T) {
	seeds := map[string][]int64{
		"linear":   {4, 12},  // degraded NICs + stalls, crash rank 2
		"pairwise": {7, 10},  // drop storm, duplicates + spikes
		"bruck":    {8, 14},  // CRC corruption, mixed gentle storm
		"osc":      {9, 5},   // silent put corruption, crash rank 0
		"osc-comp": {16, 11}, // silent put corruption, degraded + stalls
	}
	for _, kind := range parKinds {
		for _, seed := range seeds[kind] {
			name := fmt.Sprintf("%s-seed%d", kind, seed)
			t.Run(name, func(t *testing.T) {
				seq := runWorkload(kind, seed, true, false)
				par := runWorkload(kind, seed, true, true)
				requireCapturesIdentical(t, name, seq, par)
			})
		}
	}
}

// TestParallelEquivalenceSmoke is the fixed-seed cell `make verify`
// runs (-run ParallelEquivalenceSmoke): one clean and one faulted
// workload per kind, small enough for the gate, wide enough to catch a
// scheduler regression.
func TestParallelEquivalenceSmoke(t *testing.T) {
	for _, kind := range parKinds {
		seq := runWorkload(kind, 2, false, false)
		par := runWorkload(kind, 2, false, true)
		requireCapturesIdentical(t, kind, seq, par)
		seqf := runWorkload(kind, 7, true, false)
		parf := runWorkload(kind, 7, true, true)
		requireCapturesIdentical(t, kind+"-faulted", seqf, parf)
	}
}
