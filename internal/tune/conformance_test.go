package tune

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/exchange"
	"repro/internal/fft"
	"repro/internal/mpi"
	"repro/internal/netsim"
	recov "repro/internal/recover"
)

// FixedOptions maps a uniform cell (every stage the same winner) back
// onto plain fixed core.Options — the reference configuration the
// differential conformance suite compares an autotuned run against.
// ok is false when the stages disagree or the cell is empty.
func (c *Cell) FixedOptions(base core.Options) (core.Options, bool) {
	if len(c.Stages) == 0 {
		return base, false
	}
	first := c.Stages[0]
	for _, st := range c.Stages[1:] {
		if st.Algo != first.Algo || st.Method != first.Method || st.Chunks != first.Chunks {
			return base, false
		}
	}
	cand, err := first.candidate()
	if err != nil {
		return base, false
	}
	return cand.options(base), true
}

func exchangeBandwidth(cfg netsim.Config, spec exchange.Spec, msg int) float64 {
	return exchange.NodeBandwidthSpec(nil, cfg, spec, msg, 1)
}

// conformance cells: seeded (machine × count × precision) grid. Each
// cell demands that the autotuned run is bit-identical — outputs and
// virtual times — to the fixed-config run of the winner it selected,
// fault-free and under fault injection with recovery.
type confCell struct {
	name   string
	nodes  int
	budget float64
	fp32   bool
}

var confCells = []confCell{
	{"summit1-lossless", 1, 0, false},
	{"summit1-budget1e-3", 1, 1e-3, false},
	{"summit2-budget1e-3", 2, 1e-3, false},
	{"summit2-fp32", 2, 0, true},
}

// confSpace keeps probe cost low while forcing a uniform winner across
// stages (FixedOptions needs stage agreement, which the probe pass
// guarantees by construction).
func confSpace(budget float64) Space {
	return Space{Budget: budget, Chunks: []int{2, 4}, ProbeTopK: 1}
}

// fftRun is the bit-comparable signature of one forward transform:
// every rank's output spectrum and final virtual time.
type fftRun[C fft.Complex] struct {
	spectra [][]C
	times   []float64
	stats   netsim.Stats
}

func runForward[C fft.Complex](cfg netsim.Config, n [3]int, opts core.Options) fftRun[C] {
	out := fftRun[C]{
		spectra: make([][]C, cfg.Ranks()),
		times:   make([]float64, cfg.Ranks()),
	}
	res := mpi.Run(cfg, func(c *mpi.Comm) {
		pl := core.NewPlan[C](c, n, opts)
		in := make([]C, pl.InBox().Count())
		core.FillBox(in, pl.InBox(), pl.InOrder(), 1)
		spec := pl.Forward(in)
		out.spectra[c.Rank()] = append([]C(nil), spec...)
		out.times[c.Rank()] = c.Now()
	})
	out.stats = res.Stats
	return out
}

func checkRunsEqual[C fft.Complex](t *testing.T, what string, a, b fftRun[C]) {
	t.Helper()
	if !reflect.DeepEqual(a.times, b.times) {
		t.Errorf("%s: virtual times differ: %v vs %v", what, a.times, b.times)
	}
	if a.stats != b.stats {
		t.Errorf("%s: stats differ: %+v vs %+v", what, a.stats, b.stats)
	}
	for r := range a.spectra {
		if !reflect.DeepEqual(a.spectra[r], b.spectra[r]) {
			t.Errorf("%s: rank %d output spectrum differs", what, r)
		}
	}
}

func tuneCell[C fft.Complex](t *testing.T, cfg netsim.Config, n [3]int, base core.Options, sp Space) *Cell {
	t.Helper()
	cell, err := FFT[C](cfg, n, base, sp)
	if err != nil {
		t.Fatal(err)
	}
	return cell
}

// conformance runs one cell's differential check for one precision.
func conformance[C fft.Complex](t *testing.T, cc confCell) {
	n := [3]int{16, 16, 16}
	base := core.Options{}
	sp := confSpace(cc.budget)

	cfg := netsim.Summit(cc.nodes)
	cell := tuneCell[C](t, cfg, n, base, sp)
	fixed, ok := cell.FixedOptions(base)
	if !ok {
		t.Fatalf("probed cell not uniform: %+v", cell.Stages)
	}
	tuned := base
	tuned.Tune = cell

	// The plan itself must be stable: re-tuning yields byte-identical
	// canonical encodings.
	reCell := tuneCell[C](t, cfg, n, base, sp)
	pa, err := (&Plan{Schema: PlanSchema, Budget: cc.budget, Cells: []Cell{*cell}}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	pb, err := (&Plan{Schema: PlanSchema, Budget: cc.budget, Cells: []Cell{*reCell}}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pa, pb) {
		t.Fatalf("plan not bit-stable across tuning runs:\n%s\nvs\n%s", pa, pb)
	}

	// Fault-free and fault-injected transports: the tuned run must be
	// indistinguishable from the selected fixed configuration.
	for _, faults := range []int64{0, 12345} {
		fcfg := cfg
		if faults != 0 {
			fcfg.Faults = netsim.RandomPlan(faults)
		}
		a := runForward[C](fcfg, n, tuned)
		b := runForward[C](fcfg, n, fixed)
		checkRunsEqual(t, cc.name, a, b)
	}
}

func TestConformanceGrid(t *testing.T) {
	for _, cc := range confCells {
		t.Run(cc.name, func(t *testing.T) {
			if cc.fp32 {
				conformance[complex64](t, cc)
			} else {
				conformance[complex128](t, cc)
			}
		})
	}
}

// TestConformanceRecoverable: under the crash-recovery runtime (the
// -recover path: seeded crashes, rollback, respawn) the tuned run's
// measured results still match the fixed winner bit for bit.
func TestConformanceRecoverable(t *testing.T) {
	n := [3]int{16, 16, 16}
	base := core.Options{}
	cfg := netsim.Summit(1)
	cell := tuneCell[complex128](t, cfg, n, base, confSpace(1e-3))
	fixed, ok := cell.FixedOptions(base)
	if !ok {
		t.Fatalf("probed cell not uniform: %+v", cell.Stages)
	}
	tuned := base
	tuned.Tune = cell

	const seed = 99
	run := cfg
	run.Faults = netsim.RandomPlan(seed)
	pol := recov.Policy{Seed: seed}
	ra, oa, err := core.MeasureRecoverable[complex128](nil, run, n, tuned, 1, true, pol)
	if err != nil {
		t.Fatal(err)
	}
	rb, ob, err := core.MeasureRecoverable[complex128](nil, run, n, fixed, 1, true, pol)
	if err != nil {
		t.Fatal(err)
	}
	if ra.ForwardTime != rb.ForwardTime || ra.Stats != rb.Stats {
		t.Errorf("recoverable runs differ: %v/%+v vs %v/%+v", ra.ForwardTime, ra.Stats, rb.ForwardTime, rb.Stats)
	}
	if ra.RelErr != rb.RelErr && !(math.IsNaN(ra.RelErr) && math.IsNaN(rb.RelErr)) {
		t.Errorf("RelErr differs: %v vs %v", ra.RelErr, rb.RelErr)
	}
	if len(oa.Recoveries) != len(ob.Recoveries) {
		t.Errorf("recovery timelines differ: %d vs %d", len(oa.Recoveries), len(ob.Recoveries))
	}
}

// TestTunePlanIgnoresFaultsAndObservers: the tuner strips the machine's
// run-mode fields, so a plan computed under fault injection is the plan
// computed without it.
func TestTunePlanIgnoresFaultsAndObservers(t *testing.T) {
	n := [3]int{16, 16, 16}
	cfg := netsim.Summit(1)
	clean := tuneCell[complex128](t, cfg, n, core.Options{}, confSpace(1e-3))
	cfg.Faults = netsim.RandomPlan(777)
	faulty := tuneCell[complex128](t, cfg, n, core.Options{}, confSpace(1e-3))
	if !reflect.DeepEqual(clean, faulty) {
		t.Errorf("plan depends on the fault plan:\n%+v\nvs\n%+v", clean, faulty)
	}
}

// TestAlltoallConformance: the tuned bandwidth-harness cell names a
// fixed spec that replays to the same bandwidth on every run.
func TestAlltoallConformance(t *testing.T) {
	cfg := netsim.Summit(2)
	const msg = 4096
	cell, err := Alltoall(cfg, msg, Space{Budget: 1e-3, Chunks: []int{2, 4}, ProbeTopK: 1})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := cell.BenchSpec()
	if err != nil {
		t.Fatal(err)
	}
	if a, b := exchangeBandwidth(cfg, spec, msg), exchangeBandwidth(cfg, spec, msg); a != b || a <= 0 {
		t.Errorf("tuned bandwidth %v, then %v on a replay", a, b)
	}
}
