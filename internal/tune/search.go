package tune

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/exchange"
	"repro/internal/fft"
	"repro/internal/gpu"
	"repro/internal/netsim"
)

// probeConfig strips the run-mode fields off the machine model before a
// probe run: faults and observers must not leak into tuning decisions
// (a plan has to be identical whether or not the consuming run injects
// faults), and probes carry no recorders.
func probeConfig(cfg netsim.Config) netsim.Config {
	cfg.Faults = nil
	cfg.FaultObserver = nil
	cfg.Tracer = nil
	return cfg
}

// FFT tunes every forward reshape of an n[0]×n[1]×n[2] transform on the
// machine: per stage, the admissible candidate with the best roofline
// prediction; optionally (Space.ProbeTopK > 0) the best K whole-pipeline
// candidates are probed with short seeded simulation runs and the
// measured winner overrides all stages. C selects the pipeline
// precision like core.Plan's parameter; complex64 restricts the space
// to the lossless backends. base supplies the non-exchange options
// (SimScale, PencilIO, Device) the probes and shape key use.
func FFT[C fft.Complex](cfg netsim.Config, n [3]int, base core.Options, sp Space) (*Cell, error) {
	cfg = probeConfig(cfg)
	sp = sp.withDefaults()
	var zero C
	_, fp32 := any(zero).(complex64)
	elem := 16
	if fp32 {
		sp.Lossless = true
		elem = 8
	}
	dev := base.Device
	if dev == (gpu.Device{}) {
		dev = gpu.V100()
	}
	if cfg.Ranks() < 1 {
		return nil, fmt.Errorf("tune: degenerate FFT shape")
	}
	stages := core.ForwardTraffic(cfg.Ranks(), n, base.SimScale, base.PencilIO, elem)
	choices, err := selectStages(cfg, dev, stages, sp, func(c Candidate) float64 {
		return core.MeasureWith[C](nil, cfg, n, c.options(base), sp.ProbeIters, false).ForwardTime
	})
	if err != nil {
		return nil, err
	}
	return &Cell{Machine: Fingerprint(cfg), Shape: FFTShape(n, base.SimScale, fp32, base.PencilIO), Stages: choices}, nil
}

// Alltoall tunes the uniform all-to-all of the bandwidth harness:
// msgBytes per process pair (self included, matching NodeBandwidthSpec's
// accounting). The cell has a single "alltoall" stage; its winner maps
// onto the harness with Cell.BenchSpec. Probes (ProbeTopK > 0) run the
// harness itself and select by measured exchange time.
func Alltoall(cfg netsim.Config, msgBytes int, sp Space) (*Cell, error) {
	cfg = probeConfig(cfg)
	sp = sp.withDefaults()
	if msgBytes < 1 || cfg.Ranks() < 1 {
		return nil, fmt.Errorf("tune: degenerate all-to-all shape")
	}
	p := float64(cfg.Ranks())
	total := float64(sp.ProbeIters) * p * p * float64(msgBytes)
	stages := []core.Traffic{{Label: "alltoall", Bytes: func(dst, src int) int { return msgBytes }}}
	choices, err := selectStages(cfg, gpu.V100(), stages, sp, func(c Candidate) float64 {
		bw := exchange.NodeBandwidthSpec(nil, cfg, c.spec(), msgBytes, sp.ProbeIters)
		if bw <= 0 {
			return 0
		}
		// NodeBandwidthSpec divides total bytes by time and node count;
		// invert it back to seconds per measured exchange.
		return total / (bw * float64(cfg.Nodes)) / float64(sp.ProbeIters)
	})
	if err != nil {
		return nil, err
	}
	return &Cell{Machine: Fingerprint(cfg), Shape: AlltoallShape(msgBytes), Stages: choices}, nil
}

// selectStages scores every candidate of sp (defaults applied) on every
// stage's traffic and returns one winner per stage: the best prediction
// per stage, or — with ProbeTopK > 0 — one winner for all stages, chosen
// among the top K by summed prediction once measure has probed them.
func selectStages(cfg netsim.Config, dev gpu.Device, stages []core.Traffic, sp Space, measure func(Candidate) float64) ([]Choice, error) {
	cands := sp.Candidates()
	totals := make([]Scored, len(cands))
	perStage := make([][]Scored, len(stages))
	for si, st := range stages {
		perStage[si] = make([]Scored, len(cands))
		for ci, cand := range cands {
			pred := Predict(cfg, dev, st.Bytes, cand)
			perStage[si][ci] = Scored{Candidate: cand, Predicted: pred}
			totals[ci].Candidate = cand
			totals[ci].Predicted += pred
		}
	}
	var winner Scored
	ok := true
	if sp.ProbeTopK > 0 {
		winner, ok = Select(probe(totals, sp, measure), sp.Budget)
	}
	out := make([]Choice, len(stages))
	for si, st := range stages {
		w := winner
		if sp.ProbeTopK == 0 {
			w, ok = Select(perStage[si], sp.Budget)
		}
		if !ok {
			return nil, fmt.Errorf("tune: no candidate within budget %g", sp.Budget)
		}
		out[si] = choiceRow(st.Label, w, perStage[si], len(cands))
	}
	return out, nil
}

// probe refines the top-K admissible candidates of a slate with measure
// (seconds per exchange of a short seeded simulation run; 0 when the run
// timed nothing) and returns the admissible ones, Probed set on the
// refined entries; Select then compares probes against probes and falls
// back to predictions for the rest.
func probe(slate []Scored, sp Space, measure func(Candidate) float64) []Scored {
	var remaining []Scored
	for _, s := range slate {
		if admissible(s.Candidate, sp.Budget) {
			remaining = append(remaining, s)
		}
	}
	// Deterministic top-K: repeated Select over the shrinking remainder.
	k := min(sp.ProbeTopK, len(remaining))
	out := make([]Scored, 0, len(slate))
	for i := 0; i < k; i++ {
		best, _ := Select(remaining, sp.Budget)
		remaining = slices.DeleteFunc(remaining, func(s Scored) bool { return s.Candidate == best.Candidate })
		best.Probed = measure(best.Candidate)
		out = append(out, best)
	}
	return append(out, remaining...)
}

// choiceRow serializes one stage's winner, looking its per-stage
// prediction up in the stage's scored slate.
func choiceRow(label string, winner Scored, slate []Scored, candidates int) Choice {
	pred := winner.Predicted
	for _, s := range slate {
		if s.Candidate == winner.Candidate {
			pred = s.Predicted
			break
		}
	}
	ch := winner.record()
	ch.Label, ch.PredictedS, ch.ProbedS, ch.Candidates = label, pred, winner.Probed, candidates
	return ch
}
