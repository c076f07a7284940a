package tune

import (
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/fft"
	"repro/internal/gpu"
	"repro/internal/grid"
	"repro/internal/netsim"
)

// probeConfig strips the run-mode fields off the machine model before a
// probe run: faults and observers must not leak into tuning decisions
// (a plan has to be identical whether or not the consuming run injects
// faults), and probes carry no recorders. The engine choice (Parallel)
// is kept — it is bit-neutral by the determinism contract, and leaving
// it visible is exactly what the conformance suite checks.
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
// to the lossless algorithms. base supplies the non-exchange options
// (SimScale, PencilIO, Device) the probes and shape key use.
func FFT[C fft.Complex](cfg netsim.Config, n [3]int, base core.Options, sp Space) (*Cell, error) {
	cfg = probeConfig(cfg)
	sp = sp.withDefaults()
	var zero C
	_, fp32 := any(zero).(complex64)
	if fp32 {
		sp.Lossless = true
	}
	elem := 16
	if fp32 {
		elem = 8
	}
	dev := base.Device
	if dev == (gpu.Device{}) {
		dev = gpu.V100()
	}
	cands := sp.Candidates()
	stages := fftStages(cfg, n, base, elem)
	if len(stages) == 0 || cfg.Ranks() < 1 {
		return nil, fmt.Errorf("tune: degenerate FFT shape")
	}

	cell := &Cell{
		Machine: Fingerprint(cfg),
		Shape:   FFTShape(n, base.SimScale, fp32, base.PencilIO),
	}
	// Per-stage scoring, plus each candidate's whole-pipeline total for
	// the probe ranking.
	totals := make([]Scored, len(cands))
	perStage := make([][]Scored, len(stages))
	for si, st := range stages {
		perStage[si] = make([]Scored, len(cands))
		for ci, cand := range cands {
			pred := Predict(cfg, dev, st.bytes, cand)
			perStage[si][ci] = Scored{Candidate: cand, Predicted: pred}
			totals[ci].Candidate = cand
			totals[ci].Predicted += pred
		}
	}

	if sp.ProbeTopK > 0 {
		probed, err := probeFFT[C](cfg, n, base, sp, totals)
		if err != nil {
			return nil, err
		}
		winner, ok := Select(probed, sp.Budget)
		if !ok {
			return nil, fmt.Errorf("tune: no candidate within budget %g", sp.Budget)
		}
		for si, st := range stages {
			cell.Stages = append(cell.Stages, choiceRow(st.label, winner, perStage[si], len(cands)))
		}
		return cell, nil
	}

	for si, st := range stages {
		w, ok := Select(perStage[si], sp.Budget)
		if !ok {
			return nil, fmt.Errorf("tune: no candidate within budget %g", sp.Budget)
		}
		cell.Stages = append(cell.Stages, choiceRow(st.label, w, perStage[si], len(cands)))
	}
	return cell, nil
}

// probeFFT refines the top-K admissible whole-pipeline candidates with
// real (seeded, deterministic) simulation runs of the full transform,
// one uniform configuration per candidate. The returned slice carries
// Probed on the refined entries; Select then compares probes against
// probes and falls back to predictions for the rest.
func probeFFT[C fft.Complex](cfg netsim.Config, n [3]int, base core.Options, sp Space, totals []Scored) ([]Scored, error) {
	// Deterministic top-K: repeated Select over the shrinking remainder.
	remaining := make([]Scored, 0, len(totals))
	for _, s := range totals {
		if admissible(s.Candidate, sp.Budget) {
			remaining = append(remaining, s)
		}
	}
	if len(remaining) == 0 {
		return nil, fmt.Errorf("tune: no candidate within budget %g", sp.Budget)
	}
	k := sp.ProbeTopK
	if k > len(remaining) {
		k = len(remaining)
	}
	out := make([]Scored, 0, len(totals))
	for i := 0; i < k; i++ {
		best, _ := Select(remaining, sp.Budget)
		next := remaining[:0]
		for _, s := range remaining {
			if s.Candidate != best.Candidate {
				next = append(next, s)
			}
		}
		remaining = next
		opts := candidateOptions(base, best.Candidate)
		res := core.MeasureWith[C](nil, cfg, n, opts, sp.ProbeIters, false)
		best.Probed = res.ForwardTime
		out = append(out, best)
	}
	return append(out, remaining...), nil
}

// candidateOptions maps a candidate onto fixed plan options over base.
func candidateOptions(base core.Options, cand Candidate) core.Options {
	opts := base
	opts.Tune = nil
	opts.Method = cand.Method
	if cand.Chunks > 0 {
		opts.Chunks = cand.Chunks
	}
	if b, ok := cand.Algo.backend(); ok {
		opts.Backend = b
	}
	return opts
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
	ch := Choice{
		Label: label, Algo: string(winner.Algo),
		PredictedS: pred, ProbedS: winner.Probed, Candidates: candidates,
	}
	if winner.Algo == CompressedOSC {
		ch.Chunks = winner.Chunks
		ch.Method = winner.Method.Name()
	}
	return ch
}

// fftStage is one forward reshape's traffic matrix.
type fftStage struct {
	label string
	bytes func(dst, src int) int
}

// fftStages mirrors the plan's reshape decomposition (and
// core.PredictExchanges's): the traffic of each forward stage on the
// SimScale-enlarged grid, precomputed into a dense matrix so candidate
// scoring is O(p²) per candidate without box arithmetic.
func fftStages(cfg netsim.Config, n [3]int, base core.Options, elem int) []fftStage {
	p := cfg.Ranks()
	s := base.SimScale
	if s < 1 {
		s = 1
	}
	ns := [3]int{s * n[0], s * n[1], s * n[2]}
	var boxes [5][]grid.Box
	boxes[0] = grid.Bricks(ns, grid.Factor3(p))
	boxes[1] = grid.Pencils(ns, 0, p)
	boxes[2] = grid.Pencils(ns, 1, p)
	boxes[3] = grid.Pencils(ns, 2, p)
	boxes[4] = boxes[0]

	type pair struct{ from, to int }
	pairs := []pair{{0, 1}, {1, 2}, {2, 3}, {3, 4}}
	if base.PencilIO {
		pairs = []pair{{1, 2}, {2, 3}}
	}
	out := make([]fftStage, 0, len(pairs))
	for si, st := range pairs {
		from, to := boxes[st.from], boxes[st.to]
		m := make([]int, p*p)
		for src := 0; src < p; src++ {
			for dst := 0; dst < p; dst++ {
				m[src*p+dst] = elem * grid.Intersect(from[src], to[dst]).Count()
			}
		}
		out = append(out, fftStage{
			label: "fwd" + strconv.Itoa(si),
			bytes: func(dst, src int) int { return m[src*p+dst] },
		})
	}
	return out
}
