package tune

import (
	"fmt"

	"repro/internal/exchange"
	"repro/internal/gpu"
	"repro/internal/netsim"
)

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
	bytes := func(dst, src int) int { return msgBytes }
	cands := sp.Candidates()
	scored := make([]Scored, len(cands))
	for ci, cand := range cands {
		scored[ci] = Scored{Candidate: cand, Predicted: Predict(cfg, gpu.V100(), bytes, cand)}
	}

	winner, ok := Select(scored, sp.Budget)
	if !ok {
		return nil, fmt.Errorf("tune: no candidate within budget %g", sp.Budget)
	}
	if sp.ProbeTopK > 0 {
		probed, err := probeAlltoall(cfg, msgBytes, sp, scored)
		if err != nil {
			return nil, err
		}
		winner, _ = Select(probed, sp.Budget)
	}

	cell := &Cell{Machine: Fingerprint(cfg), Shape: AlltoallShape(msgBytes)}
	cell.Stages = append(cell.Stages, choiceRow("alltoall", winner, scored, len(cands)))
	return cell, nil
}

// probeAlltoall measures the top-K admissible candidates with the
// bandwidth harness (ProbeIters iterations) and scores them by seconds
// per exchange.
func probeAlltoall(cfg netsim.Config, msgBytes int, sp Space, scored []Scored) ([]Scored, error) {
	remaining := make([]Scored, 0, len(scored))
	for _, s := range scored {
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
	p := cfg.Ranks()
	total := float64(sp.ProbeIters) * float64(p) * float64(p) * float64(msgBytes)
	out := make([]Scored, 0, len(scored))
	for i := 0; i < k; i++ {
		best, _ := Select(remaining, sp.Budget)
		next := remaining[:0]
		for _, s := range remaining {
			if s.Candidate != best.Candidate {
				next = append(next, s)
			}
		}
		remaining = next
		spec := candidateSpec(best.Candidate)
		bw := exchange.NodeBandwidthSpec(nil, cfg, spec, msgBytes, sp.ProbeIters)
		if bw > 0 {
			// NodeBandwidthSpec divides total bytes by time and node count;
			// invert it back to seconds per measured exchange.
			best.Probed = total / (bw * float64(cfg.Nodes)) / float64(sp.ProbeIters)
		}
		out = append(out, best)
	}
	return append(out, remaining...), nil
}

// candidateSpec maps a candidate onto the bandwidth harness's Spec.
func candidateSpec(cand Candidate) exchange.Spec {
	switch cand.Algo {
	case Bruck:
		return exchange.Spec{Algo: exchange.AlgoBruck}
	case OSC:
		return exchange.Spec{Algo: exchange.AlgoOSC}
	case CompressedOSC:
		return exchange.Spec{Algo: exchange.AlgoOSCComp, Method: cand.Method, Chunks: cand.Chunks}
	}
	return exchange.Spec{Algo: exchange.AlgoLinear}
}
