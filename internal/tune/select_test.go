package tune

import (
	"math/rand"
	"testing"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/netsim"
)

// randomScored builds a seeded random slate over the default space,
// optionally probing a random subset.
func randomScored(rng *rand.Rand, probe bool) []Scored {
	cands := Space{}.Candidates()
	out := make([]Scored, len(cands))
	for i, c := range cands {
		out[i] = Scored{Candidate: c, Predicted: 1e-6 + rng.Float64()*1e-3}
		if probe && rng.Intn(3) == 0 {
			out[i].Probed = 1e-6 + rng.Float64()*1e-3
		}
	}
	return out
}

// TestSelectPredictedIsMinimal: without probes, the winner's predicted
// time is ≤ every admissible candidate's.
func TestSelectPredictedIsMinimal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		budget := []float64{0, 1e-7, 1e-3, 1}[rng.Intn(4)]
		cands := randomScored(rng, false)
		best, ok := Select(cands, budget)
		if !ok {
			t.Fatalf("trial %d: lossless candidates always admissible", trial)
		}
		for _, c := range cands {
			if admissible(c.Candidate, budget) && c.Predicted < best.Predicted {
				t.Fatalf("trial %d: %v (%.3g) beats winner %v (%.3g)",
					trial, c.Candidate, c.Predicted, best.Candidate, best.Predicted)
			}
		}
	}
}

// TestSelectRespectsBudget: a candidate whose method's error bound
// exceeds the budget is never selected, no matter its score.
func TestSelectRespectsBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		budget := []float64{0, 6.0e-8, 4.9e-4, 3.9e-3}[rng.Intn(4)]
		cands := randomScored(rng, true)
		// Make every lossy candidate maximally attractive.
		for i := range cands {
			if cands[i].Method != nil {
				cands[i].Predicted = 1e-12
			}
		}
		best, ok := Select(cands, budget)
		if !ok {
			t.Fatalf("trial %d: no winner", trial)
		}
		if best.Method != nil && best.Method.ErrorBound() > budget {
			t.Fatalf("trial %d: winner %v violates budget %g (bound %g)",
				trial, best.Candidate, budget, best.Method.ErrorBound())
		}
	}
}

// TestSelectOrderIndependent: the winner is invariant under any
// permutation of the slate, including exact-tie slates.
func TestSelectOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		cands := randomScored(rng, true)
		// Force score collisions so the tie-break actually runs.
		for i := range cands {
			cands[i].Predicted = []float64{1e-4, 2e-4}[i%2]
			if cands[i].Probed > 0 {
				cands[i].Probed = 1.5e-4
			}
		}
		budget := 1e-3
		want, ok := Select(cands, budget)
		if !ok {
			t.Fatal("no winner")
		}
		for shuffle := 0; shuffle < 10; shuffle++ {
			perm := append([]Scored(nil), cands...)
			rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			got, ok := Select(perm, budget)
			if !ok || got != want {
				t.Fatalf("trial %d shuffle %d: winner changed: %+v vs %+v", trial, shuffle, got, want)
			}
		}
	}
}

// TestSelectProbedBeatsPredictedTies: when two candidates both carry
// probes, the probe — not the prediction — decides.
func TestSelectProbedBeatsPredictedTies(t *testing.T) {
	a := Scored{Candidate: Candidate{Backend: core.BackendAlltoallv}, Predicted: 1e-4, Probed: 5e-4}
	b := Scored{Candidate: Candidate{Backend: core.BackendOSC}, Predicted: 2e-4, Probed: 1e-4}
	best, ok := Select([]Scored{a, b}, 0)
	if !ok || best.Backend != core.BackendOSC {
		t.Fatalf("probe did not override prediction: %+v", best)
	}
}

// TestSelectNoAdmissible: a slate of budget violators selects nothing.
func TestSelectNoAdmissible(t *testing.T) {
	cands := []Scored{
		{Candidate: Candidate{Backend: core.BackendCompressed, Chunks: 4, Method: compress.Cast16{}}, Predicted: 1e-6},
	}
	if _, ok := Select(cands, 1e-9); ok {
		t.Fatal("selected a budget violator")
	}
}

// TestCandidatesLossless: the lossless space holds no compressed
// candidates (the FP32 pipeline's restriction).
func TestCandidatesLossless(t *testing.T) {
	for _, c := range (Space{Lossless: true}).Candidates() {
		if c.Method != nil || c.Backend.Row().Compressed {
			t.Fatalf("lossless space holds %v", c)
		}
	}
}

// TestPredictPositiveFinite: every candidate of the default space gets
// a positive, finite prediction on a real machine and shape.
func TestPredictPositiveFinite(t *testing.T) {
	cfg := netsim.Summit(2)
	bytes := func(dst, src int) int { return 4096 }
	for _, c := range (Space{}).Candidates() {
		v := Predict(cfg, gpu.V100(), bytes, c)
		if !validScore(v) || v <= 0 {
			t.Errorf("candidate %v predicts %v", c, v)
		}
	}
}

// TestPredictChunkingTradeoff: with per-chunk kernel-launch floors, an
// absurd chunk count must never predict faster than a moderate one.
func TestPredictChunkingTradeoff(t *testing.T) {
	cfg := netsim.Summit(2)
	bytes := func(dst, src int) int { return 64 * 1024 }
	mk := func(chunks int) Candidate {
		return Candidate{Backend: core.BackendCompressed, Chunks: chunks, Method: compress.Cast32{}}
	}
	moderate := Predict(cfg, gpu.V100(), bytes, mk(4))
	absurd := Predict(cfg, gpu.V100(), bytes, mk(4096))
	if absurd <= moderate {
		t.Errorf("4096 chunks (%.3g) predicted no slower than 4 (%.3g)", absurd, moderate)
	}
}
