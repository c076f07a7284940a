// Package tune closes the loop between the roofline cost model and the
// exchange configuration: given the netsim machine model and an
// exchange shape, it enumerates candidate configurations (algorithm,
// pipeline depth, compression method subject to an error budget), ranks
// them with core's exchange cost model (Predict), optionally refines the
// leaders with short in-simulation probe runs, and emits a serializable
// versioned plan that core.Plan consumes so each reshape runs its
// selected winner (docs/TUNING.md).
//
// Determinism contract: tuning happens on the host, outside the
// simulation, from inputs that are identical on every rank (the machine
// model and the shape), so the resulting plan is collectively identical
// by construction. Probe runs are full deterministic simulations, so
// plans — and the runs that consume them — are bit-stable from run to
// run. Selection breaks ties by a total order on candidates, never by
// enumeration order.
package tune

import (
	"math"
	"slices"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/exchange"
)

// Candidate is one point of the tuner's search space: an exchange
// configuration on one of core.Backends' tunable rows. Chunks (the §V-B
// pipeline depth; 0 keeps the consumer's default) and Method are set on
// the compressed rows only.
type Candidate core.ExchangeChoice

// options maps the candidate onto fixed plan options over base.
func (c Candidate) options(base core.Options) core.Options {
	base.Tune = nil
	base.Backend, base.Method = c.Backend, c.Method
	if c.Chunks > 0 {
		base.Chunks = c.Chunks
	}
	return base
}

// spec maps the candidate onto the bandwidth harness's Spec.
func (c Candidate) spec() exchange.Spec {
	return exchange.Spec{Algo: c.Backend.Row().Bench, Method: c.Method, Chunks: c.Chunks}
}

// record is the candidate's serialized form (Method and Chunks only for
// the compressed rows), without the evidence fields.
func (c Candidate) record() Choice {
	row := c.Backend.Row()
	ch := Choice{Algo: row.Plan}
	if row.Compressed {
		ch.Chunks, ch.Method = c.Chunks, c.Method.Name()
	}
	return ch
}

// key is the candidate's position in the deterministic tie-break: a
// tuple compared field by field after the predicted time, led by the
// backend's row in core.Backends.
func (c Candidate) key() (int, string, int) {
	name := ""
	if c.Method != nil {
		name = c.Method.Name()
	}
	row := slices.IndexFunc(core.Backends, func(r core.BackendRow) bool { return r.Backend == c.Backend })
	return row, name, c.Chunks
}

// Scored pairs a candidate with its predicted (and, when probed,
// measured) exchange time in seconds.
type Scored struct {
	Candidate
	Predicted float64
	// Probed is the measured probe-run time; 0 when the candidate was
	// not probed.
	Probed float64
}

// Space is the candidate space of one tuning problem.
type Space struct {
	// Budget is the per-stage relative error budget (the caller-supplied
	// bound a compression method's ErrorBound must not exceed, in the
	// sense of core.StageBounds). 0 admits lossless candidates only.
	Budget float64
	// Chunks are the candidate pipeline depths of the compressed rows.
	// Defaults to {1, 2, 4, 8, 16}.
	Chunks []int
	// Methods are the candidate compression methods. Defaults to the
	// casts and two Trim variants; the Budget filter prunes them.
	Methods []compress.Method
	// Lossless restricts the space to the lossless backends regardless
	// of Budget (set for FP32 pipelines, which the compressed backends
	// reject).
	Lossless bool
	// ProbeTopK refines the best K predicted candidates with short
	// in-simulation probe runs and selects by measured time. 0 trusts
	// the predictor alone.
	ProbeTopK int
	// ProbeIters is the measured iterations per probe run (default 1).
	ProbeIters int
}

func (s Space) withDefaults() Space {
	if s.Chunks == nil {
		s.Chunks = []int{1, 2, 4, 8, 16}
	}
	if s.Methods == nil {
		s.Methods = []compress.Method{
			compress.Cast32{}, compress.Cast16{}, compress.CastBF16{},
			compress.Trim{M: 20}, compress.Trim{M: 12},
		}
	}
	if s.ProbeIters == 0 {
		s.ProbeIters = 1
	}
	return s
}

// Candidates enumerates the space in its canonical order. The order
// carries no semantic weight — Select is order-independent — but a
// fixed enumeration keeps candidate counts stable in artifacts.
func (s Space) Candidates() []Candidate {
	s = s.withDefaults()
	var out []Candidate
	for _, row := range core.Backends {
		switch {
		case !row.Tunable:
		case !row.Compressed:
			out = append(out, Candidate{Backend: row.Backend})
		case !s.Lossless:
			for _, m := range s.Methods {
				for _, ch := range s.Chunks {
					out = append(out, Candidate{Backend: row.Backend, Chunks: ch, Method: m})
				}
			}
		}
	}
	return out
}

// admissible reports whether a candidate respects the error budget: a
// lossy method's bound must not exceed it.
func admissible(c Candidate, budget float64) bool {
	if c.Method == nil {
		return true
	}
	return c.Method.ErrorBound() <= budget
}

// Select returns the admissible candidate with the lowest predicted
// time (measured probe time when present — a probed candidate is
// compared by Probed against other probed candidates' Probed). Ties
// break by the candidate's total order (algorithm, method name,
// chunks), so the result is invariant under permutations of cands.
// ok is false when no candidate respects the budget.
func Select(cands []Scored, budget float64) (best Scored, ok bool) {
	for _, c := range cands {
		if !admissible(c.Candidate, budget) {
			continue
		}
		if !ok || less(c, best) {
			best, ok = c, true
		}
	}
	return best, ok
}

// less orders scored candidates: primary score first (probed when both
// carry probes, predicted otherwise), then the deterministic key.
func less(a, b Scored) bool {
	sa, sb := a.Predicted, b.Predicted
	if a.Probed > 0 && b.Probed > 0 {
		sa, sb = a.Probed, b.Probed
	}
	if sa != sb {
		return sa < sb
	}
	ao, an, ac := a.key()
	bo, bn, bc := b.key()
	if ao != bo {
		return ao < bo
	}
	if an != bn {
		return an < bn
	}
	return ac < bc
}

// validScore rejects the non-finite predictions a broken model could
// produce; used by plan validation.
func validScore(v float64) bool { return v >= 0 && !math.IsInf(v, 0) && !math.IsNaN(v) }
