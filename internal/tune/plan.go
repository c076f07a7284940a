package tune

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/exchange"
	"repro/internal/netsim"
)

// PlanSchema versions the serialized plan layout. Loaders reject other
// schemas (ErrPlanSchema): a plan is a record of decisions for one
// exact tuner, not a portable format.
const PlanSchema = 1

// Typed rejections of Decode/Load. Callers distinguish them with
// errors.Is; every failure mode wraps exactly one of these.
var (
	// ErrPlanSyntax: the file is not valid JSON (corrupt, truncated).
	ErrPlanSyntax = errors.New("tune: plan is not valid JSON")
	// ErrPlanSchema: valid JSON, but a schema this loader does not speak.
	ErrPlanSchema = errors.New("tune: unsupported plan schema")
	// ErrPlanInvalid: well-formed but semantically unusable (unknown
	// algorithm or method, budget violation, duplicate cells, ...).
	ErrPlanInvalid = errors.New("tune: invalid plan")
)

// Plan is the serializable output of the tuner: one Cell per tuned
// (machine, shape) pair, all under one error budget.
type Plan struct {
	Schema int     `json:"schema"`
	Budget float64 `json:"budget"`
	Cells  []Cell  `json:"cells"`
}

// NewPlan returns an empty plan at the current schema.
func NewPlan(budget float64) *Plan {
	return &Plan{Schema: PlanSchema, Budget: budget}
}

// Cell is the tuner's decision for one machine and exchange shape: one
// Choice per stage. It implements core.TunePlan, so it plugs straight
// into core.Options.Tune.
type Cell struct {
	// Machine is the machine-model fingerprint (Fingerprint) and Shape
	// the exchange-shape key (FFTShape / AlltoallShape) this cell was
	// tuned for.
	Machine string   `json:"machine"`
	Shape   string   `json:"shape"`
	Stages  []Choice `json:"stages"`
}

// Choice is one stage's selected winner plus the evidence behind it.
type Choice struct {
	// Label is the stage's metric label (fwd0..3, or "alltoall" for the
	// uniform-exchange cells).
	Label string `json:"label"`
	// Algo names the winning candidate's backend by its core.Backends
	// Plan name; Chunks and Method are set for the compressed rows only.
	Algo   string `json:"algo"`
	Chunks int    `json:"chunks,omitempty"`
	Method string `json:"method,omitempty"`
	// PredictedS is the winner's roofline prediction; ProbedS its probe
	// measurement (0 when selection ran on the predictor alone).
	PredictedS float64 `json:"predicted_s"`
	ProbedS    float64 `json:"probed_s,omitempty"`
	// Candidates is the size of the enumerated space the winner beat.
	Candidates int `json:"candidates,omitempty"`
}

// MethodByName resolves a serialized compression-method name ("FP64",
// "FP64->FP32", "FP64->FP16", "FP64->BF16", "Trim(M)").
func MethodByName(name string) (compress.Method, error) {
	switch name {
	case compress.None{}.Name():
		return compress.None{}, nil
	case compress.Cast32{}.Name():
		return compress.Cast32{}, nil
	case compress.Cast16{}.Name():
		return compress.Cast16{}, nil
	case compress.CastBF16{}.Name():
		return compress.CastBF16{}, nil
	}
	var m uint
	if n, err := fmt.Sscanf(name, "Trim(%d)", &m); n == 1 && err == nil && name == (compress.Trim{M: m}).Name() {
		return compress.Trim{M: m}, nil
	}
	return nil, fmt.Errorf("unknown compression method %q", name)
}

// String formats the choice for a console summary: the algorithm, then
// the method and the pipeline depth where they are set.
func (ch Choice) String() string {
	s := ch.Algo
	if ch.Method != "" {
		s += "/" + ch.Method
	}
	if row, ok := planRow(ch.Algo); ok && row.Compressed && ch.Chunks > 0 {
		s += fmt.Sprintf("/c%d", ch.Chunks)
	}
	return s
}

// planRow returns the tunable row of core.Backends whose Plan name is
// algo.
func planRow(algo string) (core.BackendRow, bool) {
	for _, row := range core.Backends {
		if row.Tunable && row.Plan == algo {
			return row, true
		}
	}
	return core.BackendRow{}, false
}

// candidate decodes the serialized choice.
func (ch Choice) candidate() (Candidate, error) {
	row, ok := planRow(ch.Algo)
	if !ok {
		return Candidate{}, fmt.Errorf("unknown algorithm %q", ch.Algo)
	}
	c := Candidate{Backend: row.Backend, Chunks: ch.Chunks}
	if row.Compressed {
		m, err := MethodByName(ch.Method)
		if err != nil {
			return c, err
		}
		c.Method = m
	}
	return c, nil
}

// Choice implements core.TunePlan: the resolved exchange configuration
// for a reshape label. Backward stages mirror their forward
// counterparts — bwdS re-runs the reshape fwd(last−S) in reverse, so it
// inherits that stage's winner. Unknown labels return ok == false (the
// plan's fixed options apply). The cell must have passed validation
// (Decode, or the tuner's own construction); an unparseable stage is a
// programming error and panics.
func (c *Cell) Choice(label string) (core.ExchangeChoice, bool) {
	want := label
	if rest, ok := strings.CutPrefix(label, "bwd"); ok {
		s, err := strconv.Atoi(rest)
		if err != nil || s < 0 || s >= len(c.Stages) {
			return core.ExchangeChoice{}, false
		}
		want = "fwd" + strconv.Itoa(len(c.Stages)-1-s)
	}
	for _, st := range c.Stages {
		if st.Label != want {
			continue
		}
		cand, err := st.candidate()
		if err != nil {
			panic("tune: unvalidated cell: " + err.Error())
		}
		return core.ExchangeChoice(cand), true
	}
	return core.ExchangeChoice{}, false
}

// BenchSpec maps a uniform cell's winner onto the bandwidth harness's
// algorithm space (exchange.NodeBandwidthSpec).
func (c *Cell) BenchSpec() (exchange.Spec, error) {
	if len(c.Stages) == 0 {
		return exchange.Spec{}, fmt.Errorf("%w: empty cell", ErrPlanInvalid)
	}
	cand, err := c.Stages[0].candidate()
	if err != nil {
		return exchange.Spec{}, fmt.Errorf("%w: %v", ErrPlanInvalid, err)
	}
	return cand.spec(), nil
}

// Fingerprint is the canonical machine-model key of a plan cell: every
// performance parameter of the config, none of the run-mode ones
// (faults, observers) — a plan tuned fault-free is valid, and
// bit-identical, under fault injection.
func Fingerprint(cfg netsim.Config) string {
	return fmt.Sprintf("nodes=%d gpn=%d bw=%g/%g/%g lat=%g/%g send=%g proto=%g/%g rma=%g match=%g/%d",
		cfg.Nodes, cfg.GPUsPerNode, cfg.InterBW, cfg.IntraBW, cfg.LocalBW,
		cfg.InterLatency, cfg.IntraLatency, cfg.SendOverhead,
		cfg.ProtoOverheadInter, cfg.ProtoOverheadIntra, cfg.RMAOverhead,
		cfg.MatchCost, cfg.MatchQueueCap)
}

// FFTShape is the shape key of a 3-D FFT tuning cell.
func FFTShape(n [3]int, simScale int, fp32, pencil bool) string {
	if simScale < 1 {
		simScale = 1
	}
	prec := 64
	if fp32 {
		prec = 32
	}
	return fmt.Sprintf("fft=%dx%dx%d sim=%d prec=%d pencil=%v", n[0], n[1], n[2], simScale, prec, pencil)
}

// AlltoallShape is the shape key of a uniform all-to-all tuning cell.
func AlltoallShape(msgBytes int) string {
	return fmt.Sprintf("alltoall msg=%d", msgBytes)
}

// Cell returns the plan's cell for a machine fingerprint and shape key.
func (p *Plan) Cell(machine, shape string) (*Cell, bool) {
	for i := range p.Cells {
		if p.Cells[i].Machine == machine && p.Cells[i].Shape == shape {
			return &p.Cells[i], true
		}
	}
	return nil, false
}

// Encode serializes the plan in its canonical form: indented JSON with
// fixed field order and a trailing newline. Encoding is deterministic —
// equal plans encode to equal bytes — which is what makes the
// save→load round trip byte-stable and lets the conformance suite
// compare plans from separate tuning runs with bytes.Equal.
func (p *Plan) Encode() ([]byte, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrPlanInvalid, err)
	}
	return append(b, '\n'), nil
}

// Decode parses and validates a serialized plan. Failures are typed:
// ErrPlanSyntax for malformed JSON, ErrPlanSchema for a version skew,
// ErrPlanInvalid for everything semantically wrong. Decode never
// panics on hostile input (FuzzLoadTunePlan holds it to that).
func Decode(data []byte) (*Plan, error) {
	if !json.Valid(data) {
		return nil, fmt.Errorf("%w: malformed or truncated", ErrPlanSyntax)
	}
	// Peek at the schema first so a version skew reports as such even
	// if the rest of the layout drifted between versions.
	var head struct {
		Schema *int `json:"schema"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrPlanInvalid, err)
	}
	if head.Schema == nil {
		return nil, fmt.Errorf("%w: missing schema", ErrPlanSchema)
	}
	if *head.Schema != PlanSchema {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrPlanSchema, *head.Schema, PlanSchema)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	p := &Plan{}
	if err := dec.Decode(p); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrPlanInvalid, err)
	}
	if dec.More() {
		return nil, fmt.Errorf("%w: trailing data after plan", ErrPlanInvalid)
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *Plan) validate() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrPlanInvalid, fmt.Sprintf(format, args...))
	}
	if p.Schema != PlanSchema {
		return fmt.Errorf("%w: got %d, want %d", ErrPlanSchema, p.Schema, PlanSchema)
	}
	if !validScore(p.Budget) {
		return fail("budget %v out of range", p.Budget)
	}
	seen := make(map[[2]string]bool, len(p.Cells))
	for ci := range p.Cells {
		c := &p.Cells[ci]
		if c.Machine == "" || c.Shape == "" {
			return fail("cell %d missing machine/shape key", ci)
		}
		k := [2]string{c.Machine, c.Shape}
		if seen[k] {
			return fail("duplicate cell %q %q", c.Machine, c.Shape)
		}
		seen[k] = true
		if len(c.Stages) == 0 {
			return fail("cell %q %q has no stages", c.Machine, c.Shape)
		}
		labels := make(map[string]bool, len(c.Stages))
		for _, st := range c.Stages {
			if st.Label == "" {
				return fail("cell %q %q: stage with empty label", c.Machine, c.Shape)
			}
			if labels[st.Label] {
				return fail("cell %q %q: duplicate stage %q", c.Machine, c.Shape, st.Label)
			}
			labels[st.Label] = true
			cand, err := st.candidate()
			if err != nil {
				return fail("stage %q: %v", st.Label, err)
			}
			if st.Chunks < 0 {
				return fail("stage %q: negative chunks", st.Label)
			}
			if !validScore(st.PredictedS) || !validScore(st.ProbedS) {
				return fail("stage %q: non-finite score", st.Label)
			}
			if st.Candidates < 0 {
				return fail("stage %q: negative candidate count", st.Label)
			}
			if cand.Method != nil && cand.Method.ErrorBound() > p.Budget {
				return fail("stage %q: method %s bound %.3g exceeds budget %.3g",
					st.Label, st.Method, cand.Method.ErrorBound(), p.Budget)
			}
		}
	}
	return nil
}

// Save writes the canonical encoding to path.
func (p *Plan) Save(path string) error {
	b, err := p.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Load reads and Decodes a plan file.
func Load(path string) (*Plan, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(b)
}
