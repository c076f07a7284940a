package tune

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/netsim"
)

func samplePlan() *Plan {
	return &Plan{
		Schema: PlanSchema,
		Budget: 1e-3,
		Cells: []Cell{{
			Machine: Fingerprint(netsim.Summit(2)),
			Shape:   FFTShape([3]int{32, 32, 32}, 2, false, false),
			Stages: []Choice{
				{Label: "fwd0", Algo: "compressed-osc", Chunks: 4, Method: "FP64->FP16", PredictedS: 1e-5, ProbedS: 2e-5, Candidates: 28},
				{Label: "fwd1", Algo: "osc", PredictedS: 2e-5, Candidates: 28},
				{Label: "fwd2", Algo: "twosided", PredictedS: 3e-5, Candidates: 28},
				{Label: "fwd3", Algo: "bruck", PredictedS: 4e-5, Candidates: 28},
			},
		}},
	}
}

// Plans whose algo is not a tunable row's plan name: osc+compression is
// the display name of compressed-osc's backend, alltoallv+compression
// the compressed two-sided backend, which the tuner does not pick.
const (
	displayNamePlan = `{"schema":1,"budget":1,"cells":[{"machine":"m","shape":"s","stages":[{"label":"fwd0","algo":"osc+compression","chunks":4,"method":"FP64->FP32","predicted_s":1}]}]}`
	untunablePlan   = `{"schema":1,"budget":1,"cells":[{"machine":"m","shape":"s","stages":[{"label":"fwd0","algo":"alltoallv+compression","chunks":4,"method":"FP64->FP32","predicted_s":1}]}]}`
)

func TestPlanRoundTripByteIdentical(t *testing.T) {
	p := samplePlan()
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := p.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("save→load not byte-identical:\n%s\nvs\n%s", a, b)
	}
}

func TestDecodeTypedErrors(t *testing.T) {
	valid, err := samplePlan().Encode()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"truncated", valid[:len(valid)/2], ErrPlanSyntax},
		{"garbage", []byte("{not json"), ErrPlanSyntax},
		{"empty", nil, ErrPlanSyntax},
		{"missing-schema", []byte(`{"budget":1,"cells":[]}`), ErrPlanSchema},
		{"future-schema", []byte(strings.Replace(string(valid), `"schema": 1`, `"schema": 99`, 1)), ErrPlanSchema},
		{"not-an-object", []byte(`"plan"`), ErrPlanInvalid},
		{"unknown-field", []byte(`{"schema":1,"budget":1,"cells":[],"extra":true}`), ErrPlanInvalid},
		// json.Valid rejects multi-document input outright, so trailing
		// data reads as a syntax-level corruption.
		{"trailing-data", append(append([]byte(nil), valid...), []byte("{}")...), ErrPlanSyntax},
		{"no-cells-ok", []byte(`{"schema":1,"budget":1,"cells":[]}`), nil},
		{"bad-algo", []byte(`{"schema":1,"budget":1,"cells":[{"machine":"m","shape":"s","stages":[{"label":"fwd0","algo":"warp","predicted_s":1}]}]}`), ErrPlanInvalid},
		// Plans speak the table's plan names: a display name, or the
		// compressed two-sided backend (no plan name), is unknown.
		{"display-name-algo", []byte(displayNamePlan), ErrPlanInvalid},
		{"untunable-algo", []byte(untunablePlan), ErrPlanInvalid},
		{"empty-algo", []byte(`{"schema":1,"budget":1,"cells":[{"machine":"m","shape":"s","stages":[{"label":"fwd0","algo":"","method":"FP64->FP32","predicted_s":1}]}]}`), ErrPlanInvalid},
		{"bad-method", []byte(`{"schema":1,"budget":1,"cells":[{"machine":"m","shape":"s","stages":[{"label":"fwd0","algo":"compressed-osc","method":"ZFP","predicted_s":1}]}]}`), ErrPlanInvalid},
		{"budget-violation", []byte(`{"schema":1,"budget":1e-9,"cells":[{"machine":"m","shape":"s","stages":[{"label":"fwd0","algo":"compressed-osc","method":"FP64->FP16","predicted_s":1}]}]}`), ErrPlanInvalid},
		{"duplicate-cell", []byte(`{"schema":1,"budget":1,"cells":[{"machine":"m","shape":"s","stages":[{"label":"fwd0","algo":"osc","predicted_s":1}]},{"machine":"m","shape":"s","stages":[{"label":"fwd0","algo":"osc","predicted_s":1}]}]}`), ErrPlanInvalid},
		{"duplicate-stage", []byte(`{"schema":1,"budget":1,"cells":[{"machine":"m","shape":"s","stages":[{"label":"fwd0","algo":"osc","predicted_s":1},{"label":"fwd0","algo":"osc","predicted_s":1}]}]}`), ErrPlanInvalid},
		{"negative-budget", []byte(`{"schema":1,"budget":-1,"cells":[]}`), ErrPlanInvalid},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode(tc.data)
			if tc.want == nil {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want errors.Is(%v)", err, tc.want)
			}
		})
	}
}

func TestMethodByNameRoundTrip(t *testing.T) {
	methods := []compress.Method{
		compress.None{}, compress.Cast32{}, compress.Cast16{},
		compress.CastBF16{}, compress.Trim{M: 20}, compress.Trim{M: 12},
	}
	for _, m := range methods {
		got, err := MethodByName(m.Name())
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if got.Name() != m.Name() {
			t.Fatalf("round trip %s -> %s", m.Name(), got.Name())
		}
	}
	for _, bad := range []string{"", "ZFP", "Trim(x)", "Trim(-1)", "trim(3)"} {
		if _, err := MethodByName(bad); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
}

// TestCellChoiceBackwardMapping: bwdS inherits the winner of its mirror
// stage fwd(last−S); unknown labels decline.
func TestCellChoiceBackwardMapping(t *testing.T) {
	cell := &samplePlan().Cells[0]
	fwd0, ok := cell.Choice("fwd0")
	if !ok || fwd0.Backend != core.BackendCompressed {
		t.Fatalf("fwd0 = %+v, %v", fwd0, ok)
	}
	bwd3, ok := cell.Choice("bwd3")
	if !ok || bwd3 != fwd0 {
		t.Fatalf("bwd3 = %+v, want fwd0's choice %+v", bwd3, fwd0)
	}
	bwd0, ok := cell.Choice("bwd0")
	if !ok || bwd0.Backend != core.BackendBruck {
		t.Fatalf("bwd0 = %+v, %v", bwd0, ok)
	}
	for _, label := range []string{"fwd4", "bwd4", "bwd-1", "bwdx", "io", ""} {
		if _, ok := cell.Choice(label); ok {
			t.Fatalf("label %q resolved", label)
		}
	}
}

func TestFixedOptionsUniformOnly(t *testing.T) {
	uniform := &Cell{Machine: "m", Shape: "s", Stages: []Choice{
		{Label: "fwd0", Algo: "compressed-osc", Chunks: 8, Method: "FP64->FP32", PredictedS: 1},
		{Label: "fwd1", Algo: "compressed-osc", Chunks: 8, Method: "FP64->FP32", PredictedS: 2},
	}}
	opts, ok := uniform.FixedOptions(core.Options{SimScale: 2})
	if !ok || opts.Backend != core.BackendCompressed || opts.Chunks != 8 || opts.SimScale != 2 {
		t.Fatalf("uniform cell: %+v, %v", opts, ok)
	}
	if opts.Method == nil || opts.Method.Name() != "FP64->FP32" {
		t.Fatalf("method not mapped: %+v", opts.Method)
	}
	mixed := &samplePlan().Cells[0]
	if _, ok := mixed.FixedOptions(core.Options{}); ok {
		t.Fatal("mixed cell reported uniform")
	}
	empty := &Cell{Machine: "m", Shape: "s"}
	if _, ok := empty.FixedOptions(core.Options{}); ok {
		t.Fatal("empty cell reported uniform")
	}
}

// TestFingerprintIgnoresRunMode: the machine key covers performance
// parameters only, so fault plans cannot fork plans.
func TestFingerprintIgnoresRunMode(t *testing.T) {
	a := netsim.Summit(2)
	b := a
	b.Faults = netsim.RandomPlan(42)
	if Fingerprint(a) != Fingerprint(b) {
		t.Fatal("fingerprint depends on run mode")
	}
	c := a
	c.InterBW *= 2
	if Fingerprint(a) == Fingerprint(c) {
		t.Fatal("fingerprint misses bandwidth change")
	}
}

// FuzzLoadTunePlan holds Decode to its contract on hostile input: never
// panic, reject with exactly one of the typed sentinels, and accept
// only plans whose canonical re-encoding decodes to the same bytes.
func FuzzLoadTunePlan(f *testing.F) {
	valid, err := samplePlan().Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/3])
	f.Add([]byte(`{"schema":99,"budget":1,"cells":[]}`))
	f.Add([]byte(`{"schema":1,"budget":1,"cells":[]}`))
	f.Add([]byte(`{"schema":1,"budget":1,"cells":[],"x":1}`))
	f.Add([]byte(`{"schema":1,"budget":"a","cells":[]}`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(displayNamePlan))
	f.Add([]byte(untunablePlan))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrPlanSyntax) && !errors.Is(err, ErrPlanSchema) && !errors.Is(err, ErrPlanInvalid) {
				t.Fatalf("untyped rejection: %v", err)
			}
			return
		}
		enc, err := p.Encode()
		if err != nil {
			t.Fatalf("accepted plan does not re-encode: %v", err)
		}
		p2, err := Decode(enc)
		if err != nil {
			t.Fatalf("canonical encoding rejected: %v", err)
		}
		enc2, err := p2.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("canonical round trip unstable:\n%s\nvs\n%s", enc, enc2)
		}
	})
}
