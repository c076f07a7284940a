package tune

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/netsim"
)

// modelShape is one forward-transform shape of the prediction golden.
type modelShape struct {
	nodes, simScale int
	pencilIO        bool
	elem            int
}

func (s modelShape) String() string {
	return fmt.Sprintf("%d ranks sim=%d pencil=%v elem=%d", 6*s.nodes, s.simScale, s.pencilIO, s.elem)
}

// modelShapes is the golden's grid: 12/24/96 ranks × SimScale 1/8 ×
// PencilIO × complex128/complex64 on a 16³ transform.
func modelShapes() []modelShape {
	var out []modelShape
	for _, nodes := range []int{2, 4, 16} {
		for _, s := range []int{1, 8} {
			for _, pencil := range []bool{false, true} {
				for _, elem := range []int{16, 8} {
					out = append(out, modelShape{nodes, s, pencil, elem})
				}
			}
		}
	}
	return out
}

var goldenN = [3]int{16, 16, 16}

// TestPredictGolden pins every number the exchange cost model produces
// against testdata/predict.golden (UPDATE_GOLDEN=1 rewrites it): Predict
// for every candidate the tuner scores on every forward stage of the
// shape grid (the lossless space for complex64, as FFT restricts it),
// PredictExchanges for all five backends, and uniform all-to-alls. A
// change to the model is a change to this file.
func TestPredictGolden(t *testing.T) {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var b strings.Builder
	for _, sh := range modelShapes() {
		cfg := netsim.Summit(sh.nodes)
		sp := Space{Lossless: sh.elem == 8}
		stages := core.ForwardTraffic(cfg.Ranks(), goldenN, sh.simScale, sh.pencilIO, sh.elem)
		fmt.Fprintf(&b, "== Predict %s\n", sh)
		for _, c := range sp.Candidates() {
			fmt.Fprintf(&b, "%s", c.record())
			for _, st := range stages {
				fmt.Fprintf(&b, " %s", g(Predict(cfg, gpu.V100(), st.Bytes, c)))
			}
			b.WriteByte('\n')
		}
		if sh.elem == 8 || sh.nodes == 4 {
			continue
		}
		for _, opts := range []core.Options{
			{Backend: core.BackendAlltoallv}, {Backend: core.BackendOSC}, {Backend: core.BackendBruck},
			{Backend: core.BackendCompressed, Method: compress.Cast16{}},
			{Backend: core.BackendCompressedTwoSided, Method: compress.Trim{M: 12}},
		} {
			opts.SimScale, opts.PencilIO = sh.simScale, sh.pencilIO
			fmt.Fprintf(&b, "== PredictExchanges %s %s\n", sh, opts.Backend)
			for _, e := range core.PredictExchanges(cfg, goldenN, opts, sh.elem) {
				fmt.Fprintf(&b, "%s bytes=%d/%d/%d time=%s/%s/%s predicted=%s\n", e.Label,
					e.InterBytes, e.IntraBytes, e.LocalBytes, g(e.InterTime), g(e.IntraTime), g(e.LocalTime), g(e.Predicted))
			}
		}
	}
	for _, nodes := range []int{2, 16} {
		cfg := netsim.Summit(nodes)
		for _, msg := range []int{64, 4096, 65536, 1 << 20} {
			fmt.Fprintf(&b, "== Predict uniform %d ranks msg=%d\n", cfg.Ranks(), msg)
			bytes := func(dst, src int) int { return msg }
			for _, c := range (Space{}).Candidates() {
				fmt.Fprintf(&b, "%s %s\n", c.record(), g(Predict(cfg, gpu.V100(), bytes, c)))
			}
		}
	}
	path := filepath.Join("testdata", "predict.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Errorf("cost-model predictions differ from %s", path)
	}
}

// TestPredictIsCoreModel is the contract that there is one model: for
// every lossless row of core.Backends that adds no tuner term (all but
// Bruck's log-round model), Predict on a stage's traffic is
// core.PredictExchanges' prediction for that stage, bit for bit.
func TestPredictIsCoreModel(t *testing.T) {
	for _, sh := range modelShapes() {
		cfg := netsim.Summit(sh.nodes)
		stages := core.ForwardTraffic(cfg.Ranks(), goldenN, sh.simScale, sh.pencilIO, sh.elem)
		for _, row := range core.Backends {
			if row.Compressed || row.Backend == core.BackendBruck {
				continue
			}
			opts := core.Options{Backend: row.Backend, SimScale: sh.simScale, PencilIO: sh.pencilIO}
			want := core.PredictExchanges(cfg, goldenN, opts, sh.elem)
			for si, st := range stages {
				if got := Predict(cfg, gpu.V100(), st.Bytes, Candidate{Backend: row.Backend}); got != want[si].Predicted {
					t.Errorf("%s %s %s: Predict %v, PredictExchanges %v", sh, row.Name, st.Label, got, want[si].Predicted)
				}
			}
		}
	}
}
