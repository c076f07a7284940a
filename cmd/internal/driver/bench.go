package driver

import (
	"fmt"
	"io"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/plot"
	"repro/internal/tune"
)

// Bench is the half fftbench and alltoallbench share: a table of named
// columns over GPU counts, optionally with an autotuned column, exported
// as a versioned artifact, a tune plan and an ASCII chart.
type Bench struct {
	*Session
	artifact *analyze.Artifact
	plan     *tune.Plan // being computed under -autotune, else the loaded one
	// Per column: the last recorder and the plot series; labels name the rows.
	recs   []*obs.Recorder
	series []plot.Series
	labels []string
}

// NewBench returns a bench session with every shared flag registered.
func NewBench(tool string, stdout, stderr io.Writer) *Bench {
	s := New(tool, stdout, stderr, Observe|Machine|Recovery|Tuning|Artifact)
	return &Bench{Session: s, artifact: &analyze.Artifact{Tool: tool}}
}

// Tuning reports whether the table carries a "tuned" column: -autotune
// computes a plan (saved to -tuneplan), -tuneplan alone replays one.
func (b *Bench) Tuning() bool { return b.Autotune || b.TunePlan != "" }

// Start declares the table's columns (the driver appends "tuned" when
// Tuning), loads the plan to replay, stamps the artifact with config
// plus the shared run-mode flags, and opens the session.
func (b *Bench) Start(columns []string, config map[string]string) error {
	b.recs = make([]*obs.Recorder, len(columns))
	b.series = make([]plot.Series, len(columns))
	for i, name := range columns {
		b.series[i].Name = name
	}
	if b.Autotune {
		b.plan = tune.NewPlan(b.TuneTol)
	} else if b.TunePlan != "" {
		var err error
		if b.plan, err = tune.Load(b.TunePlan); err != nil {
			return err
		}
	}
	if b.Faults != 0 {
		config["faults"] = fmt.Sprint(b.Faults)
	}
	if b.Recover {
		config["recover"] = "1"
	}
	if b.Tuning() {
		config["tunetol"] = fmt.Sprint(b.TuneTol)
		if b.Autotune {
			config["autotune"] = "1"
		}
	}
	b.artifact.Config = config
	return b.Session.Start()
}

// Tuned resolves machine's tuned cell: computed under -autotune, else
// looked up in the loaded plan under shape; nil when not tuning. The tuner
// strips the fault plan, so the cell is the same with or without -faults.
func (b *Bench) Tuned(machine netsim.Config, shape string, compute func(tune.Space) (*tune.Cell, error)) (*tune.Cell, error) {
	if !b.Autotune {
		if b.plan == nil {
			return nil, nil
		}
		cell, ok := b.plan.Cell(tune.Fingerprint(machine), shape)
		if !ok {
			return nil, fmt.Errorf("%s holds no cell for this machine/shape (%d GPUs)", b.TunePlan, machine.Ranks())
		}
		return cell, nil
	}
	cell, err := compute(tune.Space{Budget: b.TuneTol, ProbeTopK: b.TuneProbe})
	if err != nil {
		return nil, err
	}
	if _, dup := b.plan.Cell(cell.Machine, cell.Shape); !dup {
		b.plan.Cells = append(b.plan.Cells, *cell)
	}
	return cell, nil
}

// Cell returns the recorder and telemetry label of column i at g GPUs.
func (b *Bench) Cell(i, g int) (*obs.Recorder, string) {
	label := fmt.Sprintf("%s/%dgpus", b.series[i].Name, g)
	b.recs[i] = b.Recorder(label, fmt.Sprintf("%s @ %d GPUs", b.series[i].Name, g))
	return b.recs[i], label
}

// PlotRow records one table row, a value per column, for -plot.
func (b *Bench) PlotRow(g int, values []float64) {
	b.labels = append(b.labels, fmt.Sprint(g))
	for i, v := range values {
		b.series[i].Values = append(b.series[i].Values, v)
	}
}

// AddRow completes row with the fields every bench derives from the
// recorder and the error tracker, and appends it to the artifact.
func (b *Bench) AddRow(row analyze.Row, rec *obs.Recorder, label string) {
	row.Compression = analyze.CompressionRows(rec.Metrics().CompressionStats())
	row.Faults = analyze.FaultRowFrom(rec.Metrics())
	row.Errors = analyze.ErrorRows(b.trk, label)
	s := analyze.Summarize(analyze.FromRecorder(rec), 0)
	row.Analysis = &s
	b.artifact.Machine = rec.Machine()
	b.artifact.Rows = append(b.artifact.Rows, row)
}

// TuningRows pairs each tuned stage's decision record with the run's
// measured exchange seconds (0 for a stage the run did not time), and
// publishes the decision and the predicted-vs-measured gap on m.
func TuningRows(cell *tune.Cell, m *obs.Metrics, measured func(label string) float64) []analyze.TuningRow {
	out := make([]analyze.TuningRow, 0, len(cell.Stages))
	for _, st := range cell.Stages {
		tr := analyze.TuningRow{
			Label: st.Label, Algo: st.Algo, Chunks: st.Chunks, Method: st.Method,
			PredictedS: st.PredictedS, ProbedS: st.ProbedS, Candidates: st.Candidates,
			MeasuredS: measured(st.Label),
		}
		if st.PredictedS > 0 {
			tr.Gap = tr.MeasuredS / st.PredictedS
		}
		m.Set("tune/"+st.Label+"/predicted_s", st.PredictedS)
		if tr.Gap > 0 {
			m.Set("tune/"+st.Label+"/gap", tr.Gap)
		}
		m.Add("tune/candidates", int64(st.Candidates))
		out = append(out, tr)
	}
	return out
}

// Finish prints each column's achieved (not nominal) compression from
// its last measured row, formatted by stat, then exports: -metrics
// report, -trace file, -json artifact, -tuneplan, -plot, telemetry.
func (b *Bench) Finish(chartTitle string, logScale bool, stat func(obs.CompressionStat) string) error {
	for i, rec := range b.recs {
		stats := rec.Metrics().CompressionStats()
		if len(stats) == 0 {
			continue
		}
		fmt.Fprintf(b.Stdout, "# %s achieved compression:", b.series[i].Name)
		for _, s := range stats {
			fmt.Fprint(b.Stdout, stat(s))
		}
		fmt.Fprintln(b.Stdout)
	}
	return b.finish(func() error {
		if b.JSON != "" {
			if err := b.artifact.WriteFile(b.JSON); err != nil {
				return err
			}
			fmt.Fprintf(b.Stdout, "# bench artifact written: %s (%d rows)\n", b.JSON, len(b.artifact.Rows))
		}
		if b.Autotune && b.TunePlan != "" {
			if err := b.plan.Save(b.TunePlan); err != nil {
				return err
			}
			fmt.Fprintf(b.Stdout, "# tune plan written: %s (%d cells)\n", b.TunePlan, len(b.plan.Cells))
		}
		if b.Plot {
			fmt.Fprintln(b.Stdout)
			fmt.Fprint(b.Stdout, plot.Chart(chartTitle, b.labels, b.series, 60, 14, logScale))
		}
		return nil
	})
}
