package driver

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/exchange"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/obs/errtrack"
	recov "repro/internal/recover"
	"repro/internal/tune"
)

// TestFlagTable pins the one flag table — group → names, defaults, help
// — against testdata/flags.golden (UPDATE_GOLDEN=1 rewrites it). A
// change here changes the -h of every driver that registers the group.
func TestFlagTable(t *testing.T) {
	var got bytes.Buffer
	for _, g := range []struct {
		name  string
		group Group
	}{
		{"Telemetry", Telemetry}, {"Observe", Observe}, {"Machine", Machine},
		{"Recovery", Recovery}, {"Tuning", Tuning}, {"Artifact", Artifact},
	} {
		fmt.Fprintf(&got, "== %s\n", g.name)
		s := New("x", io.Discard, &got, g.group)
		s.Flags.PrintDefaults()
	}
	path := filepath.Join("testdata", "flags.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("flag table differs from %s:\n%s", path, got.String())
	}
}

// TestBenchRegistersEveryGroup: the bench pair serves the whole table.
func TestBenchRegistersEveryGroup(t *testing.T) {
	b := NewBench("x", io.Discard, io.Discard)
	for _, name := range []string{"trace", "metrics", "eventlog", "errtrack", "faults",
		"recover", "autotune", "tunetol", "tuneplan", "tuneprobe", "json", "plot"} {
		if b.Flags.Lookup(name) == nil {
			t.Errorf("NewBench does not register -%s", name)
		}
	}
}

// TestUsageErrors: every shared validation failure is reported by Parse
// — before Start, so nothing has been opened or written — and exits 2
// with one diagnostic line and an empty stdout.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string // substring of the diagnostic
	}{
		{"unparsable gpus entry", []string{"-gpus", "12,13,x"}, "13 GPUs is not a positive multiple of 6"},
		{"non-numeric gpus entry", []string{"-gpus", "12,x"}, `bad GPU count "x"`},
		{"gpus not a multiple of 6", []string{"-gpus", "12,20"}, "20 GPUs"},
		{"zero gpus", []string{"-gpus", "0"}, "0 GPUs"},
		{"negative gpus", []string{"-gpus", "-6"}, "-6 GPUs"},
		{"negative tuneprobe", []string{"-tuneprobe", "-1"}, "-tuneprobe must be >= 0 (got -1)"},
		{"negative tunetol", []string{"-tunetol", "-0.001"}, "-tunetol must be >= 0 (got -0.001)"},
		{"NaN tunetol", []string{"-tunetol", "NaN"}, "-tunetol must be >= 0 (got NaN)"},
		{"unknown flag", []string{"-nope"}, "flag provided but not defined"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var out, errb bytes.Buffer
			s := New("x", &out, &errb, Observe|Machine|Recovery|Tuning|Artifact)
			s.Flags.String("gpus", "12", "GPU counts")
			args := append([]string{"-eventlog", filepath.Join(dir, "e.jsonl"), "-json", filepath.Join(dir, "a.json")}, tc.args...)
			err := s.Parse(args)
			if code := ExitCode("x", err, &errb); code != 2 {
				t.Fatalf("exit %d, want 2 (err %v)", code, err)
			}
			if out.Len() != 0 {
				t.Errorf("stdout not empty: %q", out.String())
			}
			if !strings.Contains(errb.String(), tc.want) {
				t.Errorf("stderr %q lacks %q", errb.String(), tc.want)
			}
			if files, _ := os.ReadDir(dir); len(files) != 0 {
				t.Errorf("usage error left %d file(s) behind", len(files))
			}
		})
	}
}

func TestSingleGPUCount(t *testing.T) {
	s := New("x", io.Discard, io.Discard, 0)
	s.Flags.Int("gpus", 24, "GPU count")
	if err := s.Parse([]string{"-gpus", "18"}); err != nil {
		t.Fatal(err)
	}
	if len(s.GPUs) != 1 || s.GPUs[0] != 18 {
		t.Errorf("GPUs = %v, want [18]", s.GPUs)
	}
	if m := s.Machine(18); m.Nodes != 3 || m.Faults != nil {
		t.Errorf("Machine(18) = %d nodes, faults %v", m.Nodes, m.Faults)
	}
}

func TestMachineAppliesFlags(t *testing.T) {
	s := New("x", io.Discard, io.Discard, Machine)
	if err := s.Parse([]string{"-faults", "17"}); err != nil {
		t.Fatal(err)
	}
	if m := s.Machine(12); m.Nodes != 2 || m.Faults == nil {
		t.Errorf("Machine(12) = %d nodes, faults %v", m.Nodes, m.Faults)
	}
}

func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		err    error
		code   int
		stderr string
	}{
		{nil, 0, ""},
		{flag.ErrHelp, 0, ""},
		{Usagef("bad %d", 7), 2, "x: bad 7\n"},
		{fmt.Errorf("cell: %w", Usagef("wrapped")), 2, "x: cell: wrapped\n"},
		{errors.New("disk full"), 1, "x: disk full\n"},
	} {
		var errb bytes.Buffer
		if code := ExitCode("x", tc.err, &errb); code != tc.code || errb.String() != tc.stderr {
			t.Errorf("ExitCode(%v) = %d, %q; want %d, %q", tc.err, code, errb.String(), tc.code, tc.stderr)
		}
	}
}

func TestHelpExitsZero(t *testing.T) {
	var out, errb bytes.Buffer
	s := New("x", &out, &errb, Observe)
	s.Help("metrics", "print the report of the run")
	err := s.Parse([]string{"-h"})
	if code := ExitCode("x", err, &errb); code != 0 {
		t.Fatalf("-h exits %d, want 0", code)
	}
	if out.Len() != 0 || !strings.HasPrefix(errb.String(), "Usage of x:\n") ||
		!strings.Contains(errb.String(), "print the report of the run") {
		t.Errorf("-h wrote stdout %q, stderr %q", out.String(), errb.String())
	}
}

func TestPick(t *testing.T) {
	table := []string{"linear", "osc", "osc-comp"}
	id := func(s string) string { return s }
	got, err := Pick("algos", "algorithm", "osc, linear", table, id)
	if err != nil || len(got) != 2 || got[0] != "osc" || got[1] != "linear" {
		t.Errorf("Pick = %v, %v", got, err)
	}
	_, err = Pick("algos", "algorithm", "osc,nope", table, id)
	want := `unknown algorithm "nope" in -algos (valid: linear, osc, osc-comp)`
	if err == nil || err.Error() != want || ExitCode("x", err, io.Discard) != 2 {
		t.Errorf("Pick error = %v, want usage error %q", err, want)
	}
}

// observed runs one small traced cell through a started session.
func observed(s *Session, label, cell string) {
	mpi.RunWith(s.Machine(6), s.Recorder(label, cell), func(c *mpi.Comm) {
		c.AlltoallvSparse(make([][]byte, c.Size()), nil, nil)
		c.Barrier()
	})
}

// TestFinishExports: Finish prints the -metrics report under the cell's
// header, writes a -trace file that is valid JSON, confirms it on
// stdout, and closes telemetry (the event log ends with its marker).
func TestFinishExports(t *testing.T) {
	dir := t.TempDir()
	trace, events := filepath.Join(dir, "t.json"), filepath.Join(dir, "e.jsonl")
	var out bytes.Buffer
	s := New("x", &out, io.Discard, Observe)
	if err := s.Parse([]string{"-trace", trace, "-metrics", "-eventlog", events}); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	observed(s, "a/6gpus", "a @ 6 GPUs")
	observed(s, "b/6gpus", "b @ 6 GPUs")
	if err := s.Finish(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var doc any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("-trace file is not JSON: %v", err)
	}
	for _, want := range []string{
		"\n# metrics report — b @ 6 GPUs\n",
		"# trace written: " + trace + " (b @ 6 GPUs) — open in chrome://tracing or ui.perfetto.dev\n",
		"telemetry: repairs=0",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stdout lacks %q:\n%s", want, out.String())
		}
	}
	log, err := os.ReadFile(events)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(log)), "\n")
	if !strings.Contains(lines[0], `"a/6gpus"`) || !strings.Contains(lines[len(lines)-1], `"run_end"`) {
		t.Errorf("event log does not run from the first run marker to the end marker:\n%s\n...\n%s", lines[0], lines[len(lines)-1])
	}
}

// TestTelemetryOff: with no telemetry flag, Start opens nothing, cells
// record without an event log, and Finish prints no summary.
func TestTelemetryOff(t *testing.T) {
	var out bytes.Buffer
	s := New("x", &out, io.Discard, Observe)
	if err := s.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if s.Events != nil || s.trk != nil || s.sink != nil {
		t.Fatal("all-off session opened telemetry")
	}
	if rec := s.Recorder("c", "c"); rec.EventLog() != nil {
		t.Error("all-off session attached an event log")
	}
	if err := s.Finish(); err != nil || out.Len() != 0 {
		t.Errorf("Finish = %v, stdout %q; want nil and nothing", err, out.String())
	}
}

// TestTelemetryStream drives the telemetry of one faulty cell end to end:
// the -eventlog sink is valid JSONL from the cell's run marker to the
// end marker, carries the fault events, and the -errtrack report loads.
func TestTelemetryStream(t *testing.T) {
	dir := t.TempDir()
	events, report := filepath.Join(dir, "e.jsonl"), filepath.Join(dir, "r.json")
	var out bytes.Buffer
	s := New("x", &out, io.Discard, Telemetry|Machine)
	if err := s.Parse([]string{"-eventlog", events, "-errtrack", report, "-faults", "3"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	_, err := mpi.RunWithChecked(s.Machine(6), s.Recorder("faulty-cell", ""), func(c *mpi.Comm) {
		send := make([][]byte, c.Size())
		for d := range send {
			send[d] = make([]byte, 128)
		}
		for it := 0; it < 2; it++ {
			exchange.PairwiseAlltoallv(c, send, nil)
		}
	})
	_ = err // crashes are a legal outcome of a fault plan
	if err := s.Finish(); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "telemetry: repairs=") || !strings.Contains(out.String(), "; errtrack ") {
		t.Errorf("summary line wrong: %q", out.String())
	}
	data, err := os.ReadFile(events)
	if err != nil {
		t.Fatal(err)
	}
	var evs []obs.Event
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var ev obs.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("sink line not JSON: %v: %s", err, line)
		}
		evs = append(evs, ev)
	}
	first, last := evs[0], evs[len(evs)-1]
	if first.Kind != obs.EventRun || first.Label != "faulty-cell" || last.Kind != obs.EventEnd || last.Value != float64(len(evs)) {
		t.Fatalf("sink does not run from the run marker to a consistent end marker: %+v ... %+v", first, last)
	}
	if s.Events.Counts()[obs.EventFault] == 0 {
		t.Error("fault plan produced no fault events")
	}
	if _, err := errtrack.LoadReport(report); err != nil {
		t.Errorf("-errtrack report: %v", err)
	}
}

// TestTelemetryUnwritableSink: Start rejects an -eventlog it cannot create.
func TestTelemetryUnwritableSink(t *testing.T) {
	s := New("x", io.Discard, io.Discard, Telemetry)
	if err := s.Parse([]string{"-eventlog", filepath.Join(t.TempDir(), "no", "such", "dir", "e.jsonl")}); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err == nil || !strings.HasPrefix(err.Error(), "telemetry: ") {
		t.Errorf("Start = %v, want a telemetry error", err)
	}
}

// TestLazyRecorder: a lazy driver measures without a recorder until an
// observer is on, and then -metrics alone records spans too.
func TestLazyRecorder(t *testing.T) {
	s := New("x", io.Discard, io.Discard, Observe)
	s.Lazy = true
	if err := s.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if rec := s.Recorder("c", "c"); rec != nil {
		t.Error("unobserved lazy session handed out a recorder")
	}
	s.Metrics = true
	if rec := s.Recorder("c", "c"); !rec.Tracing() {
		t.Error("lazy session under -metrics does not record spans")
	}
	s.Lazy = false
	if rec := s.Recorder("c", "c"); rec == nil || rec.Tracing() {
		t.Error("eager session under -metrics alone must record metrics only")
	}
}

func TestRecoveredReport(t *testing.T) {
	var errb bytes.Buffer
	s := New("x", io.Discard, &errb, 0)
	out := recov.Outcome{Recoveries: make([]recov.Recovery, 2), MTTRSeconds: 0.5}
	if err := s.Recovered("fp64/12gpus", out, nil); err != nil {
		t.Fatal(err)
	}
	if want := "# fp64/12gpus: recovered 2 crash(es), MTTR 0.5s\n"; errb.String() != want {
		t.Errorf("stderr %q, want %q", errb.String(), want)
	}
	if err := s.Recovered("fp64/12gpus", out, errors.New("boom")); err == nil || err.Error() != "fp64/12gpus: boom" {
		t.Errorf("error not attributed to the cell: %v", err)
	}
}

// TestBenchTunePlanRoundTrip: an -autotune run collects each machine's
// cell once and saves the plan; a -tuneplan run replays the same cells
// and fails, before measuring, on a machine the plan does not hold.
func TestBenchTunePlanRoundTrip(t *testing.T) {
	plan := filepath.Join(t.TempDir(), "plan.json")
	var out bytes.Buffer
	b := NewBench("x", &out, io.Discard)
	compute := func(sp tune.Space) (*tune.Cell, error) {
		if sp.Budget != b.TuneTol || sp.ProbeTopK != b.TuneProbe {
			t.Errorf("search space %+v does not carry -tunetol/-tuneprobe", sp)
		}
		return &tune.Cell{Machine: tune.Fingerprint(b.Machine(6)), Shape: "s",
			Stages: []tune.Choice{{Label: "fwd0", Algo: "osc"}}}, nil
	}
	if err := b.Parse([]string{"-autotune", "-tuneplan", plan}); err != nil {
		t.Fatal(err)
	}
	config := map[string]string{}
	if err := b.Start([]string{"a", "tuned"}, config); err != nil {
		t.Fatal(err)
	}
	if config["autotune"] != "1" || config["tunetol"] != "0.001" {
		t.Errorf("artifact config not stamped: %v", config)
	}
	for i := 0; i < 2; i++ { // the second resolve must not duplicate the cell
		if cell, err := b.Tuned(b.Machine(6), "s", compute); err != nil || cell == nil {
			t.Fatal(cell, err)
		}
	}
	b.Cell(0, 6)
	b.Cell(1, 6)
	if err := b.Finish("chart", false, func(obs.CompressionStat) string { return "" }); err != nil {
		t.Fatal(err)
	}
	if want := "# tune plan written: " + plan + " (1 cells)\n"; out.String() != want {
		t.Errorf("stdout %q, want %q", out.String(), want)
	}

	b = NewBench("x", io.Discard, io.Discard)
	if err := b.Parse([]string{"-tuneplan", plan}); err != nil {
		t.Fatal(err)
	}
	if !b.Tuning() {
		t.Fatal("-tuneplan alone must add the tuned column")
	}
	if err := b.Start([]string{"a", "tuned"}, map[string]string{}); err != nil {
		t.Fatal(err)
	}
	if cell, err := b.Tuned(b.Machine(6), "s", nil); err != nil || cell.Stages[0].Algo != "osc" {
		t.Errorf("replay of the tuned machine: %v, %v", cell, err)
	}
	if _, err := b.Tuned(b.Machine(12), "s", nil); err == nil || !strings.Contains(err.Error(), "holds no cell for this machine/shape (12 GPUs)") {
		t.Errorf("replay on an untuned machine: %v", err)
	}
}
