// Package driver is the runtime the simulation mains under cmd/ share:
// one table of their common flags, one Session that validates them,
// opens telemetry (the event log, its JSONL sink and the error
// tracker), hands out per-cell recorders and exports what the flags
// asked for, and one exit path (Main). Every driver goes New,
// private flags, Parse, its own validation (Usagef), Start, measure,
// Finish; nothing is opened or written before Start, so a usage error
// leaves no file behind.
package driver

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/obs/errtrack"
	recov "repro/internal/recover"
)

// Group names a set of shared flags.
type Group uint

const (
	Telemetry Group = 1 << iota // -eventlog -errtrack
	exports                     // -trace -metrics
	Parallel                    // -parallel
	faults                      // -faults
	Recovery                    // -recover
	Tuning                      // -autotune -tunetol -tuneplan -tuneprobe
	Artifact                    // -json -plot

	Observe = Telemetry | exports
	Machine = Parallel | faults
)

// Session is one run of a driver.
type Session struct {
	Flags          *flag.FlagSet // drivers add their private flags before Parse
	Stdout, Stderr io.Writer

	// The shared flag values (zero for a group the driver did not register).
	EventLog  string
	Errtrack  string
	Trace     string
	Metrics   bool
	Parallel  bool
	Faults    int64
	Recover   bool
	Autotune  bool
	TuneTol   float64
	TunePlan  string
	TuneProbe int
	JSON      string
	Plot      bool
	GPUs      []int // the validated -gpus entries

	// Lazy marks a driver whose tables need nothing from a recorder:
	// Recorder returns nil unless an observer is on, and -metrics alone
	// records spans too, so its report carries the phase breakdown.
	Lazy bool

	// Events is the event log Start opens when -eventlog, -errtrack or
	// -json asks for telemetry; nil (and inert) otherwise.
	Events *obs.EventLog

	trk      *errtrack.Tracker // observes Events under -errtrack or -json
	sink     *os.File          // the -eventlog file, written through bw
	bw       *bufio.Writer
	last     *obs.Recorder
	lastCell string
}

// New returns a session whose flag set holds the shared flags of groups.
// This is the one flag table; Help covers the few per-driver wordings.
func New(name string, stdout, stderr io.Writer, groups Group) *Session {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	s := &Session{Flags: fs, Stdout: stdout, Stderr: stderr}
	if groups&Telemetry != 0 {
		fs.StringVar(&s.EventLog, "eventlog", "", "stream the telemetry event log to this file as JSONL")
		fs.StringVar(&s.Errtrack, "errtrack", "", "write the error-provenance report (per-reshape/per-peer attribution; cmd/errmap renders it) to this JSON file")
	}
	if groups&exports != 0 {
		fs.StringVar(&s.Trace, "trace", "", "write a Chrome-trace JSON of the last measured cell to this file")
		fs.BoolVar(&s.Metrics, "metrics", false, "print the metrics report of the last measured cell")
	}
	if groups&Parallel != 0 {
		fs.BoolVar(&s.Parallel, "parallel", false, "run the simulator's parallel engine (bit-identical results; docs/DETERMINISM.md)")
	}
	if groups&faults != 0 {
		fs.Int64Var(&s.Faults, "faults", 0, "inject the seeded fault plan netsim.RandomPlan(seed); 0 disables (docs/ROBUSTNESS.md)")
	}
	if groups&Recovery != 0 {
		fs.BoolVar(&s.Recover, "recover", false, "run under the crash-recovery runtime: epoch checkpoints + rollback/respawn on crash verdicts (docs/ROBUSTNESS.md)")
	}
	if groups&Tuning != 0 {
		fs.BoolVar(&s.Autotune, "autotune", false, "tune the exchange configuration per machine and add a 'tuned' config (docs/TUNING.md)")
		fs.Float64Var(&s.TuneTol, "tunetol", 1e-3, "per-stage error budget for the autotuner's compressed candidates")
		fs.StringVar(&s.TunePlan, "tuneplan", "", "tune-plan file: written with -autotune, otherwise loaded and replayed")
		fs.IntVar(&s.TuneProbe, "tuneprobe", 2, "probe the best K predicted candidates with short simulation runs (0 = predictor only)")
	}
	if groups&Artifact != 0 {
		fs.StringVar(&s.JSON, "json", "", "write the machine-readable bench artifact to this file")
		fs.BoolVar(&s.Plot, "plot", false, "render the figure as an ASCII chart")
	}
	return s
}

// Help replaces a registered flag's help string.
func (s *Session) Help(name, usage string) { s.Flags.Lookup(name).Usage = usage }

// floors are the lowest values of the size and count flags; Parse checks
// whichever of them a driver registers.
var floors = []struct {
	name string
	min  float64
}{
	{"n", 1}, {"iters", 1}, {"msg", 1}, {"seeds", 1},
	{"sim", 0}, {"tuneprobe", 0}, {"tunetol", 0}, {"etol", 0},
}

// Parse parses args and validates the shared flags, the size and count
// flags (floors) and the driver's -gpus (a count or a comma-separated
// list, its default and wording the driver's own); its errors are usage
// errors, or flag.ErrHelp.
func (s *Session) Parse(args []string) error {
	if err := s.Flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError("") // the flag package has reported it on Stderr
	}
	for _, fl := range floors {
		if f := s.Flags.Lookup(fl.name); f != nil {
			if v, _ := strconv.ParseFloat(f.Value.String(), 64); !(v >= fl.min) {
				return Usagef("-%s must be >= %g (got %s)", fl.name, fl.min, f.Value)
			}
		}
	}
	f := s.Flags.Lookup("gpus")
	if f == nil {
		return nil
	}
	for _, c := range strings.Split(f.Value.String(), ",") {
		g, err := strconv.Atoi(strings.TrimSpace(c))
		if err != nil {
			return Usagef("bad GPU count %q in -gpus", c)
		}
		if err := CheckGPUs("-gpus", g); err != nil {
			return err
		}
		s.GPUs = append(s.GPUs, g)
	}
	return nil
}

// CheckGPUs rejects a GPU count that is not whole 6-GPU Summit nodes.
func CheckGPUs(flagName string, g int) error {
	if g <= 0 || g%6 != 0 {
		return Usagef("%s: %d GPUs is not a positive multiple of 6", flagName, g)
	}
	return nil
}

// Pick resolves a comma-separated flag value against a table of named
// entries; an unknown name is a usage error listing the valid ones.
func Pick[T any](flagName, kind, list string, table []T, name func(T) string) ([]T, error) {
	valid := make([]string, len(table))
	for i, t := range table {
		valid[i] = name(t)
	}
	var out []T
	for _, n := range strings.Split(list, ",") {
		i := slices.Index(valid, strings.TrimSpace(n))
		if i < 0 {
			return nil, Usagef("unknown %s %q in -%s (valid: %s)", kind, n, flagName, strings.Join(valid, ", "))
		}
		out = append(out, table[i])
	}
	return out, nil
}

// Start opens the telemetry the flags ask for: the event log, the error
// tracker observing it and the JSONL sink. -json artifacts embed the
// error-attribution ledger, so they force the tracker on even without
// -errtrack.
func (s *Session) Start() error {
	if s.EventLog == "" && s.Errtrack == "" && s.JSON == "" {
		return nil
	}
	s.Events = obs.NewEventLog()
	if s.Errtrack != "" || s.JSON != "" {
		s.trk = errtrack.New()
		s.Events.Observe(s.trk.Observe)
	}
	if s.EventLog != "" {
		f, err := os.Create(s.EventLog)
		if err != nil {
			return fmt.Errorf("telemetry: %w", err)
		}
		s.sink, s.bw = f, bufio.NewWriter(f)
		s.Events.SetSink(s.bw)
	}
	return nil
}

// Machine returns the g-GPU Summit under the -parallel and -faults flags.
func (s *Session) Machine(g int) netsim.Config {
	m := netsim.Summit(g / 6)
	m.Parallel = s.Parallel
	if s.Faults != 0 {
		m.Faults = netsim.RandomPlan(s.Faults)
	}
	return m
}

// Recorder returns a fresh recorder for one measured cell, announced to
// telemetry as run label, and remembers it for Finish; cell is the name
// the -metrics and -trace lines print ("" for a single-cell driver).
func (s *Session) Recorder(label, cell string) *obs.Recorder {
	if s.Lazy && s.Trace == "" && !s.Metrics && s.Events == nil {
		return nil
	}
	// The artifact embeds trace analyses, so -json records like -trace.
	rec := obs.New(obs.Options{Trace: s.Trace != "" || s.JSON != "" || s.Lazy && s.Metrics, Metrics: true})
	s.Events.StartRun(label)
	rec.SetEventLog(s.Events)
	s.last, s.lastCell = rec, cell
	return rec
}

// Recovered reports a -recover cell's absorbed crashes on
// Stderr and returns its error, if any, attributed to the cell.
func (s *Session) Recovered(cell string, out recov.Outcome, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", cell, err)
	}
	if len(out.Recoveries) > 0 {
		fmt.Fprintf(s.Stderr, "# %s: recovered %d crash(es), MTTR %.3gs\n", cell, len(out.Recoveries), out.MTTRSeconds)
	}
	return nil
}

// Finish exports the last measured cell (-metrics report, -trace file),
// then prints the telemetry summary and closes telemetry.
func (s *Session) Finish() error { return s.finish(func() error { return nil }) }

// finish is Finish with artifacts written between the exports and the
// telemetry summary.
func (s *Session) finish(artifacts func() error) error {
	if s.last != nil && s.Metrics {
		fmt.Fprintln(s.Stdout)
		if s.lastCell != "" {
			fmt.Fprintf(s.Stdout, "# metrics report — %s\n", s.lastCell)
		}
		s.last.WriteReport(s.Stdout)
	}
	if s.last != nil && s.Trace != "" {
		f, err := os.Create(s.Trace)
		if err != nil {
			return err
		}
		err = s.last.WriteChromeTrace(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		of := ""
		if s.lastCell != "" {
			of = " (" + s.lastCell + ")"
		}
		fmt.Fprintf(s.Stdout, "# trace written: %s%s — open in chrome://tracing or ui.perfetto.dev\n", s.Trace, of)
	}
	if err := artifacts(); err != nil {
		return err
	}
	if s.Events == nil {
		return nil
	}
	counts := s.Events.Counts()
	summary := fmt.Sprintf("telemetry: repairs=%d fallbacks=%d faults=%d events=%d",
		counts[obs.EventRepair], counts[obs.EventFallback], counts[obs.EventFault], s.Events.Total())
	if s.trk != nil {
		summary += "; " + s.trk.Snapshot().Verdict()
	}
	fmt.Fprintln(s.Stdout, summary)
	if err := s.closeTelemetry(); err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	return nil
}

// closeTelemetry emits the end-of-stream marker, writes the -errtrack
// report, and flushes and closes the JSONL sink, returning the first
// error the sink ever hit so a silently failing event stream cannot
// masquerade as a healthy run. The marker is the stream's last event:
// the driver's runs have finished, so no emitter races past it, and a
// replay that does not find it knows the stream was truncated.
func (s *Session) closeTelemetry() error {
	s.Events.EmitEnd()
	err := s.Events.SinkErr()
	if s.Errtrack != "" {
		if werr := s.trk.Snapshot().WriteFile(s.Errtrack); err == nil {
			err = werr
		}
	}
	if s.sink != nil {
		if ferr := s.bw.Flush(); err == nil {
			err = ferr
		}
		if cerr := s.sink.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// usageError is invalid input; empty when the flag package already
// printed the diagnostic.
type usageError string

func (e usageError) Error() string { return string(e) }

// Usagef returns a usage error (exit 2).
func Usagef(format string, args ...any) error {
	return usageError(fmt.Sprintf(format, args...))
}

// ExitCode reports err on stderr and maps it to the exit code: 0 for
// success and -h, 2 for usage errors, 1 for everything else.
func ExitCode(name string, err error, stderr io.Writer) int {
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err.Error() != "" {
		fmt.Fprintf(stderr, "%s: %v\n", name, err)
	}
	if errors.As(err, new(usageError)) {
		return 2
	}
	return 1
}

// Main is the drivers' only exit path.
func Main(name string, run func(args []string, stdout, stderr io.Writer) error) {
	os.Exit(ExitCode(name, run(os.Args[1:], os.Stdout, os.Stderr), os.Stderr))
}
