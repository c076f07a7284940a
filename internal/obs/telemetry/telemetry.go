// Package telemetry bundles the run-record plumbing every driver
// shares: the -eventlog/-slo/-errtrack flags, the event log with its
// JSONL sink, the SLO engine and the error-provenance tracker. Drivers
// create one Session per process, Attach each run's recorder to it, and
// Close it at exit. A nil *Session (telemetry off) is valid everywhere
// and does nothing, so drivers need no conditionals.
package telemetry

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"repro/internal/obs"
	"repro/internal/obs/errtrack"
	"repro/internal/obs/slo"
)

// Flags holds the shared telemetry flag values.
type Flags struct {
	EventLog *string
	SLO      *string
	Errtrack *string
}

// RegisterFlags declares the -eventlog/-slo/-errtrack flags on fs. Call
// before fs.Parse.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	return &Flags{
		EventLog: fs.String("eventlog", "", "stream the telemetry event log to this file as JSONL"),
		SLO:      fs.String("slo", "", "evaluate the SLO objectives in this JSON config (see docs/slo.example.json)"),
		Errtrack: fs.String("errtrack", "", "write the error-provenance report (per-reshape/per-peer attribution; cmd/errmap renders it) to this JSON file"),
	}
}

// Config returns the parsed flag values as a Config, which the driver
// runtime amends (forcing the tracker on for artifact embedding) before
// calling Start.
func (f *Flags) Config() Config {
	return Config{EventLog: *f.EventLog, SLO: *f.SLO, Errtrack: *f.Errtrack}
}

// Config selects which telemetry pieces to enable; zero values are off.
type Config struct {
	EventLog string // JSONL sink path
	SLO      string // objectives config path
	Errtrack string // error-provenance report path
	// Tracker attaches the error-provenance tracker without writing a
	// report file — benches set it so their -json artifacts can embed the
	// attribution matrix.
	Tracker bool
}

// Session is one process's telemetry state.
type Session struct {
	log     *obs.EventLog
	eng     *slo.Engine
	trk     *errtrack.Tracker
	errPath string
	file    *os.File
	bw      *bufio.Writer
}

// Start assembles a session: the event log spine, then the SLO engine,
// tracker and JSONL sink as configured. The SLO config is loaded before
// the sink file is created, so a bad -slo leaves no empty event log
// behind. Returns nil when the config enables nothing.
func Start(cfg Config) (*Session, error) {
	if cfg.EventLog == "" && cfg.SLO == "" && cfg.Errtrack == "" && !cfg.Tracker {
		return nil, nil
	}
	s := &Session{log: obs.NewEventLog()}
	if cfg.SLO != "" {
		sc, err := slo.LoadConfig(cfg.SLO)
		if err != nil {
			return nil, err
		}
		s.eng = slo.New(sc, s.log)
	}
	if cfg.Errtrack != "" || cfg.Tracker {
		s.trk = errtrack.New()
		s.errPath = cfg.Errtrack
		s.log.Observe(s.trk.Observe)
	}
	if s.eng != nil {
		s.log.Observe(s.eng.ObserveEvent)
	}
	if cfg.EventLog != "" {
		file, err := os.Create(cfg.EventLog)
		if err != nil {
			return nil, fmt.Errorf("telemetry: %w", err)
		}
		s.file = file
		s.bw = bufio.NewWriter(file)
		s.log.SetSink(s.bw)
	}
	return s, nil
}

// Enabled reports whether any telemetry is on.
func (s *Session) Enabled() bool { return s != nil }

// Log returns the session's event log (nil when telemetry is off).
func (s *Session) Log() *obs.EventLog {
	if s == nil {
		return nil
	}
	return s.log
}

// Engine returns the SLO engine (nil without an -slo config).
func (s *Session) Engine() *slo.Engine {
	if s == nil {
		return nil
	}
	return s.eng
}

// Tracker returns the error-provenance tracker (nil unless -errtrack or
// Config.Tracker enabled it).
func (s *Session) Tracker() *errtrack.Tracker {
	if s == nil {
		return nil
	}
	return s.trk
}

// Attach wires a run's recorder into the session so its events flow
// into the log. Call once per recorder, before its run starts.
func (s *Session) Attach(rec *obs.Recorder) {
	if s == nil {
		return
	}
	rec.SetEventLog(s.log)
}

// StartRun emits a run marker: virtual time restarts at zero, so SLO
// windows reset (cumulative breach counts persist).
func (s *Session) StartRun(label string) {
	if s == nil {
		return
	}
	s.log.StartRun(label)
}

// Summary is the one-line end-of-run telemetry summary the drivers
// print: SLO pass/fail with the worst burn rate, plus the session's
// repair/fallback/fault tallies.
func (s *Session) Summary() string {
	if s == nil {
		return ""
	}
	counts := s.log.Counts()
	base := fmt.Sprintf("repairs=%d fallbacks=%d faults=%d events=%d",
		counts[obs.EventRepair], counts[obs.EventFallback], counts[obs.EventFault], s.log.Total())
	if s.trk != nil {
		base += "; " + s.trk.Snapshot().Verdict()
	}
	if s.eng != nil {
		return "telemetry: " + s.eng.Summary() + "; " + base
	}
	return "telemetry: " + base
}

// Close emits the end-of-stream marker, flushes and closes the JSONL
// sink, and writes the -errtrack report, returning the first error the
// sink ever hit so a silently failing event stream cannot masquerade as
// a healthy run.
func (s *Session) Close() error {
	if s == nil {
		return nil
	}
	// The marker must be the stream's last event: Close runs after the
	// driver's runs have finished, so no emitter races past it. Replays
	// that do not find it know the stream was truncated.
	s.log.EmitEnd()
	err := s.log.SinkErr()
	if s.trk != nil && s.errPath != "" {
		if werr := s.trk.Snapshot().WriteFile(s.errPath); err == nil {
			err = werr
		}
	}
	if s.bw != nil {
		if ferr := s.bw.Flush(); err == nil {
			err = ferr
		}
	}
	if s.file != nil {
		if cerr := s.file.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
