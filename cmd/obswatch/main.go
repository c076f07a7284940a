// Command obswatch replays a recorded JSONL event log offline
// (docs/OBSERVABILITY.md):
//
//	obswatch -replay events.jsonl [-slo slo.json]
//
// -replay feeds the stream through a fresh SLO engine and error tracker,
// reproducing the breach and errtrack verdicts the recording run saw; it
// also verifies stream integrity (sequence numbers contiguous from 1,
// the run_end marker present and last, no malformed or cut lines, and
// recovery-protocol sequencing: every resume names a previously
// committed checkpoint epoch or -1) and exits non-zero with a
// diagnostic when the stream was truncated.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/cmd/internal/driver"
	"repro/internal/obs"
	"repro/internal/obs/errtrack"
	"repro/internal/obs/slo"
	recov "repro/internal/recover"
)

func run(args []string, stdout, stderr io.Writer) error {
	s := driver.New("obswatch", stdout, stderr, 0)
	replay := s.Flags.String("replay", "", "replay a JSONL event log offline and exit")
	sloFlag := s.Flags.String("slo", "", "with -replay: SLO config to evaluate the stream against")
	if err := s.Parse(args); err != nil {
		return err
	}

	if *replay == "" {
		s.Flags.Usage()
		return driver.Usagef("-replay is required")
	}
	return runReplay(stdout, *replay, *sloFlag)
}

func main() { driver.Main("obswatch", run) }

// runReplay feeds a recorded JSONL event stream through a fresh SLO
// engine (when a config is given) and error tracker, printing the
// stream's shape and the resulting verdicts — the offline reproduction
// of the recording run's SLO and errtrack verdicts. It also
// checks the stream's integrity: every event carries a sequence number
// stamped at emit time and Session.Close appends a run_end marker, so a
// truncated, partially flushed, or lossy copy of the log is detectable
// rather than silently replaying as a shorter healthy run.
func runReplay(w io.Writer, path, sloPath string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	var eng *slo.Engine
	// Breach events re-derived by the replay engine are emitted into
	// this log (and counted), mirroring the live wiring.
	log := obs.NewEventLog()
	if sloPath != "" {
		cfg, err := slo.LoadConfig(sloPath)
		if err != nil {
			return err
		}
		eng = slo.New(cfg, log)
	}
	trk := errtrack.New()

	counts := map[string]int64{}
	var total, bad int64
	var runs int
	var tMax float64
	// Integrity state: seqs is set once any event carries a sequence
	// number (streams recorded before sequencing replay without the
	// checks); expect is the next sequence number a gapless stream emits.
	var integrity []string
	var seqs bool
	var expect, gaps int64 = 1, 0
	var firstGap string
	var last obs.Event
	// Recovery-protocol sequencing: commits register epochs; a resume
	// naming an epoch that was never committed means the run resumed from
	// a cut the store could not have held (a torn or lost checkpoint).
	committed := map[int]bool{}
	var resumeBad int
	var firstResumeBad string
	rd := bufio.NewReaderSize(f, 1<<20)
	for {
		line, rerr := rd.ReadString('\n')
		if rerr != nil && rerr != io.EOF {
			return rerr
		}
		if s := strings.TrimSpace(line); s != "" {
			if !strings.HasSuffix(line, "\n") {
				integrity = append(integrity, "last line has no trailing newline (write was cut mid-record)")
			}
			var ev obs.Event
			if err := json.Unmarshal([]byte(s), &ev); err != nil {
				bad++
			} else {
				total++
				counts[ev.Kind]++
				if ev.Kind == obs.EventRun {
					runs++
				}
				if ev.T > tMax {
					tMax = ev.T
				}
				if ev.Seq > 0 {
					seqs = true
					if ev.Seq != expect {
						gaps++
						if firstGap == "" {
							firstGap = fmt.Sprintf("event %d follows %d", ev.Seq, expect-1)
						}
					}
					expect = ev.Seq + 1
				}
				if ev.Kind == obs.EventRecovery {
					switch ev.Label {
					case recov.LabelCommit:
						committed[int(ev.Value)] = true
					case recov.LabelResume:
						// Value -1 is a legal from-scratch respawn (no cut
						// had been committed when the crash hit).
						if epoch := int(ev.Value); epoch >= 0 && !committed[epoch] {
							resumeBad++
							if firstResumeBad == "" {
								firstResumeBad = fmt.Sprintf("resume at t=%.3gs names epoch %d", ev.T, epoch)
							}
						}
					}
				}
				last = ev
				eng.ObserveEvent(ev)
				trk.Observe(ev)
			}
		}
		if rerr == io.EOF {
			break
		}
	}
	if bad > 0 {
		integrity = append(integrity, fmt.Sprintf("%d malformed lines", bad))
	}
	if gaps > 0 {
		integrity = append(integrity, fmt.Sprintf("%d sequence gaps (first: %s) — events were lost", gaps, firstGap))
	}
	if resumeBad > 0 {
		integrity = append(integrity, fmt.Sprintf("%d resume(s) without a preceding committed checkpoint (first: %s)", resumeBad, firstResumeBad))
	}
	if seqs {
		switch {
		case last.Kind != obs.EventEnd:
			integrity = append(integrity, "stream ends without a run_end marker — the run was cut before Close")
		case last.Value != float64(last.Seq):
			integrity = append(integrity, fmt.Sprintf("run_end marker claims %g events but the stream ends at %d", last.Value, last.Seq))
		}
	}

	fmt.Fprintf(w, "replay %s: %d events, %d runs, virtual span %.3gs\n", path, total, runs, tMax)
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(w, "  %-16s %d\n", k, counts[k])
	}
	var failures []string
	if len(integrity) > 0 {
		for _, msg := range integrity {
			fmt.Fprintf(w, "  INTEGRITY: %s\n", msg)
		}
		failures = append(failures, fmt.Sprintf("stream integrity: %s", strings.Join(integrity, "; ")))
	}
	if rep := trk.Snapshot(); len(rep.Cells) > 0 {
		fmt.Fprintln(w, rep.Verdict())
		if over := rep.OverBudget(); len(over) > 0 {
			failures = append(failures, fmt.Sprintf("%d stages over error budget", len(over)))
		}
	}
	if eng != nil {
		fmt.Fprintln(w, eng.Summary())
		printObjectives(w, eng.Status())
		if n := eng.TotalBreaches(); n > 0 {
			failures = append(failures, fmt.Sprintf("%d SLO breaches", n))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("replay detected %s", strings.Join(failures, "; "))
	}
	return nil
}

func printObjectives(w io.Writer, sts []slo.Status) {
	if len(sts) == 0 {
		return
	}
	fmt.Fprintf(w, "  %-24s %-10s %8s %10s %10s %10s\n",
		"objective", "kind", "state", "burn", "worst", "bad/seen")
	for _, s := range sts {
		state := "ok"
		if s.Breached {
			state = "BREACH"
		}
		fmt.Fprintf(w, "  %-24s %-10s %8s %10.2f %10.2f %6d/%d\n",
			s.Name, s.Kind, state, s.Burn, s.WorstBurn, s.CumBad, s.CumSamples)
	}
}
