package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/obs"
	"repro/internal/obs/errtrack"
	recov "repro/internal/recover"
)

// replayStream reads a recorded JSONL event stream once: it feeds every
// event through a fresh error tracker and checks the stream's
// integrity. Every event carries a sequence number stamped at emit time
// and the driver closes the stream with a run_end marker, so a
// truncated, partially flushed or lossy copy of the log is detected
// rather than replayed as a shorter healthy run. The checks:
//   - no malformed lines, and no last line cut mid-record;
//   - sequence numbers contiguous from 1;
//   - the run_end marker present, last, and naming the final sequence
//     number;
//   - every resume names a previously committed checkpoint epoch (or
//     -1, a from-scratch respawn).
//
// It prints the stream's shape (event, run and per-kind counts) and one
// INTEGRITY: line per failed check, and returns the tracker's report
// and the failed checks.
func replayStream(w io.Writer, path string) (errtrack.Report, []string, error) {
	f, err := os.Open(path)
	if err != nil {
		return errtrack.Report{}, nil, err
	}
	defer f.Close()

	trk := errtrack.New()
	counts := map[string]int64{}
	var integrity []string
	var total, bad int64
	var tMax float64
	// seqs is set once any event carries a sequence number (streams
	// recorded before sequencing replay without the sequence checks);
	// expect is the next sequence number a gapless stream holds.
	var seqs bool
	var expect, gaps int64 = 1, 0
	var firstGap string
	var last obs.Event
	// A resume naming an epoch that was never committed means the run
	// resumed from a cut the store could not have held.
	committed := map[int]bool{}
	var resumeBad int
	var firstResumeBad string
	rd := bufio.NewReaderSize(f, 1<<20)
	for {
		line, rerr := rd.ReadString('\n')
		if rerr != nil && rerr != io.EOF {
			return errtrack.Report{}, nil, rerr
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
				tMax = max(tMax, ev.T)
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
					switch epoch := int(ev.Value); ev.Label {
					case recov.LabelCommit:
						committed[epoch] = true
					case recov.LabelResume:
						if epoch >= 0 && !committed[epoch] {
							resumeBad++
							if firstResumeBad == "" {
								firstResumeBad = fmt.Sprintf("resume at t=%.3gs names epoch %d", ev.T, epoch)
							}
						}
					}
				}
				last = ev
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

	fmt.Fprintf(w, "replay %s: %d events, %d runs, virtual span %.3gs\n", path, total, counts[obs.EventRun], tMax)
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(w, "  %-16s %d\n", k, counts[k])
	}
	for _, msg := range integrity {
		fmt.Fprintf(w, "  INTEGRITY: %s\n", msg)
	}
	return trk.Snapshot(), integrity, nil
}
