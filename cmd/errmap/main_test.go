package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/cmd/internal/driver"
	"repro/internal/obs"
	recov "repro/internal/recover"
)

// The inputs are one chaos seed's telemetry: `chaos -seeds 1 -eventlog
// testdata/chaos-seed1.events.jsonl -errtrack testdata/chaos-seed1.errtrack.json`.
const (
	events   = "testdata/chaos-seed1.events.jsonl"
	artifact = "testdata/chaos-seed1.errtrack.json"
)

// TestGolden renders the error ledger of one chaos seed from both
// sources; the verdict lines must agree, which is the live/replay parity
// errmap-demo checks. The replay also prints the stream's shape and
// replays clean.
func TestGolden(t *testing.T) {
	t.Run("artifact", func(t *testing.T) { golden(t, "artifact", "-artifact", artifact) })
	t.Run("replay", func(t *testing.T) { golden(t, "replay", "-replay", events) })
}

func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"no mode", nil, "errmap: one of -replay, -artifact is required\n"},
		{"both modes", []string{"-replay", events, "-artifact", artifact}, "errmap: -replay and -artifact are exclusive\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := driver.ExitCode("errmap", run(tc.args, &out, &errb), &errb); code != 2 || out.Len() != 0 ||
				!strings.HasPrefix(errb.String(), "Usage of errmap:\n") || !strings.HasSuffix(errb.String(), tc.want) {
				t.Errorf("exit %d, stdout %q, stderr %q; want the usage, %q and exit 2", code, out.String(), errb.String(), tc.want)
			}
		})
	}
}

// TestReplayIntegrity damages the recorded stream one way per case and
// checks that -replay names the damage on its INTEGRITY: line and exits 1.
func TestReplayIntegrity(t *testing.T) {
	data, err := os.ReadFile(events)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	lines = lines[:len(lines)-1] // the empty string after the final newline
	n := len(lines)
	// recovery rewrites line i as a recovery transition, keeping its
	// sequence number so no other check fires.
	recovery := func(i int, label string, epoch int) string {
		var ev obs.Event
		if err := json.Unmarshal([]byte(lines[i]), &ev); err != nil {
			t.Fatal(err)
		}
		ev.Kind, ev.Label, ev.Value = obs.EventRecovery, label, float64(epoch)
		b, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		return string(b) + "\n"
	}
	for _, tc := range []struct {
		name  string
		lines []string
		want  string
	}{
		{"cut last line", append(lines[:n-1:n-1], lines[n-1][:20]),
			"last line has no trailing newline (write was cut mid-record)"},
		{"dropped middle line", append(lines[:100:100], lines[101:]...),
			"1 sequence gaps (first: event 102 follows 100) — events were lost"},
		{"missing run_end", lines[:n-1],
			"stream ends without a run_end marker — the run was cut before Close"},
		{"wrong run_end", append(lines[:n-1:n-1], strings.Replace(lines[n-1], fmt.Sprintf(`"value":%d`, n), `"value":7`, 1)),
			fmt.Sprintf("run_end marker claims 7 events but the stream ends at %d", n)},
		{"malformed line", append(append(lines[:100:100], "not json\n"), lines[100:]...),
			"1 malformed lines"},
		{"resume without commit", append(append(lines[:100:100], recovery(100, recov.LabelCommit, 1), recovery(101, recov.LabelResume, 2)), lines[102:]...),
			"1 resume(s) without a preceding committed checkpoint (first: resume at t="},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "events.jsonl")
			if err := os.WriteFile(path, []byte(strings.Join(tc.lines, "")), 0o644); err != nil {
				t.Fatal(err)
			}
			var out, errb bytes.Buffer
			code := driver.ExitCode("errmap", run([]string{"-replay", path}, &out, &errb), &errb)
			if code != 1 || !strings.Contains(out.String(), "\n  INTEGRITY: "+tc.want) ||
				!strings.HasPrefix(errb.String(), "errmap: stream integrity: ") {
				t.Errorf("exit %d, stderr %q; want exit 1 and the INTEGRITY line %q in stdout:\n%s", code, errb.String(), tc.want, out.String())
			}
		})
	}
}

// golden runs the tool in-process and compares its stdout, stderr and
// exit code with testdata/<name>.golden (UPDATE_GOLDEN=1 rewrites it).
func golden(t *testing.T, name string, args ...string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := driver.ExitCode("errmap", run(args, &out, &errb), &errb)
	got := fmt.Sprintf("%s--- stderr ---\n%s--- exit %d ---\n", &out, &errb, code)
	path := filepath.Join("testdata", name+".golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s:\n%s", path, got)
	}
}
