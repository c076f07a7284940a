package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/cmd/internal/driver"
)

// The input is one chaos seed's event log: `chaos -seeds 1 -eventlog …
// -errtrack … -slo docs/slo.example.json`.
const events = "testdata/chaos-seed1.events.jsonl"

// TestGolden: the event stream replays clean on its own (exit 0) and,
// against the example SLOs, reproduces the run's fault-burst breaches
// (exit 1).
func TestGolden(t *testing.T) {
	golden(t, "replay", "-replay", events)
	golden(t, "replay-slo", "-replay", events, "-slo", "../../docs/slo.example.json")
}

func TestUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := driver.ExitCode("obswatch", run(nil, &out, &errb), &errb); code != 2 || out.Len() != 0 ||
		!strings.HasPrefix(errb.String(), "Usage of obswatch:\n") ||
		!strings.HasSuffix(errb.String(), "obswatch: -replay is required\n") {
		t.Errorf("no mode: exit %d, stdout %q, stderr %q; want the usage and exit 2", code, out.String(), errb.String())
	}
}

// golden runs the tool in-process and compares its stdout, stderr and
// exit code with testdata/<name>.golden (UPDATE_GOLDEN=1 rewrites it).
func golden(t *testing.T, name string, args ...string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := driver.ExitCode("obswatch", run(args, &out, &errb), &errb)
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
