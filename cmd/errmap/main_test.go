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

// TestGolden renders the error ledger of one chaos seed (`chaos -seeds 1`
// with -eventlog and -errtrack) from both sources; the verdict lines
// must agree, which is the live/replay parity errmap-demo checks.
func TestGolden(t *testing.T) {
	golden(t, "artifact", "-artifact", "testdata/chaos-seed1.errtrack.json")
	golden(t, "replay", "-replay", "../obswatch/testdata/chaos-seed1.events.jsonl")
}

func TestUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := driver.ExitCode("errmap", run(nil, &out, &errb), &errb); code != 2 || out.Len() != 0 ||
		!strings.HasPrefix(errb.String(), "Usage of errmap:\n") ||
		!strings.HasSuffix(errb.String(), "errmap: one of -replay, -artifact is required\n") {
		t.Errorf("no mode: exit %d, stdout %q, stderr %q; want the usage and exit 2", code, out.String(), errb.String())
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
