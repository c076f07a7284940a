package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/cmd/internal/driver"
	"repro/internal/obs/analyze"
)

const baseline = "../../BENCH_fft.json"

// TestGolden: the committed FFT baseline gates green against itself and
// red (exit 1) against a copy whose first row is 50% slower.
func TestGolden(t *testing.T) {
	golden(t, "self", "", baseline, baseline)

	a, err := analyze.LoadArtifact(baseline)
	if err != nil {
		t.Fatal(err)
	}
	a.Rows[0].Seconds *= 1.5
	dir := t.TempDir()
	slower := filepath.Join(dir, "slower.json")
	if err := a.WriteFile(slower); err != nil {
		t.Fatal(err)
	}
	golden(t, "perturbed", dir, baseline, slower)
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{nil, {baseline}, {"-threshold", "0.2", baseline, baseline, baseline}} {
		var out, errb bytes.Buffer
		if code := driver.ExitCode("benchdiff", run(args, &out, &errb), &errb); code != 2 ||
			out.Len() != 0 || !strings.Contains(errb.String(), "usage: benchdiff") {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want a usage error", args, code, out.String(), errb.String())
		}
	}
}

// golden runs the tool in-process and compares its stdout, stderr and
// exit code, with tmp (when set) spelled $TMP, against
// testdata/<name>.golden (UPDATE_GOLDEN=1 rewrites it).
func golden(t *testing.T, name, tmp string, args ...string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := driver.ExitCode("benchdiff", run(args, &out, &errb), &errb)
	got := fmt.Sprintf("%s--- stderr ---\n%s--- exit %d ---\n", &out, &errb, code)
	if tmp != "" {
		got = strings.ReplaceAll(got, tmp, "$TMP")
	}
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
