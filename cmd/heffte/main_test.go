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

// The golden cells: one compressed transform with the -metrics report,
// and one over the Bruck backend.
func TestGolden(t *testing.T) {
	golden(t, "metrics", "-n", "32", "-gpus", "12", "-iters", "1", "-metrics")
	golden(t, "bruck", "-n", "32", "-gpus", "12", "-iters", "1", "-metrics", "-backend", "bruck")
}

func TestUsageErrors(t *testing.T) {
	usage(t, "13 GPUs is not a positive multiple of 6", "-gpus", "13")
	usage(t, `unknown backend "nope" in -backend (valid: alltoallv, bruck, osc, osc+compression, alltoallv+compression)`, "-backend", "nope")
	usage(t, `unknown method "nope" in -method (valid: `, "-method", "nope")
	usage(t, "bad trim width", "-method", "trim:99")
	usage(t, "-sim must be a multiple of -n", "-n", "32", "-sim", "65")
	usage(t, "-n must be >= 1 (got 0)", "-n", "0", "-gpus", "12")
	usage(t, "-iters must be >= 1 (got 0)", "-n", "8", "-gpus", "12", "-iters", "0")
	usage(t, "-sim must be >= 0 (got -8)", "-sim", "-8")
	usage(t, "-etol must be >= 0 (got -1e-06)", "-etol", "-1e-6")
	usage(t, "the compressed backend requires the FP64 pipeline", "-fp32")
	usage(t, "the compressed backend requires the FP64 pipeline", "-fp32", "-backend", "alltoallv+compression")
}

// TestEveryBackendRuns: -backend accepts every row of core.Backends,
// the two-sided compressed one included, and reports it on a tiny grid.
func TestEveryBackendRuns(t *testing.T) {
	for _, args := range [][]string{
		{"-backend", "bruck"},
		{"-backend", "alltoallv+compression", "-method", "fp16"},
	} {
		var out, errb bytes.Buffer
		args = append([]string{"-n", "8", "-gpus", "12", "-iters", "1"}, args...)
		if code := driver.ExitCode("heffte", run(args, &out, &errb), &errb); code != 0 {
			t.Fatalf("%v: exit %d, stderr %q", args, code, errb.String())
		}
		if want := "backend        : " + args[7] + "\n"; !strings.Contains(out.String(), want) {
			t.Errorf("%v: stdout lacks %q:\n%s", args, want, out.String())
		}
	}
}

// golden runs the driver in-process and compares its stdout, stderr and
// exit code with testdata/<name>.golden (UPDATE_GOLDEN=1 rewrites it).
func golden(t *testing.T, name string, args ...string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := driver.ExitCode("heffte", run(args, &out, &errb), &errb)
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

// usage asserts that args are rejected as a usage error: exit 2, a
// diagnostic naming want on stderr, nothing on stdout, and neither the
// -eventlog nor any other file created.
func usage(t *testing.T, want string, args ...string) {
	t.Helper()
	dir := t.TempDir()
	var out, errb bytes.Buffer
	args = append([]string{"-eventlog", filepath.Join(dir, "events.jsonl")}, args...)
	if code := driver.ExitCode("heffte", run(args, &out, &errb), &errb); code != 2 {
		t.Errorf("%v: exit %d, want 2", args, code)
	}
	if out.Len() != 0 || !strings.Contains(errb.String(), want) {
		t.Errorf("%v: stdout %q, stderr %q; want empty stdout and %q on stderr", args, out.String(), errb.String(), want)
	}
	if files, _ := os.ReadDir(dir); len(files) != 0 {
		t.Errorf("%v: usage error left %d file(s) behind", args, len(files))
	}
}
