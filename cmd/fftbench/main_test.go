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

// The golden cells: Fig. 4 at toy scale with the -metrics report, the
// lossless ring and compressed two-sided columns the default configs do
// not run, a faulty run under the recovery runtime (stderr carries the
// recovery report), and an autotuned run.
func TestGolden(t *testing.T) {
	golden(t, "metrics", "-n", "32", "-sim", "64", "-gpus", "12,24", "-iters", "1", "-metrics")
	golden(t, "columns", "-n", "32", "-sim", "64", "-gpus", "12,24", "-iters", "1", "-configs", "osc,fp64-32-2s", "-metrics")
	golden(t, "recover", "-n", "32", "-sim", "64", "-gpus", "12", "-iters", "1", "-faults", "17", "-recover")
	golden(t, "autotune", "-n", "32", "-sim", "64", "-gpus", "12,24", "-iters", "1", "-autotune")
}

// TestHeaderSeparatesColumns: "fp64-32 GF/s" is 12 characters wide and a
// longer name is wider still; the header keeps a space between columns.
func TestHeaderSeparatesColumns(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-n", "16", "-sim", "16", "-gpus", "6", "-configs", "fp64-32,fp64-pencil"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	header := strings.Split(out.String(), "\n")[1]
	if want := "    GPUs fp64-32 GF/s fp64-pencil GF/s fp64-32 spd fp64-pencil spd"; header != want {
		t.Errorf("header %q, want %q", header, want)
	}
}

func TestUsageErrors(t *testing.T) {
	usage(t, "13 GPUs is not a positive multiple of 6", "-gpus", "12,13,x")
	usage(t, `bad GPU count "x"`, "-gpus", "12,x")
	usage(t, "-sim must be a multiple of -n", "-n", "32", "-sim", "65")
	usage(t, "-n must be >= 1 (got 0)", "-n", "0")
	usage(t, "-sim must be >= 0 (got -32)", "-n", "32", "-sim", "-32")
	usage(t, "-iters must be >= 1 (got 0)", "-n", "32", "-sim", "32", "-gpus", "12", "-iters", "0")
	usage(t, `unknown config "nope" in -configs (valid: fp64, fp32, fp64-32, fp64-16, fp64-bf16, fp64-32-2s, osc, fp64-pencil)`, "-configs", "fp64,nope")
}

// golden runs the driver in-process and compares its stdout, stderr and
// exit code with testdata/<name>.golden (UPDATE_GOLDEN=1 rewrites it).
func golden(t *testing.T, name string, args ...string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := driver.ExitCode("fftbench", run(args, &out, &errb), &errb)
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
	if code := driver.ExitCode("fftbench", run(args, &out, &errb), &errb); code != 2 {
		t.Errorf("%v: exit %d, want 2", args, code)
	}
	if out.Len() != 0 || !strings.Contains(errb.String(), want) {
		t.Errorf("%v: stdout %q, stderr %q; want empty stdout and %q on stderr", args, out.String(), errb.String(), want)
	}
	if files, _ := os.ReadDir(dir); len(files) != 0 {
		t.Errorf("%v: usage error left %d file(s) behind", args, len(files))
	}
}
