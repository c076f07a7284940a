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

// The golden cell: Fig. 3 at toy scale, linear vs one-sided vs
// compressed one-sided, with the -metrics report.
func TestGolden(t *testing.T) {
	golden(t, "metrics", "-msg", "65536", "-iters", "1", "-gpus", "12,24", "-algos", "linear,osc,osc-comp", "-metrics")
}

func TestUsageErrors(t *testing.T) {
	usage(t, "13 GPUs is not a positive multiple of 6", "-gpus", "12,13")
	usage(t, `bad GPU count "x"`, "-gpus", "x")
	usage(t, "-msg must be >= 1 (got -1)", "-gpus", "12", "-msg", "-1")
	usage(t, "-iters must be >= 1 (got 0)", "-iters", "0")
	usage(t, `unknown algorithm "nope" in -algos (valid: `, "-algos", "linear,nope")
}

// golden runs the driver in-process and compares its stdout, stderr and
// exit code with testdata/<name>.golden (UPDATE_GOLDEN=1 rewrites it).
func golden(t *testing.T, name string, args ...string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := driver.ExitCode("alltoallbench", run(args, &out, &errb), &errb)
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
	if code := driver.ExitCode("alltoallbench", run(args, &out, &errb), &errb); code != 2 {
		t.Errorf("%v: exit %d, want 2", args, code)
	}
	if out.Len() != 0 || !strings.Contains(errb.String(), want) {
		t.Errorf("%v: stdout %q, stderr %q; want empty stdout and %q on stderr", args, out.String(), errb.String(), want)
	}
	if files, _ := os.ReadDir(dir); len(files) != 0 {
		t.Errorf("%v: usage error left %d file(s) behind", args, len(files))
	}
}
