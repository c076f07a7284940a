package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/cmd/internal/driver"
	"repro/internal/mpi"
	"repro/internal/netsim"
	recov "repro/internal/recover"
)

// The golden cell: four seeds over the default workloads, every cell
// printed.
func TestGolden(t *testing.T) {
	golden(t, "seeds4", "-seeds", "4", "-v")
}

func TestUsageErrors(t *testing.T) {
	usage(t, "-seeds must be >= 1 (got 0)", "-seeds", "0")
	usage(t, `unknown workload "nope" in -workloads (valid: linear, pairwise, osc, osc-comp, osc-comp16, recover-osc, recover-comp)`, "-workloads", "osc,nope")
}

// TestStepDetectsCorruption: step reports a delivery that departs from
// the pattern, once per corrupt source.
func TestStepDetectsCorruption(t *testing.T) {
	rep := &report{}
	mpi.Run(netsim.Summit(1), func(c *mpi.Comm) {
		step(c, rep, "x", 4, pbyte, func(send [][]byte) [][]byte {
			got := c.AlltoallvSparse(send, nil, nil)
			if c.Rank() == 2 {
				got[3][1] ^= 0xff
				got[3][2] ^= 0xff
			}
			return got
		})()
	})
	want := fmt.Sprintf("rank 2 from 3 element 1 corrupt (%v != %v)", pbyte(3, 2, 1)^0xff, pbyte(3, 2, 1))
	if len(rep.mismatch) != 1 || rep.mismatch[0] != want {
		t.Errorf("mismatches %q, want [%q]", rep.mismatch, want)
	}
}

// TestClassify: the one classifier over every outcome of the contract,
// including the violations the guard itself finds.
func TestClassify(t *testing.T) {
	cl := cell{timeout: 20 * time.Millisecond}
	release := make(chan struct{})
	defer close(release)
	clean := func() *report { return &report{} }
	ue := &recov.UnrecoverableError{Attempts: 2, LastEpoch: -1}
	for _, tc := range []struct {
		name   string
		run    func() result
		want   outcome
		detail string
	}{
		{"clean", func() result { return result{rep: clean()} }, outClean, ""},
		{"degraded", func() result { return result{rep: &report{repairs: 2, fallback: 1}} }, outDegraded, "2 repairs, 1 fallback links"},
		{"recovered", func() result {
			return result{rep: clean(), out: recov.Outcome{Recoveries: make([]recov.Recovery, 1), MTTRSeconds: 0.25}}
		}, outRecovered, "1 rollback(s), MTTR 0.25s, 0 repairs, 0 fallback links"},
		{"corrupt", func() result { return result{rep: &report{mismatch: []string{"a", "b"}}} }, outBad, "silent corruption: a; b"},
		{"gave up", func() result { return result{err: ue} }, outError, firstLine(ue.Error())},
		{"stray error", func() result { return result{err: fmt.Errorf("boom")} }, outBad, "unattributed failure: boom"},
		{"harness panic", func() result { panic("boom") }, outBad, "unattributed failure: harness panic: boom"},
		{"hang", func() result { <-release; return result{} }, outBad, "wall-clock hang (> 20ms)"},
	} {
		if got, detail := cl.classify(cl.guarded(tc.run)); got != tc.want || detail != tc.detail {
			t.Errorf("%s: %v %q, want %v %q", tc.name, got, detail, tc.want, tc.detail)
		}
	}
}

// golden runs the driver in-process and compares its stdout, stderr and
// exit code with testdata/<name>.golden (UPDATE_GOLDEN=1 rewrites it).
func golden(t *testing.T, name string, args ...string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := driver.ExitCode("chaos", run(args, &out, &errb), &errb)
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
	if code := driver.ExitCode("chaos", run(args, &out, &errb), &errb); code != 2 {
		t.Errorf("%v: exit %d, want 2", args, code)
	}
	if out.Len() != 0 || !strings.Contains(errb.String(), want) {
		t.Errorf("%v: stdout %q, stderr %q; want empty stdout and %q on stderr", args, out.String(), errb.String(), want)
	}
	if files, _ := os.ReadDir(dir); len(files) != 0 {
		t.Errorf("%v: usage error left %d file(s) behind", args, len(files))
	}
}
