package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/cmd/internal/driver"
)

// The golden cell: Table I.
func TestGolden(t *testing.T) {
	golden(t, "table1")
}

// TestErrtrackReport: -errtrack writes the bounds-only provenance report
// and confirms it after the table.
func TestErrtrackReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "e.json")
	var out, errb bytes.Buffer
	if err := run([]string{"-errtrack", path}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(path); err != nil || !bytes.Contains(data, []byte(`"table1"`)) {
		t.Errorf("report: %v\n%s", err, data)
	}
	if want := "# error-provenance report written: " + path + " (theoretical bounds only)\n"; !bytes.HasSuffix(out.Bytes(), []byte(want)) {
		t.Errorf("stdout does not end with %q:\n%s", want, out.String())
	}
}

// golden runs the driver in-process and compares its stdout, stderr and
// exit code with testdata/<name>.golden (UPDATE_GOLDEN=1 rewrites it).
func golden(t *testing.T, name string, args ...string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := driver.ExitCode("precisions", run(args, &out, &errb), &errb)
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
