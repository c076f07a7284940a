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

const trace = "../../internal/obs/testdata/trace.golden.json"

// TestGolden: the committed sample trace, as the text report and as JSON.
func TestGolden(t *testing.T) {
	golden(t, "text", trace)
	golden(t, "json", "-json", trace)
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{nil, {trace, trace}} {
		var out, errb bytes.Buffer
		if code := driver.ExitCode("tracetool", run(args, &out, &errb), &errb); code != 2 ||
			out.Len() != 0 || !strings.Contains(errb.String(), "usage: tracetool") {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want a usage error", args, code, out.String(), errb.String())
		}
	}
}

// golden runs the tool in-process and compares its stdout, stderr and
// exit code with testdata/<name>.golden (UPDATE_GOLDEN=1 rewrites it).
func golden(t *testing.T, name string, args ...string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := driver.ExitCode("tracetool", run(args, &out, &errb), &errb)
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
