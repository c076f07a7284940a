package mpi

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain fails the package when goroutines that the module's code
// started are still alive after every test has run: each run must end
// the goroutines of its rank bodies, crashed, deadlocked and panicking
// ones included. The check counts only goroutines created by the
// module, so the testing and fuzzing machinery's own do not trip it.
func TestMain(m *testing.M) {
	code := m.Run()
	if left := leaked(); code == 0 && len(left) > 0 {
		fmt.Fprintf(os.Stderr, "%d goroutines outlived the tests:\n\n%s\n", len(left), strings.Join(left, "\n\n"))
		code = 1
	}
	os.Exit(code)
}

// leaked gives exiting goroutines up to a second to finish and returns
// the stacks of the module's goroutines still alive then.
func leaked() []string {
	var left []string
	for range 100 {
		buf := make([]byte, 1<<20)
		left = left[:0]
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "\ncreated by repro/") {
				left = append(left, g)
			}
		}
		if len(left) == 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	return left
}
