package classify

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestMain fails the package when its tests leave goroutines behind: once
// every test has run, the count must settle back to where it started
// within a few seconds — the check bench/'s workload smoke runs around its
// workloads. A fuzzing run is exempt: the fuzz engine keeps a signal
// handler of its own.
func TestMain(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 && flag.Lookup("test.fuzz").Value.String() == "" {
		if n, dump := settledGoroutines(before); n > before {
			fmt.Fprintf(os.Stderr, "%d goroutine(s) before the tests, %d after:\n%s", before, n, dump)
			code = 1
		}
	}
	os.Exit(code)
}

// settledGoroutines waits up to three seconds for the goroutine count to
// fall to atMost, then returns the count and every goroutine's stack.
func settledGoroutines(atMost int) (int, string) {
	for deadline := time.Now().Add(3 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if n := runtime.NumGoroutine(); n <= atMost || time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			return n, string(buf[:runtime.Stack(buf, true)])
		}
	}
}
