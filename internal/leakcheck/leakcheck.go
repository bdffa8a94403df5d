// Package leakcheck is the goroutine-leak check of the packages that run
// servers: their TestMain hands over to Main, so a test that leaves a
// server, a round or a handler running fails the package.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Main runs the tests, then polls for up to 2 s for every goroutine with a
// frame in this module to exit, and fails naming the ones that did not.
func Main(m *testing.M) {
	code := m.Run()
	var left []string
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		buf := make([]byte, 1<<20)
		left = left[:0]
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "github.com/dbdc-go/dbdc/") && !strings.Contains(g, "leakcheck.Main(") {
				left = append(left, g)
			}
		}
		if len(left) == 0 || time.Now().After(deadline) {
			break
		}
	}
	if len(left) > 0 {
		fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines of this module outlived the tests:\n\n%s\n", len(left), strings.Join(left, "\n\n"))
		code = max(code, 1)
	}
	os.Exit(code)
}
