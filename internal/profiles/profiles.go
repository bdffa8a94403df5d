// Package profiles is the -cpuprofile/-memprofile plumbing of
// cmd/dbdc-loadgen: start captures at process start, finalize them at exit,
// hand the files to `go tool pprof`.
// The workflow — which command to profile for which question — is
// documented in docs/performance.md.
package profiles

import (
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins the requested pprof captures. Either path may be empty to
// skip that profile. The returned stop function finalizes the captures —
// stops the CPU profile and snapshots the heap after a settling GC — and
// must be called exactly once, before process exit.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	return func() error {
		var err error
		if cpuFile != nil {
			pprof.StopCPUProfile()
			err = cpuFile.Close()
		}
		if memPath != "" {
			f, ferr := os.Create(memPath)
			if ferr != nil {
				if err == nil {
					err = ferr
				}
				return err
			}
			runtime.GC() // settle the heap so the snapshot reflects live data
			if werr := pprof.WriteHeapProfile(f); werr != nil && err == nil {
				err = werr
			}
			if cerr := f.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
		return err
	}, nil
}
