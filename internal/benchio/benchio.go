// Package benchio stamps a benchmark's output with the host it ran on, so
// numbers from different hosts or kernel builds are never silently compared.
package benchio

import (
	"runtime"

	"github.com/dbdc-go/dbdc/internal/geom"
)

// Report is the host a benchmark ran on.
type Report struct {
	GoOS, GoArch string
	// NumCPU and GoMaxProcs describe the host's parallelism: a single-CPU
	// host cannot show wall-clock speedup from intra-site workers.
	NumCPU, GoMaxProcs int
	// KernelDispatch names the distance-kernel build the run measured
	// (geom.KernelDispatch(): the unrolled dispatch table or "scalar");
	// runs of different kernel builds are not comparable.
	KernelDispatch string
}

// StampHost fills the report from the running process: platform, core
// count, GOMAXPROCS and the distance-kernel build.
func StampHost(rep *Report) {
	rep.GoOS = runtime.GOOS
	rep.GoArch = runtime.GOARCH
	rep.NumCPU = runtime.NumCPU()
	rep.GoMaxProcs = runtime.GOMAXPROCS(0)
	rep.KernelDispatch = geom.KernelDispatch()
}
