package benchio

import (
	"runtime"
	"testing"
)

func TestStampHost(t *testing.T) {
	rep := &Report{}
	StampHost(rep)
	if rep.NumCPU < 1 || rep.GoMaxProcs < 1 {
		t.Fatalf("StampHost left parallelism metadata empty: %+v", rep)
	}
	if rep.GoOS != runtime.GOOS || rep.GoArch != runtime.GOARCH {
		t.Fatalf("StampHost platform = %s/%s, want %s/%s", rep.GoOS, rep.GoArch, runtime.GOOS, runtime.GOARCH)
	}
	if rep.KernelDispatch == "" {
		t.Fatalf("StampHost left the kernel build empty: %+v", rep)
	}
}
