//go:build dbdc_scalar_kernels

package geom

// Scalar-kernel build: every stride runs the plain reference loop — the
// single noinline distSqScalar body, shared by the one-row, batch and
// verify entry points, so batched and per-row results are bit-identical
// here exactly as in the unrolled build. This is the differential twin of
// kernels_dispatch.go: `go test -tags dbdc_scalar_kernels ./...` must
// produce byte-identical clusterings, models and frames, because on finite
// data the unrolled kernels compute the operand-order-independent same
// result (NaN payloads are the sole cross-build latitude, and NaN never
// survives a threshold or max comparison).

// kernelDispatchName identifies the active kernel build in the host stamp
// of a benchmark run; "scalar" runs are never silently compared against
// unrolled ones.
const kernelDispatchName = "scalar"

// batchKernel applies the shared scalar kernel row by row.
func batchKernel(buf []float64, stride int, q []float64, ids []int, out []float64) {
	out = out[:len(ids)]
	for k, id := range ids {
		base := id * stride
		out[k] = distSqScalar(q, buf[base:base+len(q)])
	}
}

// verifyKernel applies the shared scalar kernel row by row, appending the
// ids whose squared distance passes the threshold.
func verifyKernel(buf []float64, stride int, q []float64, ids []int, eps2 float64, out []int) []int {
	for _, id := range ids {
		base := id * stride
		if distSqScalar(q, buf[base:base+len(q)]) <= eps2 {
			out = append(out, id)
		}
	}
	return out
}
