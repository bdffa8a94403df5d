//go:build !dbdc_scalar_kernels

package geom

import "slices"

// Default-build kernel dispatch: strides 2, 3, 4 and 8 (the common point
// dimensionalities — every paper dataset is 2-d; 3/4/8 cover the synthetic
// high-dimensional sweeps) run fully unrolled loop bodies with the query
// coordinates hoisted into locals, every other stride runs a width-4
// unrolled loop with a scalar tail. All variants keep the scalar kernel's
// exact operation sequence — one accumulator, ascending coordinate order —
// so they compute the same IEEE operation chain as distSqScalar (Go never
// reassociates floating-point arithmetic; unrolling removes loop overhead,
// not ordering). Constant trip counts and hoisted bounds checks give the
// backend the auto-vectorizable shape, and the batch loop's iterations are
// independent, so gathered-row cache misses overlap instead of serializing
// behind a per-point call. An asm/GOAMD64 backend would swap this file and
// keep the contract.
//
// batchKernel is deliberately the ONLY compiled instance of each stride's
// computation: the one-row entry points funnel through it as a batch of one
// (see distSqKernel in kernels.go). That sharing — not source-level
// equivalence — is what pins NaN payloads: the backend may commute the
// operands of a float add per compiled body (resultInArg0 ops are
// commutable during regalloc), and x86 ADDSD resolves a NaN-vs-NaN tie in
// favor of the destination operand, so two inlined copies of the same
// source can legally return different NaN payloads. One body per stride
// removes that freedom. For non-NaN operands (infinities, subnormals,
// signed zeros included) the result is operand-order-independent, so the
// dispatch is also bit-identical to the separately compiled distSqScalar
// everywhere it matters; NaN payloads are the documented exception, and they
// cannot influence clustering — a NaN distance fails every ≤ eps² test and
// never wins a max-fold.
//
// Build with -tags dbdc_scalar_kernels to replace this dispatch with the
// plain scalar loop for every stride — the differential twin: any output
// difference between the two builds on finite data is a kernel bug by
// definition.

// kernelDispatchName identifies the active kernel build in the host stamp
// of a benchmark run (benchio.StampHost): runs of different dispatches are
// not silently comparable.
const kernelDispatchName = "unrolled[2,3,4,8]+w4"

// batchKernel fills out[k] with the squared distance between q and row
// ids[k] of the flat buffer (stride-indexed): the single shared compiled
// body of the active build's distance computation. The dispatch is hoisted
// out of the row loop and the common strides keep q's coordinates in
// locals, so the loop is pure gather/subtract/multiply/accumulate work.
func batchKernel(buf []float64, stride int, q []float64, ids []int, out []float64) {
	out = out[:len(ids)]
	switch len(q) {
	case 2:
		q0, q1 := q[0], q[1]
		for k, id := range ids {
			base := id * stride
			b := buf[base : base+2]
			var sum float64
			d0 := q0 - b[0]
			sum += d0 * d0
			d1 := q1 - b[1]
			sum += d1 * d1
			out[k] = sum
		}
	case 3:
		q0, q1, q2 := q[0], q[1], q[2]
		for k, id := range ids {
			base := id * stride
			b := buf[base : base+3]
			var sum float64
			d0 := q0 - b[0]
			sum += d0 * d0
			d1 := q1 - b[1]
			sum += d1 * d1
			d2 := q2 - b[2]
			sum += d2 * d2
			out[k] = sum
		}
	case 4:
		q0, q1, q2, q3 := q[0], q[1], q[2], q[3]
		for k, id := range ids {
			base := id * stride
			b := buf[base : base+4]
			var sum float64
			d0 := q0 - b[0]
			sum += d0 * d0
			d1 := q1 - b[1]
			sum += d1 * d1
			d2 := q2 - b[2]
			sum += d2 * d2
			d3 := q3 - b[3]
			sum += d3 * d3
			out[k] = sum
		}
	case 8:
		for k, id := range ids {
			base := id * stride
			b := buf[base : base+8]
			_ = q[7]
			var sum float64
			d0 := q[0] - b[0]
			sum += d0 * d0
			d1 := q[1] - b[1]
			sum += d1 * d1
			d2 := q[2] - b[2]
			sum += d2 * d2
			d3 := q[3] - b[3]
			sum += d3 * d3
			d4 := q[4] - b[4]
			sum += d4 * d4
			d5 := q[5] - b[5]
			sum += d5 * d5
			d6 := q[6] - b[6]
			sum += d6 * d6
			d7 := q[7] - b[7]
			sum += d7 * d7
			out[k] = sum
		}
	default:
		for k, id := range ids {
			base := id * stride
			b := buf[base : base+len(q)]
			var sum float64
			i := 0
			for ; i+4 <= len(q); i += 4 {
				d0 := q[i] - b[i]
				sum += d0 * d0
				d1 := q[i+1] - b[i+1]
				sum += d1 * d1
				d2 := q[i+2] - b[i+2]
				sum += d2 * d2
				d3 := q[i+3] - b[i+3]
				sum += d3 * d3
			}
			for ; i < len(q); i++ {
				d := q[i] - b[i]
				sum += d * d
			}
			out[k] = sum
		}
	}
}

// leq is a <= b as 0 or 1 (NaN on either side: 0). It inlines, and the
// compiler turns the branch into a flag-to-register move (SETAE on amd64),
// which is what lets the verifiers below advance their write cursor without
// a jump that depends on the data.
func leq(a, b float64) int {
	if a <= b {
		return 1
	}
	return 0
}

// verifyKernel is the fused threshold form of batchKernel: it appends to out
// each id whose squared distance to q is at most eps2, preserving ids order,
// without materialising the distances (no scratch write + re-read per row).
// It is a separate compiled body; its ≤ decisions nonetheless match
// batchKernel's exactly — for non-NaN operands the computed sums are
// bit-identical (same IEEE operation chain, no reassociation), and a NaN sum
// fails the test under every body.
//
// The compaction has no data-dependent branch: roughly every second leaf
// candidate of an ε-query passes, which no predictor learns, so out is given
// room for len(ids) more entries once per call, every id is stored at the
// write cursor and the cursor advances by the comparison result (a SETAE and
// an ADDQ on amd64). Only out[len(out):len(out)+len(ids)] is written, and
// the cursor never passes the read position, so filtering in place
// (out = ids[:0]) is safe.
func verifyKernel(buf []float64, stride int, q []float64, ids []int, eps2 float64, out []int) []int {
	k := len(out)
	out = slices.Grow(out, len(ids))[:k+len(ids)]
	switch len(q) {
	case 2:
		q0, q1 := q[0], q[1]
		for _, id := range ids {
			base := id * stride
			b := buf[base : base+2]
			var sum float64
			d0 := q0 - b[0]
			sum += d0 * d0
			d1 := q1 - b[1]
			sum += d1 * d1
			out[k] = id
			k += leq(sum, eps2)
		}
	case 3:
		q0, q1, q2 := q[0], q[1], q[2]
		for _, id := range ids {
			base := id * stride
			b := buf[base : base+3]
			var sum float64
			d0 := q0 - b[0]
			sum += d0 * d0
			d1 := q1 - b[1]
			sum += d1 * d1
			d2 := q2 - b[2]
			sum += d2 * d2
			out[k] = id
			k += leq(sum, eps2)
		}
	case 4:
		q0, q1, q2, q3 := q[0], q[1], q[2], q[3]
		for _, id := range ids {
			base := id * stride
			b := buf[base : base+4]
			var sum float64
			d0 := q0 - b[0]
			sum += d0 * d0
			d1 := q1 - b[1]
			sum += d1 * d1
			d2 := q2 - b[2]
			sum += d2 * d2
			d3 := q3 - b[3]
			sum += d3 * d3
			out[k] = id
			k += leq(sum, eps2)
		}
	default:
		for _, id := range ids {
			base := id * stride
			b := buf[base : base+len(q)]
			var sum float64
			i := 0
			for ; i+4 <= len(q); i += 4 {
				d0 := q[i] - b[i]
				sum += d0 * d0
				d1 := q[i+1] - b[i+1]
				sum += d1 * d1
				d2 := q[i+2] - b[i+2]
				sum += d2 * d2
				d3 := q[i+3] - b[i+3]
				sum += d3 * d3
			}
			for ; i < len(q); i++ {
				d := q[i] - b[i]
				sum += d * d
			}
			out[k] = id
			k += leq(sum, eps2)
		}
	}
	return out[:k]
}
