package geom

// This file holds the build-tag-independent part of the distance-kernel
// layer: the scalar reference kernel every other variant must match bit for
// bit, and the batched (one-query-to-many-rows) entry points of the Store.
// The per-build dispatch — which concrete kernel a given stride runs on —
// lives in kernels_dispatch.go (default build: width-unrolled variants) and
// kernels_scalar.go (`-tags dbdc_scalar_kernels`: the scalar loop for every
// stride, the differential twin CI pits the unrolled build against).
//
// The bit-identity contract, stated once:
//
//   - Within a build, every entry point — Euclidean.DistanceSq, the Store
//     one-row kernels, DistanceSqBatch, DistanceSqInterval — runs the same
//     shared noinline kernel body for a given stride, so batched and
//     one-at-a-time results are identical bits for ANY input, NaN payloads
//     and infinities included. FuzzStoreDistanceSq and FuzzDistanceSqBatch
//     enforce this on raw coordinate bits.
//   - Across kernel variants (unrolled vs scalar build), results are
//     identical bits for all non-NaN operands — the unrolled bodies perform
//     the same sequence of IEEE subtract/multiply/add operations and Go
//     never reassociates floating-point expressions. When two NaNs with
//     different payloads meet in the accumulator the backend's choice of
//     add-operand order picks the surviving payload per compiled body, so
//     NaN payloads may differ between separately compiled kernels; the
//     result is still some NaN, and a NaN distance can never alter
//     clustering (it fails every ≤ eps² test and never wins a max-fold).

// KernelDispatch names the active kernel build ("scalar" or the unrolled
// dispatch table). Every benchmark run is stamped with it so numbers from
// different kernel builds are never silently compared.
func KernelDispatch() string { return kernelDispatchName }

// distSqKernel is the one-row entry point of the active kernel: a batch of
// one through batchKernel, the single shared compiled body per stride. The
// id and output cells stay on the caller's stack (batchKernel does not
// retain its arguments), so a single distance costs one call and no heap
// traffic — and is bit-identical to the same row inside any larger batch,
// NaN payloads included, because it IS the same machine code.
func distSqKernel(a, b []float64) float64 {
	var ids [1]int
	var out [1]float64
	batchKernel(b, 0, a, ids[:], out[:])
	return out[0]
}

// distSqScalar is the plain squared-distance loop — the historical
// Euclidean.DistanceSq body and the reference every dispatched kernel is
// held to (bit-for-bit on non-NaN operands; NaN payloads are pinned within
// a build, not across separately compiled bodies — see kernels_dispatch.go).
// b must be at least as long as a (callers reslice; a longer b is
// truncated, a shorter one panics — the hoisted-check contract). noinline:
// in the dbdc_scalar_kernels build this is the one shared kernel body every
// entry point runs.
//
//go:noinline
func distSqScalar(a, b []float64) float64 {
	b = b[:len(a)]
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return sum
}

// DistanceSqBatch computes the squared Euclidean distance from the external
// query point q to every addressed row: out[k] = DistanceSqTo(ids[k], q),
// bit for bit. len(out) must be at least len(ids); the filled prefix
// out[:len(ids)] is returned. This is the amortized shape of candidate
// verification: the kernel is dispatched once per batch instead of once per
// point, the query coordinates stay in registers across rows, and the row
// loop is free of per-call slice-header setup.
//
// Like DistanceSqTo, a q longer than the stride panics; a shorter q
// compares the coordinate prefix. Row ids are validated only under
// -tags dbdc_debugchecks; out-of-range ids still panic via slice bounds.
func (s *Store) DistanceSqBatch(q Point, ids []int, out []float64) []float64 {
	if debugChecks {
		for _, id := range ids {
			s.mustIndex(id)
		}
		if s.Len() > 0 {
			mustSameDim(q, s.Point(0))
		}
	}
	out = out[:len(ids)]
	if len(q) > s.dim {
		panic("geom: batch query point longer than store stride")
	}
	batchKernel(s.buf, s.dim, q, ids, out)
	return out
}

// DistanceSqInterval is DistanceSqBatch over the consecutive row interval
// [lo, lo+len(out)): out[k] = DistanceSqTo(lo+k, q). It is the linear-scan
// shape — no id gather, the rows stream in layout order.
func (s *Store) DistanceSqInterval(q Point, lo int, out []float64) []float64 {
	if debugChecks {
		s.mustIndex(lo)
		if len(out) > 0 {
			s.mustIndex(lo + len(out) - 1)
		}
		if s.Len() > 0 {
			mustSameDim(q, s.Point(0))
		}
	}
	if len(q) > s.dim {
		panic("geom: interval query point longer than store stride")
	}
	intervalKernel(s.buf, s.dim, q, lo, out)
	return out
}

// VerifyRangeSq is the batched candidate-verification step shared by every
// index: it appends to out each id from cand whose squared distance to q is
// at most eps2, preserving cand order. The computation is fused — distance
// and threshold in one kernel pass, no distance block written and re-read —
// and the membership decisions are identical to testing DistanceSqTo(id, q)
// ≤ eps2 one id at a time: the fused body computes the same IEEE operation
// chain (identical bits for all non-NaN operands), and a NaN distance fails
// the test in every kernel body.
//
// The three Verify* entry points may use out[len(out):len(out)+len(cand)]
// as scratch (the default build stores every candidate there before it knows
// the verdict), growing out first when it is shorter: a caller must not keep
// live data in the spare capacity of the slice it hands in. Elements below
// len(out) are never touched, nothing at or beyond len(out)+len(cand) is
// written, and cand may be filtered in place (out = cand[:0]).
func (s *Store) VerifyRangeSq(q Point, cand []int, eps2 float64, out []int) []int {
	if len(cand) == 0 {
		return out
	}
	if debugChecks {
		for _, id := range cand {
			s.mustIndex(id)
		}
		if s.Len() > 0 {
			mustSameDim(q, s.Point(0))
		}
	}
	if len(q) > s.dim {
		panic("geom: verify query point longer than store stride")
	}
	return verifyKernel(s.buf, s.dim, q, cand, eps2, out)
}

// VerifyRangeSq2 is VerifyRangeSq with the two query coordinates passed as
// scalars — the 2-d hot path of the tree traversals, which then never
// materialise a query slice header. It funnels into the same fused kernel
// body, so its decisions are bit-for-bit those of VerifyRangeSq.
func (s *Store) VerifyRangeSq2(q0, q1 float64, cand []int, eps2 float64, out []int) []int {
	if len(cand) == 0 {
		return out
	}
	q := [2]float64{q0, q1}
	if debugChecks {
		for _, id := range cand {
			s.mustIndex(id)
		}
		if s.Len() > 0 {
			mustSameDim(q[:], s.Point(0))
		}
	}
	if 2 > s.dim {
		panic("geom: verify query point longer than store stride")
	}
	return verifyKernel(s.buf, s.dim, q[:], cand, eps2, out)
}

// VerifyIntervalSq is VerifyRangeSq over the consecutive row interval
// [lo, hi): ids within squared distance eps2 of q are appended to out in
// ascending row order. This is the exhaustive linear-scan shape — the rows
// stream in layout order, no id list is materialised.
func (s *Store) VerifyIntervalSq(q Point, lo, hi int, eps2 float64, out []int) []int {
	if hi <= lo {
		return out
	}
	if debugChecks {
		s.mustIndex(lo)
		s.mustIndex(hi - 1)
		if s.Len() > 0 {
			mustSameDim(q, s.Point(0))
		}
	}
	if len(q) > s.dim {
		panic("geom: verify query point longer than store stride")
	}
	return verifyIntervalKernel(s.buf, s.dim, q, lo, hi, eps2, out)
}
