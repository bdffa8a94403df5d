package quality

import (
	"math"
	"math/rand"
	"testing"

	"github.com/dbdc-go/dbdc/internal/cluster"
)

const eps = 1e-12

func TestSizeMismatchRejected(t *testing.T) {
	a := cluster.Labeling{0}
	b := cluster.Labeling{0, 1}
	if _, err := QDBDCPI(a, b, 1); err == nil {
		t.Error("PI accepted mismatch")
	}
	if _, err := QDBDCPII(a, b); err == nil {
		t.Error("PII accepted mismatch")
	}
	if _, err := AdjustedRandIndex(a, b); err == nil {
		t.Error("ARI accepted mismatch")
	}
}

func TestQPValidation(t *testing.T) {
	if _, err := QDBDCPI(cluster.Labeling{0}, cluster.Labeling{0}, 0); err == nil {
		t.Error("qp=0 accepted")
	}
}

// The identity requirement from Section 8: comparing a reference clustering
// to itself must yield quality 1 ("needless to say ... the quality should
// be 100%").
func TestIdentityIsPerfect(t *testing.T) {
	l := cluster.Labeling{0, 0, 0, 1, 1, 1, cluster.Noise, 2, 2, 2}
	if q, err := QDBDCPI(l, l, 3); err != nil || q != 1 {
		t.Errorf("PI identity = %v, %v", q, err)
	}
	if q, err := QDBDCPII(l, l); err != nil || q != 1 {
		t.Errorf("PII identity = %v, %v", q, err)
	}
	if q, err := AdjustedRandIndex(l, l); err != nil || math.Abs(q-1) > eps {
		t.Errorf("ARI identity = %v, %v", q, err)
	}
}

func TestEmptyLabelings(t *testing.T) {
	var l cluster.Labeling
	if q, _ := QDBDCPI(l, l, 1); q != 1 {
		t.Error("PI of empty != 1")
	}
	if q, _ := QDBDCPII(l, l); q != 1 {
		t.Error("PII of empty != 1")
	}
}

func TestNoiseCases(t *testing.T) {
	// Object 0: noise in both → 1. Object 1: noise in distributed only →
	// 0. Object 2: noise in central only → 0.
	distr := cluster.Labeling{cluster.Noise, cluster.Noise, 0, 0, 0}
	central := cluster.Labeling{cluster.Noise, 0, cluster.Noise, 0, 0}
	s, err := newPairStats(distr, central)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.PI(0, 1); got != 1 {
		t.Errorf("PI noise-both = %v", got)
	}
	if got := s.PI(1, 1); got != 0 {
		t.Errorf("PI noise-distr = %v", got)
	}
	if got := s.PI(2, 1); got != 0 {
		t.Errorf("PI noise-central = %v", got)
	}
	if got := s.PII(0); got != 1 {
		t.Errorf("PII noise-both = %v", got)
	}
	if got := s.PII(1); got != 0 {
		t.Errorf("PII noise-distr = %v", got)
	}
	if got := s.PII(2); got != 0 {
		t.Errorf("PII noise-central = %v", got)
	}
}

func TestPIQualityParameter(t *testing.T) {
	// Clusters intersect in exactly 2 objects.
	distr := cluster.Labeling{0, 0, 0, 1}
	central := cluster.Labeling{5, 5, 6, 6}
	// Object 0: C_d = {0,1,2}, C_c = {0,1}: intersection 2.
	if q, _ := QDBDCPI(distr, central, 2); q != 1 {
		// obj0: |{0,1,2}∩{0,1}|=2 ≥2 →1; obj1: same →1; obj2: C_c={2,3}
		// |{0,1,2}∩{2,3}|=1 <2 →0; obj3: C_d={3} ∩ C_c={2,3} =1 <2 →0.
		// Mean = 0.5, not 1 — assert the exact value below instead.
		t.Logf("qp=2: %v", q)
	}
	q2, err := QDBDCPI(distr, central, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(q2-0.5) > eps {
		t.Errorf("PI(qp=2) = %v, want 0.5", q2)
	}
	q1, err := QDBDCPI(distr, central, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(q1-1.0) > eps {
		t.Errorf("PI(qp=1) = %v, want 1 (every pair intersects)", q1)
	}
	q3, err := QDBDCPI(distr, central, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(q3-0.0) > eps {
		t.Errorf("PI(qp=3) = %v, want 0", q3)
	}
}

func TestPIIJaccard(t *testing.T) {
	// C_d = {0,1,2}, C_c = {0,1}: Jaccard = 2/3.
	distr := cluster.Labeling{0, 0, 0}
	central := cluster.Labeling{5, 5, 6}
	s, err := newPairStats(distr, central)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.PII(0); math.Abs(got-2.0/3) > eps {
		t.Errorf("PII = %v, want 2/3", got)
	}
	// Object 2: C_d = {0,1,2}, C_c = {2}: Jaccard = 1/3.
	if got := s.PII(2); math.Abs(got-1.0/3) > eps {
		t.Errorf("PII = %v, want 1/3", got)
	}
}

// The paper's motivating example for P^II: a split cluster scores lower
// under P^II than under P^I, which only checks the qp threshold.
func TestPIIMoreSensitiveThanPI(t *testing.T) {
	// Central: one cluster of 100. Distributed: split into two halves.
	n := 100
	distr := make(cluster.Labeling, n)
	central := make(cluster.Labeling, n)
	for i := 0; i < n; i++ {
		central[i] = 0
		distr[i] = cluster.ID(i / 50)
	}
	pi, err := QDBDCPI(distr, central, 5)
	if err != nil {
		t.Fatal(err)
	}
	pii, err := QDBDCPII(distr, central)
	if err != nil {
		t.Fatal(err)
	}
	if pi != 1 {
		t.Errorf("PI = %v, want 1 (each half shares ≥5 with the central cluster)", pi)
	}
	if math.Abs(pii-0.5) > eps {
		t.Errorf("PII = %v, want 0.5 (Jaccard of half vs whole)", pii)
	}
}

// Property: both measures stay in [0,1], are exactly 1 on identical
// labelings, and P^II never exceeds P^I with qp=1 (Jaccard ≤ 1 whenever the
// object is clustered in both).
func TestBoundsOnRandomLabelings(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(60)
		a := make(cluster.Labeling, n)
		b := make(cluster.Labeling, n)
		for i := 0; i < n; i++ {
			if rng.Float64() < 0.2 {
				a[i] = cluster.Noise
			} else {
				a[i] = cluster.ID(rng.Intn(4))
			}
			if rng.Float64() < 0.2 {
				b[i] = cluster.Noise
			} else {
				b[i] = cluster.ID(rng.Intn(4))
			}
		}
		pi, err := QDBDCPI(a, b, 1+rng.Intn(3))
		if err != nil {
			t.Fatal(err)
		}
		pii, err := QDBDCPII(a, b)
		if err != nil {
			t.Fatal(err)
		}
		pi1, err := QDBDCPI(a, b, 1)
		if err != nil {
			t.Fatal(err)
		}
		for name, v := range map[string]float64{"PI": pi, "PII": pii} {
			if v < 0 || v > 1 {
				t.Fatalf("%s = %v out of [0,1]", name, v)
			}
		}
		if pii > pi1+eps {
			t.Fatalf("PII %v exceeds PI(qp=1) %v", pii, pi1)
		}
	}
}

func TestARIChanceLevel(t *testing.T) {
	// Random independent labelings: ARI should hover near 0, far below 1.
	rng := rand.New(rand.NewSource(2))
	n := 500
	a := make(cluster.Labeling, n)
	b := make(cluster.Labeling, n)
	for i := 0; i < n; i++ {
		a[i] = cluster.ID(rng.Intn(5))
		b[i] = cluster.ID(rng.Intn(5))
	}
	got, err := AdjustedRandIndex(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got) > 0.05 {
		t.Errorf("ARI of independent labelings = %v, want ≈0", got)
	}
}

func TestARIPermutationInvariant(t *testing.T) {
	a := cluster.Labeling{0, 0, 1, 1, 2, 2}
	b := cluster.Labeling{5, 5, 9, 9, 7, 7} // same partition, renamed
	got, err := AdjustedRandIndex(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > eps {
		t.Errorf("ARI of renamed partition = %v, want 1", got)
	}
}
