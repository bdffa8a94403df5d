package quality

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/dbdc-go/dbdc/internal/cluster"
)

// labelPair generates two random labelings of the same objects.
type labelPair struct {
	a, b cluster.Labeling
}

func (labelPair) Generate(rng *rand.Rand, size int) reflect.Value {
	n := rng.Intn(size + 1)
	mk := func() cluster.Labeling {
		l := make(cluster.Labeling, n)
		for i := range l {
			if rng.Float64() < 0.25 {
				l[i] = cluster.Noise
			} else {
				l[i] = cluster.ID(rng.Intn(5))
			}
		}
		return l
	}
	return reflect.ValueOf(labelPair{a: mk(), b: mk()})
}

// Property: all quality measures stay within [0, 1] on arbitrary label
// pairs, and both Q_DBDC variants score 1 on identical labelings under
// qp = 1.
func TestQuickQualityBounds(t *testing.T) {
	f := func(p labelPair) bool {
		pi, err := QDBDCPI(p.a, p.b, 1)
		if err != nil || pi < 0 || pi > 1 {
			return false
		}
		pii, err := QDBDCPII(p.a, p.b)
		if err != nil || pii < 0 || pii > 1 {
			return false
		}
		idPI, err := QDBDCPI(p.a, p.a, 1)
		if err != nil || idPI != 1 {
			return false
		}
		idPII, err := QDBDCPII(p.a, p.a)
		return err == nil && idPII == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: P^II is invariant under renaming of cluster ids on either
// side.
func TestQuickPIIRenamingInvariant(t *testing.T) {
	f := func(p labelPair) bool {
		orig, err := QDBDCPII(p.a, p.b)
		if err != nil {
			return false
		}
		renamed, err := QDBDCPII(p.a.Canonicalize(), p.b.Canonicalize())
		if err != nil {
			return false
		}
		return math.Abs(orig-renamed) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Q_DBDC under P^I is monotonically non-increasing in the
// quality parameter qp.
func TestQuickPIMonotoneInQP(t *testing.T) {
	f := func(p labelPair) bool {
		prev := math.Inf(1)
		for qp := 1; qp <= 5; qp++ {
			v, err := QDBDCPI(p.a, p.b, qp)
			if err != nil {
				return false
			}
			if v > prev+1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: the external index is symmetric in its arguments and bounded
// above by 1.
func TestQuickExternalIndices(t *testing.T) {
	f := func(p labelPair) bool {
		ari1, err := AdjustedRandIndex(p.a, p.b)
		if err != nil || ari1 > 1+1e-12 {
			return false
		}
		ari2, err := AdjustedRandIndex(p.b, p.a)
		return err == nil && math.Abs(ari1-ari2) <= 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
