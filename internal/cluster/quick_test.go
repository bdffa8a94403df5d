package cluster

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randomLabeling is a quick.Generator producing arbitrary labelings with a
// mix of clusters and noise.
type randomLabeling Labeling

func (randomLabeling) Generate(rng *rand.Rand, size int) reflect.Value {
	n := rng.Intn(size + 1)
	l := make(randomLabeling, n)
	for i := range l {
		switch rng.Intn(4) {
		case 0:
			l[i] = Noise
		default:
			l[i] = ID(rng.Intn(6) * 7) // sparse unordered ids
		}
	}
	return reflect.ValueOf(l)
}

func TestQuickCanonicalizeIdempotent(t *testing.T) {
	f := func(rl randomLabeling) bool {
		l := Labeling(rl)
		c := l.Canonicalize()
		return reflect.DeepEqual(c, c.Canonicalize())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickCanonicalizePreservesStructure(t *testing.T) {
	f := func(rl randomLabeling) bool {
		l := Labeling(rl)
		c := l.Canonicalize()
		if l.NumClusters() != c.NumClusters() || l.NumNoise() != c.NumNoise() {
			return false
		}
		// Same-cluster relations are preserved exactly.
		for i := range l {
			for j := range l {
				if (l[i] == l[j]) != (c[i] == c[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestQuickEquivalentToIsEquivalence(t *testing.T) {
	// Reflexivity and symmetry on random pairs.
	f := func(a, b randomLabeling) bool {
		la, lb := Labeling(a), Labeling(b)
		if !la.EquivalentTo(la) || !lb.EquivalentTo(lb) {
			return false
		}
		return la.EquivalentTo(lb) == lb.EquivalentTo(la)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
