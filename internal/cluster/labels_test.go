package cluster

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestNewLabeling(t *testing.T) {
	l := NewLabeling(3)
	if len(l) != 3 {
		t.Fatalf("len = %d", len(l))
	}
	for i, c := range l {
		if c != Unclassified {
			t.Errorf("object %d: label %d, want Unclassified", i, c)
		}
	}
}

func TestIsNoise(t *testing.T) {
	if !Noise.IsNoise() {
		t.Error("Noise.IsNoise() = false")
	}
	if ID(0).IsNoise() {
		t.Error("ID(0).IsNoise() = true")
	}
}

func TestCounts(t *testing.T) {
	l := Labeling{0, 0, 1, Noise, 2, 1, Noise}
	if got := l.NumClusters(); got != 3 {
		t.Errorf("NumClusters = %d, want 3", got)
	}
	if got := l.NumNoise(); got != 2 {
		t.Errorf("NumNoise = %d, want 2", got)
	}
	if got := l.ClusterIDs(); !reflect.DeepEqual(got, []ID{0, 1, 2}) {
		t.Errorf("ClusterIDs = %v", got)
	}
}

func TestMembersAndClusters(t *testing.T) {
	l := Labeling{0, 1, 0, Noise, 1}
	if got := l.Members(0); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Errorf("Members(0) = %v", got)
	}
	if got := l.Members(Noise); !reflect.DeepEqual(got, []int{3}) {
		t.Errorf("Members(Noise) = %v", got)
	}
	if got := l.Members(1); !reflect.DeepEqual(got, []int{1, 4}) {
		t.Errorf("Members(1) = %v", got)
	}
}

func TestCloneIndependent(t *testing.T) {
	l := Labeling{0, 1}
	m := l.Clone()
	m[0] = 5
	if l[0] != 0 {
		t.Fatal("Clone shares storage")
	}
}

func TestCanonicalize(t *testing.T) {
	l := Labeling{7, 7, 3, Noise, 3, 9}
	got := l.Canonicalize()
	want := Labeling{0, 0, 1, Noise, 1, 2}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Canonicalize = %v, want %v", got, want)
	}
}

func TestEquivalentTo(t *testing.T) {
	a := Labeling{0, 0, 1, Noise}
	b := Labeling{5, 5, 2, Noise}
	c := Labeling{5, 2, 5, Noise}
	if !a.EquivalentTo(b) {
		t.Error("a should be equivalent to b")
	}
	if a.EquivalentTo(c) {
		t.Error("a should not be equivalent to c")
	}
	if a.EquivalentTo(Labeling{0, 0, 1}) {
		t.Error("different lengths must not be equivalent")
	}
}

func TestValidate(t *testing.T) {
	if err := (Labeling{0, Noise, 2}).Validate(); err != nil {
		t.Errorf("valid labeling rejected: %v", err)
	}
	if err := (Labeling{0, Unclassified}).Validate(); err == nil {
		t.Error("unclassified object not rejected")
	}
}

// Property: canonicalization is idempotent and preserves the partition.
func TestCanonicalizeProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 100; iter++ {
		n := 1 + rng.Intn(50)
		l := make(Labeling, n)
		for i := range l {
			if rng.Float64() < 0.2 {
				l[i] = Noise
			} else {
				l[i] = ID(rng.Intn(8) * 3) // sparse, unordered ids
			}
		}
		c := l.Canonicalize()
		if !reflect.DeepEqual(c, c.Canonicalize()) {
			t.Fatal("Canonicalize not idempotent")
		}
		if !l.EquivalentTo(c) {
			t.Fatal("Canonicalize changed the partition")
		}
		if l.NumClusters() != c.NumClusters() || l.NumNoise() != c.NumNoise() {
			t.Fatal("Canonicalize changed cluster/noise counts")
		}
	}
}
