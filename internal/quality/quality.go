// Package quality implements the distributed-clustering quality measures of
// Section 8 of the DBDC paper: the overall quality Q_DBDC (Definition 9) as
// the mean of a per-object quality, with the discrete object quality
// function P^I (Definition 10) and the continuous P^II (Definition 11).
//
// Note on the source text: the printed case tables of Definitions 10 and 11
// are garbled (duplicated zero cases). This implementation follows the
// semantics the prose states, which the experiments of Section 9 confirm:
// an object noise in both clusterings scores 1; noise in exactly one scores
// 0; an object clustered in both scores 1 under P^I iff the two clusters
// share at least qp objects, and |C_d ∩ C_c| / |C_d ∪ C_c| (the Jaccard
// coefficient of its two clusters) under P^II.
//
// The package additionally provides the adjusted Rand index, the standard
// external index the experiments report beside the paper's measures.
package quality

import (
	"fmt"

	"github.com/dbdc-go/dbdc/internal/cluster"
)

// pairStats precomputes, for a pair of labelings, everything the object
// quality functions need: per-object cluster sizes and the intersection
// size of the two clusters containing each object.
type pairStats struct {
	distr, central cluster.Labeling
	sizeDistr      map[cluster.ID]int
	sizeCentral    map[cluster.ID]int
	intersection   map[[2]cluster.ID]int
}

func newPairStats(distr, central cluster.Labeling) (*pairStats, error) {
	if len(distr) != len(central) {
		return nil, fmt.Errorf("quality: labelings disagree on size: %d vs %d",
			len(distr), len(central))
	}
	s := &pairStats{
		distr:        distr,
		central:      central,
		sizeDistr:    distr.Sizes(),
		sizeCentral:  central.Sizes(),
		intersection: make(map[[2]cluster.ID]int),
	}
	for i := range distr {
		if distr[i] >= 0 && central[i] >= 0 {
			s.intersection[[2]cluster.ID{distr[i], central[i]}]++
		}
	}
	return s, nil
}

// PI is the discrete object quality function P^I of Definition 10 applied
// to object i, with quality parameter qp.
func (s *pairStats) PI(i int, qp int) float64 {
	d, c := s.distr[i], s.central[i]
	switch {
	case d == cluster.Noise && c == cluster.Noise:
		return 1
	case d == cluster.Noise || c == cluster.Noise:
		return 0
	case s.intersection[[2]cluster.ID{d, c}] >= qp:
		return 1
	default:
		return 0
	}
}

// PII is the continuous object quality function P^II of Definition 11
// applied to object i: the Jaccard coefficient of the two clusters
// containing it.
func (s *pairStats) PII(i int) float64 {
	d, c := s.distr[i], s.central[i]
	switch {
	case d == cluster.Noise && c == cluster.Noise:
		return 1
	case d == cluster.Noise || c == cluster.Noise:
		return 0
	default:
		inter := s.intersection[[2]cluster.ID{d, c}]
		union := s.sizeDistr[d] + s.sizeCentral[c] - inter
		return float64(inter) / float64(union)
	}
}

// QDBDCPI computes Q_DBDC (Definition 9) under P^I with quality parameter
// qp. The paper recommends qp = MinPts: a cluster has at least MinPts
// members, so demanding fewer shared objects would weaken the criterion and
// demanding more would be unsatisfiable for minimum-size clusters.
func QDBDCPI(distr, central cluster.Labeling, qp int) (float64, error) {
	if qp < 1 {
		return 0, fmt.Errorf("quality: qp must be positive, got %d", qp)
	}
	s, err := newPairStats(distr, central)
	if err != nil {
		return 0, err
	}
	if len(distr) == 0 {
		return 1, nil
	}
	var sum float64
	for i := range distr {
		sum += s.PI(i, qp)
	}
	return sum / float64(len(distr)), nil
}

// QDBDCPII computes Q_DBDC under P^II.
func QDBDCPII(distr, central cluster.Labeling) (float64, error) {
	s, err := newPairStats(distr, central)
	if err != nil {
		return 0, err
	}
	if len(distr) == 0 {
		return 1, nil
	}
	var sum float64
	for i := range distr {
		sum += s.PII(i)
	}
	return sum / float64(len(distr)), nil
}
