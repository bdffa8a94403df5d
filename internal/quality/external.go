package quality

import (
	"fmt"

	"github.com/dbdc-go/dbdc/internal/cluster"
)

// The external index below treats noise as one additional class, the
// common convention when comparing density-based clusterings that may
// label different objects as noise.

func classOf(id cluster.ID) cluster.ID {
	if id < 0 {
		return cluster.Noise
	}
	return id
}

// pairCounts returns the sufficient statistics of the pair-counting
// indices: sum of C(n_ij,2), sum of C(a_i,2), sum of C(b_j,2) and C(n,2).
func pairCounts(a, b cluster.Labeling) (sumIJ, sumA, sumB, totalPairs float64) {
	table := make(map[[2]cluster.ID]int)
	rowSum := make(map[cluster.ID]int)
	colSum := make(map[cluster.ID]int)
	for i := range a {
		ka, kb := classOf(a[i]), classOf(b[i])
		table[[2]cluster.ID{ka, kb}]++
		rowSum[ka]++
		colSum[kb]++
	}
	choose2 := func(n int) float64 { return float64(n) * float64(n-1) / 2 }
	for _, v := range table {
		sumIJ += choose2(v)
	}
	for _, v := range rowSum {
		sumA += choose2(v)
	}
	for _, v := range colSum {
		sumB += choose2(v)
	}
	totalPairs = choose2(len(a))
	return
}

// AdjustedRandIndex computes the chance-corrected Rand index (Hubert &
// Arabie). 1 means identical partitions; near 0 means agreement expected by
// chance.
func AdjustedRandIndex(a, b cluster.Labeling) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("quality: labelings disagree on size")
	}
	if len(a) < 2 {
		return 1, nil
	}
	sumIJ, sumA, sumB, total := pairCounts(a, b)
	expected := sumA * sumB / total
	maxIndex := (sumA + sumB) / 2
	if maxIndex == expected {
		return 1, nil // both partitions trivial (all singletons or all one)
	}
	return (sumIJ - expected) / (maxIndex - expected), nil
}
