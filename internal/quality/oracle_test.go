package quality

import (
	"math"
	"math/rand"
	"testing"

	"github.com/dbdc-go/dbdc/internal/cluster"
)

// mapOracle is Q_DBDC the way the pair statistics used to count it: cluster
// sizes and intersections in maps keyed by the labelings' own ids, summed
// per object in index order. It returns Q under P^I with qp and under P^II.
func mapOracle(distr, central cluster.Labeling, qp int) (pi, pii float64) {
	if len(distr) == 0 {
		return 1, 1
	}
	sizeD, sizeC := make(map[cluster.ID]int), make(map[cluster.ID]int)
	inter := make(map[[2]cluster.ID]int)
	for i := range distr {
		sizeD[distr[i]]++
		sizeC[central[i]]++
		if distr[i] >= 0 && central[i] >= 0 {
			inter[[2]cluster.ID{distr[i], central[i]}]++
		}
	}
	for i := range distr {
		d, c := distr[i], central[i]
		switch {
		case d == cluster.Noise && c == cluster.Noise:
			pi++
			pii++
		case d == cluster.Noise || c == cluster.Noise:
		default:
			n := inter[[2]cluster.ID{d, c}]
			if n >= qp {
				pi++
			}
			pii += float64(n) / float64(sizeD[d]+sizeC[c]-n)
		}
	}
	return pi / float64(len(distr)), pii / float64(len(distr))
}

// The dense pair statistics return the map oracle's bits, on sparse large
// ids (past the slice remap's bound and within it), many small clusters, and
// all-noise and empty sides.
func TestPairStatsMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	sparse := []cluster.ID{0, 3, 97, 1 << 20, 1<<31 - 1}
	draw := func(n, k int, noise float64, ids []cluster.ID) cluster.Labeling {
		l := make(cluster.Labeling, n)
		for i := range l {
			switch {
			case rng.Float64() < noise:
				l[i] = cluster.Noise
			case ids != nil:
				l[i] = ids[rng.Intn(len(ids))]
			default:
				l[i] = cluster.ID(rng.Intn(k))
			}
		}
		return l
	}
	type pair struct {
		name           string
		distr, central cluster.Labeling
	}
	var pairs []pair
	for r := 0; r < 40; r++ {
		n := 1 + rng.Intn(300)
		pairs = append(pairs,
			pair{"dense", draw(n, 1+rng.Intn(6), 0.2, nil), draw(n, 1+rng.Intn(6), 0.2, nil)},
			pair{"sparse-ids", draw(n, 0, 0.1, sparse), draw(n, 1+rng.Intn(4), 0.3, nil)},
			pair{"window-ids", draw(n, 4*n+64, 0.1, nil), draw(n, 4*n+63, 0.1, nil)},
			pair{"small-clusters", draw(n, n, 0, nil), draw(n, n/2+1, 0.5, nil)},
			pair{"all-noise", draw(n, 1, 1, nil), draw(n, 3, 0.4, nil)},
			pair{"both-noise", draw(n, 1, 1, nil), draw(n, 1, 1, nil)},
		)
	}
	pairs = append(pairs, pair{"empty", cluster.Labeling{}, cluster.Labeling{}})
	for _, p := range pairs {
		for _, sides := range [][2]cluster.Labeling{{p.distr, p.central}, {p.central, p.distr}} {
			for _, qp := range []int{1, 3} {
				wantPI, wantPII := mapOracle(sides[0], sides[1], qp)
				pi, err := QDBDCPI(sides[0], sides[1], qp)
				if err != nil {
					t.Fatal(err)
				}
				pii, err := QDBDCPII(sides[0], sides[1])
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(pi) != math.Float64bits(wantPI) || math.Float64bits(pii) != math.Float64bits(wantPII) {
					t.Fatalf("%s (n=%d, qp=%d): P^I %v P^II %v, map oracle %v %v", p.name, len(sides[0]), qp, pi, pii, wantPI, wantPII)
				}
			}
		}
	}
}
