package dbdc

import (
	"fmt"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/quality"
)

// ClusteringChange quantifies how much a site's clustering drifted since
// the local model was last transmitted: 1 − Q_DBDC(P^II) between the two
// labelings. 0 means identical cluster structure, 1 complete turnover.
// Section 4 of the paper keys retransmission on the clustering changing
// "considerably"; this is the measurable version of that policy, used as
// ClusteringChange(prev, cur) > threshold.
//
// The labelings must describe the same objects (same length, same order);
// sites using incremental DBSCAN compare Labels() snapshots padded to the
// current length — see PadSnapshot.
func ClusteringChange(prev, cur cluster.Labeling) (float64, error) {
	q, err := quality.QDBDCPII(cur, prev)
	if err != nil {
		return 0, err
	}
	return 1 - q, nil
}

// PadSnapshot extends an older labeling snapshot to n objects, marking the
// objects that did not exist yet as noise — an object that appeared and
// joined a cluster counts as change, which is exactly what the
// retransmission policy wants. A snapshot of n objects already — a sliding
// window's steady state, its recycled slots keep the length — is returned as
// it is: the result may alias prev, which ClusteringChange never writes to.
func PadSnapshot(prev cluster.Labeling, n int) (cluster.Labeling, error) {
	if len(prev) > n {
		return nil, fmt.Errorf("dbdc: snapshot of %d objects longer than current %d (deletions keep their slots)", len(prev), n)
	}
	if len(prev) == n {
		return prev, nil
	}
	out := make(cluster.Labeling, n)
	copy(out, prev)
	for i := len(prev); i < n; i++ {
		out[i] = cluster.Noise
	}
	return out, nil
}
