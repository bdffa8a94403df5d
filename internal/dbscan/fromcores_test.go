package dbscan

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/index"
)

// perturbed is another DBSCAN labelling of run's clustering: the cluster ids
// permuted, and every border object moved to the cluster of a core neighbour
// drawn at random. moved counts the border objects that left their cluster.
func perturbed(rng *rand.Rand, idx index.Index, run *Result) (out cluster.Labeling, moved int) {
	perm := rng.Perm(run.NumClusters())
	out = make(cluster.Labeling, len(run.Labels))
	for i, id := range run.Labels {
		out[i] = id
		if id < 0 {
			continue
		}
		if run.Core[i] {
			out[i] = cluster.ID(perm[id])
			continue
		}
		var choices []cluster.ID
		for _, q := range idx.RangeAppend(idx.Point(i), run.Params.Eps, nil) {
			if run.Core[q] {
				choices = append(choices, cluster.ID(perm[run.Labels[q]]))
			}
		}
		out[i] = choices[rng.Intn(len(choices))]
		if out[i] != cluster.ID(perm[id]) {
			moved++
		}
	}
	return out, moved
}

// FromCores over the core flags of Run and Run's own labelling, or any other
// DBSCAN labelling of the same clustering, is Run's Result, over every index
// kind.
func TestFromCoresMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	blob, _ := twoBlobs(rng, 150)
	datasets := []struct {
		name   string
		pts    []geom.Point
		params Params
	}{
		{"blobs", blob, Params{Eps: 0.5, MinPts: 5}},
		{"uniform", uniformPoints(rng, 600, 10), Params{Eps: 0.35, MinPts: 4}},
		{"sparse", uniformPoints(rng, 200, 100), Params{Eps: 1, MinPts: 3}},
		{"bridged", uniformPoints(rng, 400, 6), Params{Eps: 0.3, MinPts: 3}},
		{"empty", nil, Params{Eps: 0.5, MinPts: 3}},
	}
	moved := 0
	for _, ds := range datasets {
		for _, kind := range index.Kinds() {
			t.Run(fmt.Sprintf("%s/%s", ds.name, kind), func(t *testing.T) {
				idx, err := index.Build(kind, ds.pts, geom.Euclidean{}, ds.params.Eps)
				if err != nil {
					t.Fatal(err)
				}
				want, err := Run(idx, ds.params, Options{CollectSpecificCores: true})
				if err != nil {
					t.Fatal(err)
				}
				other, m := perturbed(rng, idx, want)
				moved += m
				for _, labels := range []cluster.Labeling{want.Labels, other} {
					got, err := FromCores(idx, ds.params, slices.Clone(want.Core), labels)
					if err != nil {
						t.Fatal(err)
					}
					got.RangeQueries = want.RangeQueries
					if !reflect.DeepEqual(got, want) {
						t.Fatal(describeDifference(got, want))
					}
				}
			})
		}
	}
	if moved == 0 {
		t.Fatal("no border object changed cluster: the border pass went untested")
	}
}

// A labelling that is not DBSCAN's — a border object out of reach of every
// core, a core object labelled noise — is an error, not a panic.
func TestFromCoresRejectsForeignLabelling(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	pts, _ := twoBlobs(rng, 100)
	idx := linearOf(pts)
	params := Params{Eps: 0.5, MinPts: 5}
	run, err := Run(idx, params, Options{CollectSpecificCores: true})
	if err != nil {
		t.Fatal(err)
	}
	noise, core := -1, -1
	for i := range run.Labels {
		switch {
		case run.Labels[i] == cluster.Noise:
			noise = i
		case run.Core[i]:
			core = i
		}
	}
	for name, c := range map[string]struct {
		object int
		label  cluster.ID
		want   string
	}{
		"unreachable border": {noise, 0, "has no core neighbour"},
		"core as noise":      {core, cluster.Noise, "labelled noise"},
	} {
		labels := run.Labels.Clone()
		labels[c.object] = c.label
		_, err := FromCores(idx, params, run.Core, labels)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: %v, want an error containing %q", name, err, c.want)
		}
	}
	if _, err := FromCores(idx, params, run.Core[1:], run.Labels); err == nil {
		t.Errorf("%d core flags for %d objects accepted", len(run.Core)-1, len(pts))
	}
}
