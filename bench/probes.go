package main

import (
	"time"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/dbdc"
	"github.com/dbdc-go/dbdc/internal/dbscan"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/index"
	"github.com/dbdc-go/dbdc/internal/model"
	"github.com/dbdc-go/dbdc/internal/quality"
)

// A probe calls one layer's public function directly, outside any lap, to
// price a layer the lap only reaches through another one (LocalStepStore
// builds the index and runs DBSCAN inside itself). Each probe is repeated
// and reported by the same fastest-tenth estimator as the laps. On the
// round workloads the inputs are a whole op's, so the numbers are per op;
// on stream-churn and classify-swap they are per call.

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timeProbe repeats fn as a probe span and returns the fastest-tenth time of
// one call in ms.
func timeProbe(tr *tracer, name string, reps int, fn func() error) (float64, error) {
	samples := make([]float64, reps)
	for r := range samples {
		var err error
		samples[r] = ms(tr.probe(name, func() { err = fn() }))
		if err != nil {
			return 0, err
		}
	}
	return fastMean(samples), nil
}

// centralQuality is the reference behind quality_p2_pct: P^II, in percent,
// of the labels against a central DBSCAN over the same points.
func centralQuality(st *geom.Store, params dbscan.Params, labels cluster.Labeling) (float64, error) {
	idx, err := index.BuildStore(index.KindRStar, st, geom.Euclidean{}, params.Eps)
	if err != nil {
		return 0, err
	}
	central, err := dbscan.Run(idx, params, dbscan.Options{})
	if err != nil {
		return 0, err
	}
	q, err := quality.QDBDCPII(labels, central.Labels)
	return 100 * q, err
}

// probeCluster prices index build and DBSCAN run over the given stores, the
// two layers under dbdc.LocalStepStore, summed over the stores.
func probeCluster(tr *tracer, stores []*geom.Store, cfg dbdc.Config, reps int, m metrics) error {
	builds, runs := make([]float64, reps), make([]float64, reps)
	queries := 0
	for r := 0; r < reps; r++ {
		queries = 0
		for _, st := range stores {
			var idx index.Index
			var res *dbscan.Result
			var err error
			builds[r] += ms(tr.probe("index.build", func() {
				idx, err = index.BuildStore(index.KindRStar, st, geom.Euclidean{}, cfg.Local.Eps)
			}))
			if err != nil {
				return err
			}
			runs[r] += ms(tr.probe("dbscan.run", func() {
				res, err = dbscan.Run(idx, cfg.Local, dbscan.Options{CollectSpecificCores: true})
			}))
			if err != nil {
				return err
			}
			queries += res.RangeQueries
		}
	}
	m["index.build_ms"] = fastMean(builds)
	m["dbscan.run_ms"] = fastMean(runs)
	m["dbscan.range_queries"] = float64(queries)
	return nil
}

// probeGlobal prices the server's global step over the given local models.
func probeGlobal(tr *tracer, locals []*model.LocalModel, cfg dbdc.Config, m metrics) error {
	var g *model.GlobalModel
	t, err := timeProbe(tr, "dbdc.global", 30, func() (err error) {
		g, err = dbdc.GlobalStep(locals, cfg)
		return err
	})
	if err != nil {
		return err
	}
	m["dbdc.global_ms"] = t
	m["dbdc.global_reps"] = float64(len(g.Reps))
	return nil
}

// codec is what probeCodecs needs of a model.
type codec interface {
	MarshalBinary() ([]byte, error)
	EncodedSize() int
}

// probeCodec prices one model's wire encoding: marshal and unmarshal in us,
// and the encoded size.
func probeCodec(tr *tracer, kind string, mdl codec, decode func([]byte) error) (enc, dec, size float64, err error) {
	const reps = 200
	var raw []byte
	if enc, err = timeProbe(tr, "model."+kind+"_marshal", reps, func() (err error) {
		raw, err = mdl.MarshalBinary()
		return err
	}); err != nil {
		return
	}
	dec, err = timeProbe(tr, "model."+kind+"_unmarshal", reps, func() error { return decode(raw) })
	return 1000 * enc, 1000 * dec, float64(mdl.EncodedSize()), err
}

// probeCodecs prices the wire encoding of the models an op ships. The four
// timings are per model, the local ones averaged over the local models.
func probeCodecs(tr *tracer, locals []*model.LocalModel, global *model.GlobalModel, m metrics) error {
	for _, l := range locals {
		enc, dec, size, err := probeCodec(tr, "local", l, func(raw []byte) error { return new(model.LocalModel).UnmarshalBinary(raw) })
		if err != nil {
			return err
		}
		k := float64(len(locals))
		m["model.local_marshal_us"] += enc / k
		m["model.local_unmarshal_us"] += dec / k
		m["model.local_bytes"] += size / k
	}
	enc, dec, size, err := probeCodec(tr, "global", global, func(raw []byte) error { return new(model.GlobalModel).UnmarshalBinary(raw) })
	m["model.global_marshal_us"], m["model.global_unmarshal_us"], m["model.global_bytes"] = enc, dec, size
	return err
}
