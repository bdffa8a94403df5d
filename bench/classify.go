package main

import (
	"fmt"
	"io"
	"time"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/data"
	"github.com/dbdc-go/dbdc/internal/dbdc"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/model"
	"github.com/dbdc-go/dbdc/internal/serve"
	"github.com/dbdc-go/dbdc/internal/transport"
)

const (
	classifyBatch = 256
	// A lap is four stretches of 100 requests, each followed by a publish
	// of the other of two models, so that every lap classifies the same
	// batches against the same models and ends on the model it started
	// from. Four stretches make the lap ~60 ms.
	requestsPerSwap = 100
	swapsPerLap     = 4
	numModels       = 2
)

// classifySwap is the read side: one closed-loop client classifying batches
// over loopback while the harness hot-swaps the served model.
type classifySwap struct {
	p      params
	cfg    dbdc.Config
	genDur time.Duration

	points  []geom.Point // round-wire's points for this seed
	batches [][]geom.Point
	locals  []*model.LocalModel
	models  [numModels]*model.GlobalModel
	// expected[k][b] is batch b relabelled against models[k]: the
	// harness's reference, filled on first use.
	expected [numModels][][]cluster.ID

	reg       *serve.Registry
	srv       *serve.Server
	serveDone chan error
	client    *serve.Client
	// live maps a published version to the index of its model.
	live    map[uint64]int
	current int

	reqBytes, replyBytes int64
	errors               int
	firstLabels          cluster.Labeling
}

func newClassifySwap(p params) *classifySwap {
	return &classifySwap{p: p, live: map[uint64]int{}}
}

func (w *classifySwap) shape() (int, float64) { return requestsPerSwap * swapsPerLap, classifyBatch }

func (w *classifySwap) setup() error {
	// Three noisy data sets make two rounds that share a site: the models
	// of (seed, seed+1) — round-wire's round — and of (seed+1, seed+2).
	genStart := time.Now()
	sets := []data.Dataset{data.DatasetB(w.p.seed), data.DatasetB(w.p.seed + 1), data.DatasetB(w.p.seed + 2)}
	w.genDur = time.Since(genStart)
	w.cfg = dbdc.Config{Local: sets[0].Params, Sequential: true}
	for i, ds := range sets {
		o, err := dbdc.LocalStepStore(fmt.Sprintf("site-%d", i), ds.Store, w.cfg)
		if err != nil {
			return err
		}
		w.locals = append(w.locals, o.Model)
	}
	for k := range w.models {
		g, err := dbdc.GlobalStep(w.locals[k:k+2], w.cfg)
		if err != nil {
			return err
		}
		w.models[k] = g
	}
	w.points = append(append([]geom.Point(nil), sets[0].Points...), sets[1].Points...)
	for b := 0; b < requestsPerSwap; b++ {
		batch := make([]geom.Point, classifyBatch)
		for i := range batch {
			batch[i] = w.points[(b*classifyBatch+i)%len(w.points)]
		}
		w.batches = append(w.batches, batch)
	}
	n, err := transport.WriteFrame(io.Discard, transport.MsgClassifyBatch, transport.EncodePoints(w.batches[0]))
	if err != nil {
		return err
	}
	w.reqBytes = int64(n)
	n, err = transport.WriteFrame(io.Discard, transport.MsgClassifyReply, serve.EncodeReply(0, make([]cluster.ID, classifyBatch)))
	if err != nil {
		return err
	}
	w.replyBytes = int64(n)

	w.reg = serve.NewRegistry("")
	if err := w.publish(nil, 0); err != nil {
		return err
	}
	w.srv, err = serve.NewServer("127.0.0.1:0", serve.ServerConfig{Registry: w.reg, Timeout: ioTimeout})
	if err != nil {
		return err
	}
	w.serveDone = make(chan error, 1)
	go func() { w.serveDone <- w.srv.Serve() }()
	w.client, err = serve.Dial(w.srv.Addr(), ioTimeout)
	if err != nil {
		return err
	}
	_, err = w.lap(nil)
	return err
}

func (w *classifySwap) close() error {
	if w.client != nil {
		w.client.Close()
	}
	if w.srv == nil {
		return nil
	}
	err := w.srv.Close()
	<-w.serveDone
	return err
}

func (w *classifySwap) publish(tr *tracer, k int) error {
	sp := tr.begin("serve.publish")
	snap, err := w.reg.Publish(w.models[k])
	tr.end(sp)
	if err != nil {
		return err
	}
	w.live[snap.Version] = k
	w.current = k
	return nil
}

type classifyReply struct {
	labels  []cluster.ID
	version uint64
}

func (w *classifySwap) lap(tr *tracer) (lapOut, error) {
	var out lapOut
	replies := make([]classifyReply, 0, requestsPerSwap*swapsPerLap)
	root := tr.beginLap()
	start := time.Now()
	// One segment per stretch: 100 requests and the publish that ends it.
	for stretch := 0; stretch < swapsPerLap; stretch++ {
		segStart := time.Now()
		for _, batch := range w.batches {
			sp := tr.begin("serve.request")
			labels, version, err := w.client.ClassifyBatch(batch)
			tr.end(sp)
			if err != nil {
				tr.end(root)
				w.errors++
				return out, err
			}
			replies = append(replies, classifyReply{labels, version})
		}
		if err := w.publish(tr, (w.current+1)%numModels); err != nil {
			tr.end(root)
			return out, err
		}
		out.segs = append(out.segs, time.Since(segStart))
	}
	out.dur = time.Since(start)
	tr.end(root)
	out.up = int64(len(replies)) * w.reqBytes
	out.down = int64(len(replies)) * w.replyBytes

	// Untimed: every reply must equal relabelling against the model
	// version it is stamped with, and versions never go back.
	if err := w.fillExpected(); err != nil {
		return out, err
	}
	all := make(cluster.Labeling, 0, len(replies)*classifyBatch)
	var last uint64
	for i, r := range replies {
		if r.version < last {
			return out, fmt.Errorf("reply %d is stamped version %d after version %d", i, r.version, last)
		}
		last = r.version
		k, ok := w.live[r.version]
		if !ok {
			return out, fmt.Errorf("reply %d is stamped version %d, which was never published", i, r.version)
		}
		want := w.expected[k][i%requestsPerSwap]
		for j := range want {
			if r.labels[j] != want[j] {
				return out, fmt.Errorf("reply %d label %d is %d, relabelling against version %d gives %d", i, j, r.labels[j], r.version, want[j])
			}
		}
		all = append(all, r.labels...)
	}
	// Versions grow without bound; only the live ones need a mapping.
	for v := range w.live {
		if v+numModels < last {
			delete(w.live, v)
		}
	}
	if w.firstLabels == nil {
		w.firstLabels = all[:len(w.points)]
	}
	out.hash = hashLabels(all)
	return out, nil
}

func (w *classifySwap) fillExpected() error {
	if w.expected[0] != nil {
		return nil
	}
	for k, g := range w.models {
		for _, batch := range w.batches {
			labels, err := dbdc.Relabel(batch, g)
			if err != nil {
				return err
			}
			w.expected[k] = append(w.expected[k], labels)
		}
	}
	return nil
}

// reference scores the labels served for round-wire's points under the
// first model against a central DBSCAN over those points.
func (w *classifySwap) reference(lapOut) (float64, error) {
	st, err := geom.FromPoints(w.points)
	if err != nil {
		return 0, err
	}
	return centralQuality(st, w.cfg.Local, w.firstLabels)
}

func (w *classifySwap) probes(tr *tracer, m metrics) error {
	m["data.generate_ms"] = ms(w.genDur)
	st, err := geom.FromPoints(w.points[:len(w.points)/2])
	if err != nil {
		return err
	}
	if err := probeCluster(tr, []*geom.Store{st}, w.cfg, 30, m); err != nil {
		return err
	}
	var local *dbdc.LocalOutcome
	if m["dbdc.local_ms"], err = timeProbe(tr, "dbdc.local", 30, func() (err error) {
		local, err = dbdc.LocalStepStore("site-0", st, w.cfg)
		return err
	}); err != nil {
		return err
	}
	m["dbdc.condense_ms"] = ms(local.Timings.Condense)
	if err := probeGlobal(tr, w.locals[:2], w.cfg, m); err != nil {
		return err
	}
	if err := probeCodecs(tr, w.locals[:2], w.models[0], m); err != nil {
		return err
	}
	if m["dbdc.relabel_ms"], err = timeProbe(tr, "dbdc.relabel", 30, func() error {
		_, err := dbdc.Relabel(w.points, w.models[0])
		return err
	}); err != nil {
		return err
	}

	// The classifier without the wire: the same batches, in process.
	cls := w.reg.Current().Classifier
	labels := make([]cluster.ID, classifyBatch)
	sweep, err := timeProbe(tr, "serve.classify_inproc", 30, func() error {
		for _, batch := range w.batches {
			if err := cls.ClassifyBatch(batch, labels); err != nil {
				return err
			}
		}
		return nil
	})
	m["serve.classify_inproc_us_per_point"] = 1000 * sweep / float64(len(w.batches)*classifyBatch)
	return err
}

func (w *classifySwap) layers(p meanProfile, m metrics) {
	m["serve.request_ms"] = p.perCall("serve.request")
	m["serve.publish_ms"] = p.perCall("serve.publish")
	m["serve.wire_self_ms"] = m["serve.request_ms"] - m["serve.classify_inproc_us_per_point"]*classifyBatch/1000
	m["serve.swaps"] = swapsPerLap
	m["serve.errors"] = float64(w.errors)
}
