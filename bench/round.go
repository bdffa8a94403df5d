package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/data"
	"github.com/dbdc-go/dbdc/internal/dbdc"
	"github.com/dbdc-go/dbdc/internal/dbscan"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/index"
	"github.com/dbdc-go/dbdc/internal/model"
	"github.com/dbdc-go/dbdc/internal/transport"
)

const (
	bulkPoints = 32000
	// ioTimeout bounds every connection of the benchmark. A healthy
	// loopback exchange takes milliseconds; the bound only keeps a failed
	// lap from holding the run for the library's default 30 s.
	ioTimeout = 10 * time.Second
)

// bulkCentres is data.DatasetA's shape — ten Gaussian clusters of σ 2 in a
// 100×100 domain — with the centres fixed instead of drawn from the seed.
// DatasetA places them at random, and whether two of them overlap moves
// P^II between 67% and 99% from one seed to the next; the acceptance check
// compares runs across seeds, so here the seed draws the points only.
var bulkCentres = []geom.Point{
	{15, 15}, {50, 12}, {85, 18}, {30, 40}, {68, 42},
	{12, 65}, {48, 70}, {86, 66}, {28, 90}, {70, 92},
}

// bulkDataset generates n points: 95% in the ten clusters, 5% uniform
// noise, with DatasetA's DBSCAN parameters.
func bulkDataset(n int, seed int64) (*geom.Store, dbscan.Params) {
	rng := rand.New(rand.NewSource(seed))
	st := geom.NewStore(2, n)
	clustered := n * 95 / 100
	for i, c := range bulkCentres {
		k := clustered / len(bulkCentres)
		if i < clustered%len(bulkCentres) {
			k++ // spread the remainder so the counts add up exactly
		}
		data.AppendBlob(st, rng, c, 2, k)
	}
	data.AppendUniform(st, rng, geom.NewRect(geom.Point{0, 0}, geom.Point{100, 100}), n-clustered)
	return st, dbscan.Params{Eps: 1.2, MinPts: 4}
}

// round is the two batch workloads: one flat DBDC round over two sites, in
// process (round-bulk) or over loopback TCP (round-wire).
type round struct {
	p    params
	wire bool

	cfg    dbdc.Config
	ids    []string
	stores []*geom.Store
	sites  []dbdc.Site
	// assemble puts the per-site labels back into the order of the union
	// the central reference clusters.
	assemble func(perSite []cluster.Labeling) (cluster.Labeling, error)
	union    *geom.Store
	genDur   time.Duration

	srv     *transport.Server
	clients []*transport.Client

	// Kept from the latest lap for the probes.
	outcomes []*dbdc.LocalOutcome
	global   *model.GlobalModel
	attempts int
	uploads  int
	// The sites' own condensation timings, summed over the traced rounds.
	condense time.Duration
	// Server-side durations summed over the traced laps, a cross-check for
	// transport.wire_self_ms.
	reportGlobal, reportBroadcast time.Duration
	tracedRounds                  int
}

func newRound(p params, wire bool) *round {
	return &round{p: p, wire: wire, ids: []string{"site-0", "site-1"}}
}

// roundsPerLap sizes the lap to 30-250 ms: a round-wire round is ~20 ms.
func (w *round) roundsPerLap() int {
	if w.wire {
		return 2
	}
	return 1
}

func (w *round) shape() (int, float64) { return w.roundsPerLap(), float64(w.union.Len()) }

func (w *round) setup() error {
	genStart := time.Now()
	if w.wire {
		a, b := data.DatasetB(w.p.seed), data.DatasetB(w.p.seed+1)
		w.cfg = dbdc.Config{Local: a.Params, Sequential: true}
		w.stores = []*geom.Store{a.Store, b.Store}
		w.union = a.Store.Clone()
		for _, pt := range b.Points {
			w.union.Append(pt)
		}
		w.assemble = func(perSite []cluster.Labeling) (cluster.Labeling, error) {
			return append(perSite[0].Clone(), perSite[1]...), nil
		}
	} else {
		n := int(float64(bulkPoints) * w.p.scale)
		st, local := bulkDataset(n, w.p.seed)
		w.cfg = dbdc.Config{Local: local, Sequential: true}
		w.union = st
		part, err := data.PartitionRoundRobin(n, len(w.ids))
		if err != nil {
			return err
		}
		for _, pts := range part.Extract(st.Views()) {
			site, err := geom.FromPoints(pts)
			if err != nil {
				return err
			}
			w.stores = append(w.stores, site)
		}
		w.assemble = func(perSite []cluster.Labeling) (cluster.Labeling, error) {
			ids := make([][]cluster.ID, len(perSite))
			for i, l := range perSite {
				ids[i] = l
			}
			return data.Assemble(part, ids, n)
		}
	}
	w.genDur = time.Since(genStart)
	for i, st := range w.stores {
		w.sites = append(w.sites, dbdc.Site{ID: w.ids[i], Points: st.Views()})
	}
	if w.wire {
		srv, err := transport.NewServer("127.0.0.1:0", len(w.ids), w.cfg, ioTimeout)
		if err != nil {
			return err
		}
		w.srv = srv
		for range w.ids {
			w.clients = append(w.clients, &transport.Client{Addr: srv.Addr(), Timeout: ioTimeout})
		}
	}
	_, err := w.lap(nil)
	return err
}

func (w *round) close() error {
	if w.srv != nil {
		return w.srv.Close()
	}
	return nil
}

func (w *round) lap(tr *tracer) (lapOut, error) {
	var out lapOut
	var perSite []cluster.Labeling
	root := tr.beginLap()
	start := time.Now()
	// One segment per round.
	for r := 0; r < w.roundsPerLap(); r++ {
		var err error
		segStart := time.Now()
		if !w.wire && tr == nil {
			perSite, err = w.runInProcess(&out)
		} else {
			perSite, err = w.runSteps(tr, &out)
		}
		if err != nil {
			tr.end(root)
			return out, err
		}
		out.segs = append(out.segs, time.Since(segStart))
	}
	out.dur = time.Since(start)
	tr.end(root)
	labels, err := w.assemble(perSite)
	if err != nil {
		return out, err
	}
	out.hash = hashLabels(labels)
	return out, nil
}

// runInProcess is round-bulk's op: the orchestrator, sites one after
// another as in the paper's measurements.
func (w *round) runInProcess(out *lapOut) ([]cluster.Labeling, error) {
	res, err := dbdc.Run(w.sites, w.cfg)
	if err != nil {
		return nil, err
	}
	perSite := make([]cluster.Labeling, len(w.ids))
	w.outcomes = w.outcomes[:0]
	for i, id := range w.ids {
		s := res.Sites[id]
		perSite[i] = s.Labels
		out.up += int64(s.UplinkBytes)
		out.down += int64(s.DownlinkBytes)
		w.outcomes = append(w.outcomes, s.Outcome)
	}
	w.global = res.Global
	return perSite, nil
}

// runSteps composes one round from the public steps: what dbdc.Run does
// sequentially, and, with the exchange over TCP, what transport.RunSiteClient
// does on each site.
func (w *round) runSteps(tr *tracer, out *lapOut) ([]cluster.Labeling, error) {
	outcomes := make([]*dbdc.LocalOutcome, len(w.ids))
	for i, st := range w.stores {
		sp := tr.begin("dbdc.local")
		o, err := dbdc.LocalStepStore(w.ids[i], st, w.cfg)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		outcomes[i] = o
		if tr != nil {
			w.condense += o.Timings.Condense
		}
	}
	if tr != nil {
		w.tracedRounds++
	}
	globals := make([]*model.GlobalModel, len(w.ids))
	if w.wire {
		if err := w.exchange(tr, outcomes, globals, out); err != nil {
			return nil, err
		}
	} else {
		models := make([]*model.LocalModel, len(outcomes))
		for i, o := range outcomes {
			models[i] = o.Model
			out.up += int64(o.Model.EncodedSize())
		}
		sp := tr.begin("dbdc.global")
		g, err := dbdc.GlobalStep(models, w.cfg)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		for i := range globals {
			globals[i] = g
			out.down += int64(g.EncodedSize())
		}
	}
	perSite := make([]cluster.Labeling, len(w.ids))
	for i, o := range outcomes {
		sp := tr.begin("dbdc.relabel")
		labels, _, err := dbdc.RelabelSite(o, globals[i])
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		perSite[i] = labels
	}
	w.outcomes, w.global = outcomes, globals[0]
	return perSite, nil
}

// exchange uploads both local models at once and runs the server's round:
// two connections, all three goroutines waiting on each other's I/O.
func (w *round) exchange(tr *tracer, outcomes []*dbdc.LocalOutcome, globals []*model.GlobalModel, out *lapOut) error {
	sp := tr.begin("transport.exchange")
	defer tr.end(sp)
	var (
		wg     sync.WaitGroup
		srvErr error
		report *transport.RoundReport
		errs   = make([]error, len(outcomes))
		stats  = make([]transport.SendStats, len(outcomes))
	)
	wg.Add(1 + len(outcomes))
	go func() {
		defer wg.Done()
		defer tr.async("transport.server_round", sp)()
		_, report, srvErr = w.srv.RunRoundOpts(transport.RoundOptions{Quorum: len(outcomes)})
	}()
	for i, o := range outcomes {
		go func(i int, o *dbdc.LocalOutcome) {
			defer wg.Done()
			defer tr.async("transport.send", sp)()
			phases := transport.SitePhases{Workers: o.Timings.Workers, Cluster: o.Timings.Cluster, Condense: o.Timings.Condense}
			globals[i], stats[i], errs[i] = w.clients[i].SendModelTimed(o.Model, &phases)
		}(i, o)
	}
	wg.Wait()
	if err := errors.Join(append(errs, srvErr)...); err != nil {
		return err
	}
	for _, s := range stats {
		out.up += int64(s.BytesSent)
		out.down += int64(s.BytesReceived)
		w.attempts += s.Attempts
		w.uploads++
	}
	if tr != nil {
		w.reportGlobal += report.GlobalStepDuration
		w.reportBroadcast += report.BroadcastDuration
	}
	return nil
}

// reference checks the laps against the in-process round and the paper's
// coverage invariant, and scores them against a central DBSCAN.
func (w *round) reference(first lapOut) (float64, error) {
	var viaRun, viaSteps lapOut
	perSite, err := w.runInProcess(&viaRun)
	if err != nil {
		return 0, err
	}
	labels, err := w.assemble(perSite)
	if err != nil {
		return 0, err
	}
	if h := hashLabels(labels); h != first.hash {
		return 0, fmt.Errorf("laps label differently from in-process dbdc.Run: %x vs %x", first.hash, h)
	}
	if !w.wire {
		stepSites, err := w.runSteps(nil, &viaSteps)
		if err != nil {
			return 0, err
		}
		stepLabels, err := w.assemble(stepSites)
		if err != nil {
			return 0, err
		}
		if h := hashLabels(stepLabels); h != first.hash {
			return 0, fmt.Errorf("the step composition labels differently from dbdc.Run: %x vs %x", h, first.hash)
		}
		if viaSteps.up != first.up || viaSteps.down != first.down {
			return 0, fmt.Errorf("the step composition ships %d/%d bytes, dbdc.Run %d/%d", viaSteps.up, viaSteps.down, first.up, first.down)
		}
	}
	if err := checkCoverage(w.outcomes[0]); err != nil {
		return 0, err
	}
	return centralQuality(w.union, w.cfg.Local, labels)
}

// checkCoverage verifies Definitions 6 and 7 on a site's local model: every
// member of a local cluster lies within the specific ε-range of one of that
// cluster's representatives.
func checkCoverage(o *dbdc.LocalOutcome) error {
	byCluster := map[cluster.ID][]model.Representative{}
	for _, r := range o.Model.Reps {
		byCluster[r.LocalCluster] = append(byCluster[r.LocalCluster], r)
	}
	var e geom.Euclidean
	for i, id := range o.Clustering.Labels {
		if id < 0 {
			continue
		}
		covered := false
		for _, r := range byCluster[id] {
			if e.Distance(o.Points[i], r.Point) <= r.Eps {
				covered = true
				break
			}
		}
		if !covered {
			return fmt.Errorf("site %s: object %d of local cluster %d lies outside every representative's ε-range", o.SiteID, i, id)
		}
	}
	return nil
}

func (w *round) probes(tr *tracer, m metrics) error {
	m["data.generate_ms"] = ms(w.genDur)
	if err := probeCluster(tr, w.stores, w.cfg, 30, m); err != nil {
		return err
	}
	locals := make([]*model.LocalModel, len(w.outcomes))
	for i, o := range w.outcomes {
		locals[i] = o.Model
	}
	if err := probeGlobal(tr, locals, w.cfg, m); err != nil {
		return err
	}
	if err := probeCodecs(tr, locals, w.global, m); err != nil {
		return err
	}
	if !w.wire {
		return probeShard(tr, w.stores[0], w.cfg, m)
	}
	return nil
}

// probeShard runs site 0's clustering once with two workers. The shard
// path is no end-to-end workload (two busy threads on two shared cores do
// not repeat within any bound), so its exact counts are kept here.
func probeShard(tr *tracer, st *geom.Store, cfg dbdc.Config, m metrics) error {
	idx, err := index.BuildStore(index.KindRStar, st, geom.Euclidean{}, cfg.Local.Eps)
	if err != nil {
		return err
	}
	var res *dbscan.Result
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d := tr.probe("shard.run", func() {
		res, err = dbscan.Run(idx, cfg.Local, dbscan.Options{CollectSpecificCores: true, Workers: 2})
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}
	m["shard.regions"] = float64(res.Shards)
	m["shard.range_queries"] = float64(res.RangeQueries)
	m["shard.allocs"] = float64(after.Mallocs - before.Mallocs)
	m["shard.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	m["shard.run_ms"] = ms(d)
	return nil
}

func (w *round) layers(p meanProfile, m metrics) {
	rounds := float64(w.roundsPerLap())
	m["dbdc.local_ms"] = p.self["dbdc.local"] / rounds
	m["dbdc.condense_ms"] = ms(w.condense) / float64(w.tracedRounds)
	m["dbdc.relabel_ms"] = p.self["dbdc.relabel"] / rounds
	if !w.wire {
		m["dbdc.global_ms"] = p.self["dbdc.global"] / rounds
		return
	}
	m["transport.exchange_ms"] = p.self["transport.exchange"] / rounds
	m["transport.server_round_ms"] = p.async["transport.server_round"]
	sites := float64(len(w.ids))
	codecsMs := (sites*(m["model.local_marshal_us"]+m["model.local_unmarshal_us"]) +
		m["model.global_marshal_us"] + sites*m["model.global_unmarshal_us"]) / 1000
	m["transport.wire_self_ms"] = m["transport.exchange_ms"] - m["dbdc.global_ms"] - codecsMs
	// What the server's own report says the round spent in the global step
	// and the broadcast; the first should match dbdc.global_ms.
	m[infoPrefix+"transport.report_global_ms"] = ms(w.reportGlobal) / float64(w.tracedRounds)
	m[infoPrefix+"transport.report_broadcast_ms"] = ms(w.reportBroadcast) / float64(w.tracedRounds)
	m["transport.attempts"] = float64(w.attempts) / float64(w.uploads)
	m["transport.retries"] = float64(w.attempts-w.uploads) / float64(w.uploads) * sites
}
