// Package dbdc is the public API of the DBDC library, a Go implementation
// of Density Based Distributed Clustering (Januzaj, Kriegel, Pfeifle —
// EDBT 2004).
//
// DBDC clusters data that is horizontally distributed over independent
// sites without shipping the raw objects to a central server. Each site
// clusters locally with DBSCAN, condenses every local cluster into a small
// set of representatives with validity radii (the local model), and sends
// only those to the server. The server reconstructs a global clustering by
// clustering the representatives, and each site relabels its own objects
// from the returned global model.
//
// The top-level entry points:
//
//   - Run executes the whole pipeline over in-process sites.
//   - LocalStep / GlobalStep / Relabel expose the individual phases for
//     distributed deployments; the transport helpers (NewServer, RunSite)
//     run them over TCP.
//   - Cluster runs plain central DBSCAN, the reference baseline.
//   - QualityPI / QualityPII evaluate a distributed clustering against a
//     central reference with the paper's quality measures.
//
// All functionality is implemented from scratch on the standard library,
// including the spatial access methods (R*-tree, M-tree, kd-tree, grid)
// DBSCAN runs on.
package dbdc

import (
	"math/rand"
	"time"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/data"
	core "github.com/dbdc-go/dbdc/internal/dbdc"
	"github.com/dbdc-go/dbdc/internal/dbscan"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/incdbscan"
	"github.com/dbdc-go/dbdc/internal/index"
	"github.com/dbdc-go/dbdc/internal/model"
	"github.com/dbdc-go/dbdc/internal/quality"
	"github.com/dbdc-go/dbdc/internal/serve"
	"github.com/dbdc-go/dbdc/internal/stream"
	"github.com/dbdc-go/dbdc/internal/transport"
	"github.com/dbdc-go/dbdc/internal/viz"
)

// Point is a position in a d-dimensional vector space.
type Point = geom.Point

// Rect is an axis-aligned bounding box.
type Rect = geom.Rect

// Metric is a distance function on points.
type Metric = geom.Metric

// Euclidean is the L2 metric.
type Euclidean = geom.Euclidean

// ClusterID identifies a cluster; Noise marks unclustered objects.
type ClusterID = cluster.ID

// Noise is the label of objects belonging to no cluster.
const Noise = cluster.Noise

// Labeling assigns every object a cluster id or noise.
type Labeling = cluster.Labeling

// Params are the DBSCAN parameters Eps and MinPts.
type Params = dbscan.Params

// ClusteringResult is the output of a central DBSCAN run.
type ClusteringResult = dbscan.Result

// Config collects all DBDC parameters; see the field documentation of the
// core package.
type Config = core.Config

// Site is one participant of a distributed clustering.
type Site = core.Site

// Result is the outcome of a full DBDC run.
type Result = core.Result

// SiteResult is the per-site outcome of a DBDC run.
type SiteResult = core.SiteResult

// LocalOutcome bundles a site's clustering and its local model.
type LocalOutcome = core.LocalOutcome

// RelabelStats summarises how relabeling changed a site's clustering.
type RelabelStats = core.RelabelStats

// LocalTimings is the per-phase cost breakdown of a LocalStep (DBSCAN
// clustering vs representative condensation, plus the worker count).
type LocalTimings = core.LocalTimings

// LocalModel is the aggregated information a site sends to the server.
type LocalModel = model.LocalModel

// GlobalModel is what the server broadcasts back to the sites.
type GlobalModel = model.GlobalModel

// Representative is one element of a local model.
type Representative = model.Representative

// ModelKind selects the local model construction.
type ModelKind = model.Kind

// The two local models of the paper.
const (
	// RepScor represents clusters by specific core points (Section 5.1).
	RepScor = model.RepScor
	// RepKMeans refines them with k-means centroids (Section 5.2).
	RepKMeans = model.RepKMeans
)

// IndexKind selects a neighborhood index implementation.
type IndexKind = index.Kind

// Available index kinds.
const (
	IndexLinear = index.KindLinear
	IndexGrid   = index.KindGrid
	IndexKDTree = index.KindKDTree
	IndexRStar  = index.KindRStar
	IndexMTree  = index.KindMTree
)

// Run executes the four DBDC steps over in-process sites, each in its own
// goroutine.
func Run(sites []Site, cfg Config) (*Result, error) { return core.Run(sites, cfg) }

// LocalStep performs local clustering and model determination for one site.
func LocalStep(siteID string, pts []Point, cfg Config) (*LocalOutcome, error) {
	return core.LocalStep(siteID, pts, cfg)
}

// GlobalStep merges local models into the global model on the server.
func GlobalStep(models []*LocalModel, cfg Config) (*GlobalModel, error) {
	return core.GlobalStep(models, cfg)
}

// Relabel assigns global cluster ids to a site's objects from the global
// model. The empty global model (the all-noise sentinel returned by
// GlobalStep when no representatives arrived) yields an all-noise labeling;
// a structurally broken global model (e.g. mixed-dimension representatives)
// returns an error instead of being silently treated as "covers nothing".
func Relabel(pts []Point, global *GlobalModel) (Labeling, error) {
	return core.Relabel(pts, global)
}

// Cluster runs central DBSCAN over all points with the given index kind
// (empty kind selects the R*-tree) — the reference DBDC is compared
// against.
func Cluster(pts []Point, params Params, kind IndexKind) (*ClusteringResult, error) {
	if kind == "" {
		kind = index.KindRStar
	}
	idx, err := index.Build(kind, pts, geom.Euclidean{}, params.Eps)
	if err != nil {
		return nil, err
	}
	return dbscan.Run(idx, params, dbscan.Options{})
}

// QualityPI computes Q_DBDC under the discrete object quality function P^I
// (Definition 10) with quality parameter qp (the paper recommends MinPts).
func QualityPI(distributed, central Labeling, qp int) (float64, error) {
	return quality.QDBDCPI(distributed, central, qp)
}

// QualityPII computes Q_DBDC under the continuous object quality function
// P^II (Definition 11).
func QualityPII(distributed, central Labeling) (float64, error) {
	return quality.QDBDCPII(distributed, central)
}

// Server is the central TCP server of a networked DBDC deployment.
type Server = transport.Server

// UpdateServer is the long-running server for incremental deployments: it
// retains the newest local model per site and rebuilds the global model on
// every upload.
type UpdateServer = transport.UpdateServer

// NewUpdateServer listens on addr for model updates.
func NewUpdateServer(addr string, cfg Config, timeout time.Duration) (*UpdateServer, error) {
	return transport.NewUpdateServer(addr, cfg, timeout)
}

// SiteQueryServer serves cluster-membership queries over a site's
// relabelled objects (the "give me all objects in global cluster 4711"
// query of the paper's Section 7).
type SiteQueryServer = transport.SiteQueryServer

// NewSiteQueryServer serves the given relabelled objects on addr.
func NewSiteQueryServer(addr string, pts []Point, labels Labeling, timeout time.Duration) (*SiteQueryServer, error) {
	return transport.NewSiteQueryServer(addr, pts, labels, timeout)
}

// QueryCluster asks a site for all of its objects in the given global
// cluster.
func QueryCluster(addr string, id ClusterID, timeout time.Duration) ([]Point, error) {
	return transport.QueryCluster(addr, id, timeout)
}

// Exchange performs the site side of one round against a remote server:
// upload the local model, receive the global model.
func Exchange(addr string, local *LocalModel, timeout time.Duration) (*GlobalModel, int, int, error) {
	return transport.Exchange(addr, local, timeout)
}

// SiteReport is the outcome of a networked site run.
type SiteReport = transport.SiteReport

// PhaseBreakdown is the client-measured per-phase cost of a networked site
// round: local clustering, condensation, upload (per attempt), server
// wait, download, relabel.
type PhaseBreakdown = transport.PhaseBreakdown

// AttemptStats is one connection attempt within a PhaseBreakdown.
type AttemptStats = transport.AttemptStats

// SitePhases is the per-phase site metrics section attached to a timed
// model upload and echoed in the server's RoundReport.
type SitePhases = transport.SitePhases

// BudgetStats is the coverage accounting of the SDBDC representative
// budget: how many specific cores the budget dropped and what fraction of
// the clustered objects the survivors still cover. Produced per site when
// Config.RepBudget > 0.
type BudgetStats = dbscan.BudgetStats

// SiteBudget is the budget accounting a budgeted site attaches to its
// upload, echoed per site in the server's RoundReport.
type SiteBudget = transport.SiteBudget

// Negotiation describes how the budget handshake of a budgeted networked
// round ended: whether the server acked, its advertised upload byte cap,
// and the budget the shipped model ended up with after any cap-driven
// shrink.
type Negotiation = transport.Negotiation

// NewServer listens for one round of expect site connections.
func NewServer(addr string, expect int, cfg Config, timeout time.Duration) (*Server, error) {
	return transport.NewServer(addr, expect, cfg, timeout)
}

// RunSite executes the full site-side pipeline against a remote server,
// retrying transient transport failures with DefaultRetryPolicy.
func RunSite(addr, siteID string, pts []Point, cfg Config, timeout time.Duration) (*SiteReport, error) {
	return transport.RunSite(addr, siteID, pts, cfg, timeout)
}

// TransportClient is the site side of the round-trip protocol with
// configurable retry (exponential backoff + jitter) and dialing.
type TransportClient = transport.Client

// RetryPolicy controls client-side retry of transient transport failures.
type RetryPolicy = transport.RetryPolicy

// DefaultRetryPolicy is the policy RunSite uses: three attempts, 50ms base
// delay, 2s cap, 20% jitter.
func DefaultRetryPolicy() RetryPolicy { return transport.DefaultRetryPolicy() }

// RunSiteClient is RunSite with a caller-configured transport client.
func RunSiteClient(c *TransportClient, siteID string, pts []Point, cfg Config) (*SiteReport, error) {
	return transport.RunSiteClient(c, siteID, pts, cfg)
}

// RoundOptions tunes a server round: quorum, accept deadline and the
// expected site names for reporting.
type RoundOptions = transport.RoundOptions

// RoundReport is the per-site outcome of a server round.
type RoundReport = transport.RoundReport

// SiteOutcome is one site's fate within a RoundReport.
type SiteOutcome = transport.SiteOutcome

// ModelRegistry is the versioned model registry of the online
// classification subsystem: Publish atomically hot-swaps the served global
// model, readers get consistent snapshots wait-free. Feed it from a Server
// or UpdateServer via SetOnGlobal(registry.PublishFunc(onErr)); see
// docs/serving.md.
type ModelRegistry = serve.Registry

// NewModelRegistry returns an empty registry whose classifiers bulk-load
// the representatives into the given index kind ("" = kd-tree).
func NewModelRegistry(kind IndexKind) *ModelRegistry { return serve.NewRegistry(kind) }

// Classifier labels points online against a global model using the same
// representative-selection rule as Relabel (differentially tested).
type Classifier = serve.Classifier

// NewClassifier builds a classifier over the global model.
func NewClassifier(global *GlobalModel, kind IndexKind) (*Classifier, error) {
	return serve.NewClassifier(global, kind)
}

// ClassifyServer is the TCP classification front end: persistent
// connections, batched requests, per-request model snapshots.
type ClassifyServer = serve.Server

// ClassifyServerConfig configures a ClassifyServer.
type ClassifyServerConfig = serve.ServerConfig

// NewClassifyServer listens on addr and answers classification requests
// against the registry's current snapshot.
func NewClassifyServer(addr string, cfg ClassifyServerConfig) (*ClassifyServer, error) {
	return serve.NewServer(addr, cfg)
}

// ClassifyClient speaks the classification protocol over one persistent
// connection (single-flight; give each goroutine its own).
type ClassifyClient = serve.Client

// DialClassify connects to a classification front end.
func DialClassify(addr string, timeout time.Duration) (*ClassifyClient, error) {
	return serve.Dial(addr, timeout)
}

// ServeMetrics aggregates the serving observability signals and renders
// them in the Prometheus text exposition format.
type ServeMetrics = serve.Metrics

// NewServeMetrics returns a metrics hub bound to the registry.
func NewServeMetrics(reg *ModelRegistry) *ServeMetrics { return serve.NewMetrics(reg) }

// Incremental is an incrementally maintained DBSCAN clustering (Ester et
// al. 1998): sites use it to keep their local clustering current as objects
// arrive and only ship a fresh local model when the clustering changed
// considerably.
type Incremental = incdbscan.Clusterer

// NewIncremental returns an empty incremental clusterer.
func NewIncremental(params Params) (*Incremental, error) { return incdbscan.New(params) }

// LocalDelta is the incremental form of a local-model upload: the
// representatives added and removed since an acknowledged base state. See
// docs/streaming.md.
type LocalDelta = model.LocalDelta

// DeltaTracker derives the delta chain on the site side: Delta diffs a
// model against the last committed state, Commit installs it after the
// server acked.
type DeltaTracker = model.DeltaTracker

// NewDeltaTracker returns a tracker whose first delta is a snapshot.
func NewDeltaTracker() *DeltaTracker { return model.NewDeltaTracker() }

// DeltaFolder reassembles a site's model from its delta chain on the
// server side.
type DeltaFolder = model.DeltaFolder

// NewDeltaFolder returns an empty folder; it accepts only a snapshot
// first.
func NewDeltaFolder() *DeltaFolder { return model.NewDeltaFolder() }

// ClusterMatcher keeps cluster ids stable across model versions by
// matching clusters on representative overlap.
type ClusterMatcher = model.ClusterMatcher

// NewClusterMatcher returns a matcher with no history.
func NewClusterMatcher() *ClusterMatcher { return model.NewClusterMatcher() }

// StreamClient uploads a streaming site's model updates to an update
// server as deltas.
type StreamClient = transport.StreamClient

// StreamUploadResult describes one StreamClient upload.
type StreamUploadResult = transport.UploadResult

// StreamUploadMode names the wire encoding an upload went out with.
type StreamUploadMode = transport.UploadMode

// StreamModeDelta is the one streaming upload mode.
const StreamModeDelta = transport.ModeDelta

// StreamStats is the stream-progress section a streaming site attaches to
// its delta uploads.
type StreamStats = transport.StreamStats

// StreamSite ingests an unbounded point stream over a sliding window and
// uploads model updates whenever the clustering changed considerably. See
// docs/streaming.md.
type StreamSite = stream.Site

// StreamConfig parameterizes a streaming site.
type StreamConfig = stream.Config

// StreamSiteStats describes a streaming site's progress.
type StreamSiteStats = stream.Stats

// StreamUploader ships one model update; *StreamClient implements it.
type StreamUploader = stream.Uploader

// NewStreamSite returns a streaming site uploading through up.
func NewStreamSite(cfg StreamConfig, up StreamUploader) (*StreamSite, error) {
	return stream.NewSite(cfg, up)
}

// Partition assigns data set objects to sites.
type Partition = data.Partition

// PartitionRandom distributes n objects over k equally sized sites at
// random — the layout of the paper's experiments.
func PartitionRandom(n, k int, rng *rand.Rand) (*Partition, error) {
	return data.PartitionRandom(n, k, rng)
}

// PartitionSpatial splits objects into k angular sectors around the data
// centroid — the adversarial layout where every site sees a different
// region of space.
func PartitionSpatial(pts []Point, k int) (*Partition, error) {
	return data.PartitionSpatial(pts, k)
}

// Dataset couples a generated point set with suitable DBSCAN parameters.
type Dataset = data.Dataset

// DatasetA generates the analogue of the paper's test data set A (randomly
// generated clusters; n scales the cardinality).
func DatasetA(n int, seed int64) Dataset { return data.DatasetA(n, seed) }

// DatasetB generates the analogue of test data set B (4000 objects, very
// noisy).
func DatasetB(seed int64) Dataset { return data.DatasetB(seed) }

// DatasetC generates the analogue of test data set C (1021 objects, 3
// clusters).
func DatasetC(seed int64) Dataset { return data.DatasetC(seed) }

// OpticsOrderer computes one OPTICS ordering of all representatives and
// lets the server extract the global model at any Eps_global cut without
// re-clustering (the Section 6 extension), including a data-driven cut
// suggestion.
type OpticsOrderer = core.OpticsOrderer

// NewOpticsOrderer pools the representatives of the local models and
// orders them; epsMax 0 selects the bounding-box diagonal.
func NewOpticsOrderer(models []*LocalModel, cfg Config, epsMax float64) (*OpticsOrderer, error) {
	return core.NewOpticsOrderer(models, cfg, epsMax)
}

// ClusteringChange quantifies how much a site's clustering drifted since
// the last transmitted snapshot (1 − Q_DBDC(P^II)); drive the "transmit
// only on considerable change" policy with it.
func ClusteringChange(prev, cur Labeling) (float64, error) {
	return core.ClusteringChange(prev, cur)
}

// PadSnapshot extends an older labeling snapshot to n objects, marking the
// new objects as noise.
func PadSnapshot(prev Labeling, n int) (Labeling, error) { return core.PadSnapshot(prev, n) }

// ScatterPlot renders points coloured by cluster as an ASCII grid.
func ScatterPlot(pts []Point, labels Labeling, width, height int) (string, error) {
	return viz.Scatter(pts, labels, width, height)
}

// ReachabilityPlotASCII renders an OPTICS reachability plot as an ASCII
// bar chart with an optional cut line (0 for none).
func ReachabilityPlotASCII(reach []float64, width, height int, cut float64) (string, error) {
	return viz.ReachabilityPlot(reach, width, height, cut)
}
