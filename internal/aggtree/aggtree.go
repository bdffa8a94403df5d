// Package aggtree turns DBDC's two-tier site→server topology into an
// N-level aggregation tree (docs/hierarchy.md) — the hierarchical
// aggregation of Bendechache & Le-Khac and the SDBDC line of work. An
// Aggregator is an interior tree node: toward its children it is a plain
// quorum transport.Server (sites or deeper aggregators connect with the
// unchanged MsgHello/timed/budget ladder), toward its parent it is a
// site-shaped transport.Client. Each round it collects its region's local
// models, runs dbdc.GlobalStep over them, condenses the merged result back
// into a model.LocalModel (dbdc.CondenseGlobal, optionally capped by a
// per-level representative budget), uploads that to the parent, and
// broadcasts the model the parent answers with — the root's global model —
// to its children. Sites therefore relabel against the root model while
// speaking exactly the flat-topology wire protocol.
package aggtree

import (
	"fmt"
	"net"
	"time"

	"github.com/dbdc-go/dbdc/internal/dbdc"
	"github.com/dbdc-go/dbdc/internal/model"
	"github.com/dbdc-go/dbdc/internal/transport"
)

// Config describes one interior node of the aggregation tree.
type Config struct {
	// ID is the aggregator's site id on its parent's wire. Required.
	ID string
	// Parent is the upstream server address ("host:port") — the root
	// dbdc-server or a higher-level aggregator. Required: a node without
	// a parent is just a transport.Server.
	Parent string
	// Expect is the number of distinct child models one round aims for;
	// Quorum the minimum to proceed with (0 = 1).
	Expect int
	Quorum int
	// Cluster parameterizes the regional global step and the
	// condensation. The same config the flat server would use works
	// unchanged: EpsGlobal 0 derives the regional radius from the
	// children's specific ε-ranges, and the condensed model's EpsLocal
	// propagates the derived radius upward. Its RepBudget caps the
	// representatives per regional cluster in the condensed upload (0 =
	// forward every representative); a budgeted node negotiates its
	// uplink with the parent's advertised byte cap exactly like a
	// budgeted site (transport.SendModelBudgeted).
	Cluster dbdc.Config
	// MaxUploadBytes is the per-upload byte cap advertised to
	// handshaking children; 0 means unconstrained.
	MaxUploadBytes int64
	// Timeout bounds each child connection's I/O and the parent
	// exchange; 0 means transport.DefaultTimeout. AcceptTimeout bounds
	// the collect phase of a round (0 = Timeout).
	Timeout       time.Duration
	AcceptTimeout time.Duration
	// ExpectedSites optionally names the children a round waits for, for
	// by-name failure reporting.
	ExpectedSites []string
	// Retry is the upload retry policy toward the parent.
	Retry transport.RetryPolicy
	// Dial overrides the parent connection dialer (fault injection in
	// tests); nil means net.DialTimeout.
	Dial transport.DialFunc
}

// Aggregator is a running interior tree node. Create with New or
// NewListener, then drive rounds with RunRound.
type Aggregator struct {
	cfg Config
	srv *transport.Server
	// level is the node's height from the last completed round (see
	// levelFrom); read by tests and reports.
	level int
}

// New listens on addr for child uploads and forwards to cfg.Parent.
func New(addr string, cfg Config) (*Aggregator, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("aggtree: listen: %w", err)
	}
	agg, err := NewListener(ln, cfg)
	if err != nil {
		ln.Close()
	}
	return agg, err
}

// NewListener builds an aggregator on an existing child-facing listener
// (fault-injection tests interpose faultnet.Listener here).
func NewListener(ln net.Listener, cfg Config) (*Aggregator, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("aggtree: aggregator needs an id")
	}
	if cfg.Parent == "" {
		return nil, fmt.Errorf("aggtree: aggregator %s needs a parent address", cfg.ID)
	}
	srv, err := transport.NewServerListener(ln, cfg.Expect, cfg.Cluster, cfg.Timeout)
	if err != nil {
		return nil, err
	}
	srv.SetMaxUploadBytes(cfg.MaxUploadBytes)
	return &Aggregator{cfg: cfg, srv: srv}, nil
}

// Addr returns the child-facing listen address.
func (a *Aggregator) Addr() string { return a.srv.Addr() }

// Close releases the child-facing listener.
func (a *Aggregator) Close() error { return a.srv.Close() }

// SetOnGlobal registers a sink for the model each round broadcasts — the
// root's global model, not the regional one, since the forward exchange
// happens before publication. Set once, before the first round.
func (a *Aggregator) SetOnGlobal(fn func(*model.GlobalModel)) { a.srv.SetOnGlobal(fn) }

// Level returns the node's height in the tree as observed in the last
// completed round: 1 when all children were plain sites, one more than the
// highest child aggregator otherwise. 0 before the first round.
func (a *Aggregator) Level() int { return a.level }

// RunRound drives one complete tree round at this node: collect child
// models under the quorum policy, merge them (regional dbdc.GlobalStep),
// condense the regional model, upload it to the parent with the provenance
// section attached, and broadcast the parent's reply — the root global
// model — to every usable child. The returned model is the root's; the
// report is this node's child round, with ForwardDuration covering the
// condense-and-forward exchange.
//
// Failure behavior: a parent that is unreachable (after the client's retry
// policy) or answers with MsgError fails the round; the children then
// receive a MsgError and handle it like any flat-round failure. A quorum
// miss at this node never reaches the parent — the subtree just drops out
// of the parent's round and is reported there by name.
func (a *Aggregator) RunRound() (*model.GlobalModel, *transport.RoundReport, error) {
	roundStart := time.Now()
	opts := transport.RoundOptions{
		Quorum:        a.cfg.Quorum,
		AcceptTimeout: a.cfg.AcceptTimeout,
		ExpectedSites: a.cfg.ExpectedSites,
		Finalize: func(regional *model.GlobalModel, report *transport.RoundReport) (*model.GlobalModel, error) {
			return a.forward(regional, report, roundStart)
		},
	}
	return a.srv.RunRoundOpts(opts)
}

// forward is the Finalize hook: condense the regional model and exchange
// it with the parent for the root's global model.
func (a *Aggregator) forward(regional *model.GlobalModel, report *transport.RoundReport, roundStart time.Time) (*model.GlobalModel, error) {
	condenseStart := time.Now()
	outcome, err := dbdc.CondenseGlobal(a.cfg.ID, regional, a.cfg.Cluster)
	if err != nil {
		return nil, err
	}
	// The condensed model's NumObjects reports the region's true object
	// cardinality, summed over the usable child models, so compression
	// statistics at the parent stay meaningful across levels.
	outcome.SetNumObjects(report.ObjectsTotal)
	condenseDur := time.Since(condenseStart)

	a.level = levelFrom(report)
	agg := transport.AggLevel{
		Level:              a.level,
		SitesExpected:      report.Expect,
		SitesOK:            report.OK,
		SitesFailed:        report.Failed,
		RegionalClusters:   regional.NumClusters,
		Objects:            report.ObjectsTotal,
		RoundDuration:      time.Since(roundStart),
		GlobalStepDuration: report.GlobalStepDuration,
		CondenseDuration:   condenseDur,
	}
	for _, site := range report.Sites {
		if site.OK {
			agg.Sources = append(agg.Sources, transport.AggSource{SiteID: site.SiteID, Reps: site.Reps})
		}
	}

	client := &transport.Client{
		Addr:    a.cfg.Parent,
		Timeout: a.cfg.Timeout,
		Retry:   a.cfg.Retry,
		Dial:    a.cfg.Dial,
		AppendSections: func(dst []byte) []byte {
			return transport.AppendAggLevelSection(dst, agg)
		},
	}
	// The "site phases" of an interior node map naturally: its clustering
	// phase is the regional global step, its condensation the
	// GlobalModel→LocalModel conversion. An unbudgeted outcome makes
	// SendModelBudgeted the plain timed upload.
	phases := &transport.SitePhases{
		Workers:  1,
		Cluster:  report.GlobalStepDuration,
		Condense: condenseDur,
	}
	root, _, _, err := client.SendModelBudgeted(outcome, phases)
	if err != nil {
		return nil, fmt.Errorf("aggtree: %s forwarding to %s: %w", a.cfg.ID, a.cfg.Parent, err)
	}
	return root, nil
}

// levelFrom derives the node's tree height from its child round: one more
// than the highest child aggregator level, 1 when every child was a plain
// site.
func levelFrom(report *transport.RoundReport) int {
	level := 1
	for _, site := range report.Sites {
		if site.Agg != nil && site.Agg.Level+1 > level {
			level = site.Agg.Level + 1
		}
	}
	return level
}
