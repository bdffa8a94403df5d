package transport

import (
	"cmp"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"github.com/dbdc-go/dbdc/internal/dbdc"
	"github.com/dbdc-go/dbdc/internal/model"
)

// Server is the central DBDC site under the round trigger: it collects the
// site models of one round, derives the global model from them once the
// round's quorum or deadline is reached, and sends it back on every usable
// connection, which it holds open until then. Each round's model is
// published over that round's uploads only, with cluster ids kept stable
// from round to round (see collector).
type Server struct {
	collector

	// expect is the number of distinct site models one round aims for.
	expect int
	// The loop accepts for the server's whole life and hands every
	// connection to lend; rounds is where a waiting connection picks up the
	// round in progress. served is closed when the loop stopped, serveErr
	// its error.
	rounds   chan *round
	served   chan struct{}
	serveErr error
}

// NewServer listens on addr (e.g. "127.0.0.1:0") for rounds of expect
// sites. timeout bounds each connection's I/O, the default accept window
// and how long a connection waits for a round to take it; zero means
// DefaultTimeout.
func NewServer(addr string, expect int, cfg dbdc.Config, timeout time.Duration) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	srv, err := NewServerListener(ln, expect, cfg, timeout)
	if err != nil {
		ln.Close()
	}
	return srv, err
}

// NewServerListener builds a server on an existing listener. This is how
// the fault-injection tests interpose faultnet.Listener; production code
// normally uses NewServer. The server accepts on the listener until Close.
func NewServerListener(ln net.Listener, expect int, cfg dbdc.Config, timeout time.Duration) (*Server, error) {
	if expect < 1 {
		return nil, fmt.Errorf("transport: server needs at least one site, got %d", expect)
	}
	s := &Server{expect: expect, rounds: make(chan *round), served: make(chan struct{})}
	if err := s.init(cfg, timeout); err != nil {
		return nil, err
	}
	s.loop = NewConnLoop(ln)
	go func() {
		s.serveErr = s.loop.Serve(0, s.lend)
		close(s.served)
	}()
	return s, nil
}

// Close stops accepting, closes every open connection — a running round
// then fails — and waits until the server's goroutines are gone.
func (s *Server) Close() error {
	err := s.loop.Close()
	<-s.served
	return err
}

// RoundOptions tunes one RunRoundOpts call. The zero value reproduces the
// classic behavior: wait up to the server timeout for all expected sites,
// then proceed with whatever arrived (quorum 1).
type RoundOptions struct {
	// Quorum is the minimum number of distinct usable site models the
	// round needs; with fewer the round fails. 0 means 1 — the paper's
	// "proceed with the models it has". Values above the expected site
	// count are clamped to it.
	Quorum int
	// AcceptTimeout bounds the accept-and-collect phase: once it
	// expires the round proceeds with the models it has (or fails the
	// quorum). 0 means the server's connection timeout.
	AcceptTimeout time.Duration
	// ExpectedSites optionally names the sites the round waits for.
	// Sites that never delivered a usable model are then listed by name
	// in the report even if they never connected.
	ExpectedSites []string
	// Finalize, when set, runs between the global step and the broadcast
	// and may replace the model the round publishes and broadcasts. This
	// is the interior-node hook of the aggregation tree
	// (internal/aggtree): a non-root aggregator condenses the regional
	// model, uploads it to its parent, and returns the parent's global
	// model — so its children relabel against the root's model, not the
	// regional one. An error fails the round; the children then receive a
	// MsgError instead of a global model and surface it like any other
	// round failure. The report already carries the child-round totals
	// when Finalize runs; its ForwardDuration is filled in afterwards.
	Finalize func(*model.GlobalModel, *RoundReport) (*model.GlobalModel, error)
}

// SiteOutcome is one site's (or anonymous connection's) fate in a round.
type SiteOutcome struct {
	// SiteID is empty when a failed connection never got far enough to
	// identify itself.
	SiteID string
	// Addr is the remote address of the last connection observed for
	// this entry; empty for expected sites that never connected.
	Addr string
	// OK reports whether a usable model was received.
	OK bool
	// Reason is the failure reason when !OK.
	Reason string
	// Attempts counts the connections observed for this site id.
	Attempts int
	// Bytes is the wire size read from the successful connection.
	Bytes int
	// Objects and Reps are the delivered model's object cardinality and
	// representative count; zero when no usable model arrived.
	Objects, Reps int
	// Duration is how long reading the model took.
	Duration time.Duration
	// Phases is the client-reported per-phase breakdown (worker count,
	// local DBSCAN, condensation, attempt, backoff) carried in the
	// optional metrics section of the upload. Nil when the site attached
	// none.
	Phases *SitePhases
	// Budget is the representative-budget accounting of a budgeted
	// upload (siteBudgetSection); nil for unbudgeted uploads.
	Budget *SiteBudget
	// Agg is the aggregation provenance of a condensed upload
	// (aggLevelSection): set when this "site" is really an interior node
	// of the aggregation tree forwarding its region's merged model, nil
	// for plain sites. This is how per-level round reports chain — each
	// level sees its children's child-round summaries.
	Agg *AggLevel
	// Negotiated reports whether the connection performed the
	// MsgHello/MsgHelloAck budget handshake before uploading.
	Negotiated bool
}

// RoundReport describes how a round went, site by site.
type RoundReport struct {
	// Expect and Quorum echo the round's parameters.
	Expect, Quorum int
	// OK and Failed count usable models and failed entries; Retried
	// counts sites that succeeded only after at least one failed
	// connection attempt under the same site id.
	OK, Failed, Retried int
	// Conns is the total number of connections the round handled.
	Conns int
	// Sites lists usable sites first (sorted by id), then failures.
	Sites []SiteOutcome
	// Duration is the wall-clock time of the whole round.
	Duration time.Duration
	// GlobalStepDuration is the server-side global clustering cost;
	// BroadcastDuration covers encoding the global model and writing it
	// to every usable site.
	GlobalStepDuration time.Duration
	BroadcastDuration  time.Duration
	// ForwardDuration is the cost of RoundOptions.Finalize — for an
	// interior tree node, condensing the regional model and exchanging it
	// with the parent. Zero when no Finalize hook ran.
	ForwardDuration time.Duration
	// ObjectsTotal and RepsTotal sum the usable site models' object
	// cardinalities and representative counts — what the round actually
	// merged, and what an interior node reports upward as its region's
	// weight.
	ObjectsTotal int
	RepsTotal    int
	// UplinkBytes is the wire size of all usable uploads this round;
	// DownlinkBytes of all global-model replies.
	UplinkBytes   int
	DownlinkBytes int
}

// MaxSitePhases returns the element-wise maximum over the reported site
// phases — the paper's "distributed runtime is the maximum local cost"
// aggregation (Section 8) — and the number of sites that reported phases.
func (r *RoundReport) MaxSitePhases() (SitePhases, int) {
	var max SitePhases
	n := 0
	for _, site := range r.Sites {
		p := site.Phases
		if !site.OK || p == nil {
			continue
		}
		n++
		if p.Workers > max.Workers {
			max.Workers = p.Workers
		}
		if p.Cluster > max.Cluster {
			max.Cluster = p.Cluster
		}
		if p.Condense > max.Condense {
			max.Condense = p.Condense
		}
		if p.Backoff > max.Backoff {
			max.Backoff = p.Backoff
		}
	}
	return max, n
}

// String renders a compact multi-line summary for logs, including the
// per-phase breakdown when sites reported one.
func (r *RoundReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "round: %d/%d sites ok (quorum %d, %d conns, %d retried) in %s",
		r.OK, r.Expect, r.Quorum, r.Conns, r.Retried, r.Duration.Round(time.Millisecond))
	for _, site := range r.Sites {
		name := site.SiteID
		if name == "" {
			name = "<unidentified>"
		}
		if site.OK {
			fmt.Fprintf(&b, "\n  ok   %-16s addr=%s attempts=%d bytes=%d dur=%s",
				name, site.Addr, site.Attempts, site.Bytes, site.Duration.Round(time.Millisecond))
			if p := site.Phases; p != nil {
				fmt.Fprintf(&b, " workers=%d cluster=%s condense=%s backoff=%s",
					p.Workers, p.Cluster.Round(time.Microsecond),
					p.Condense.Round(time.Microsecond), p.Backoff.Round(time.Microsecond))
			}
			if bd := site.Budget; bd != nil {
				fmt.Fprintf(&b, " budget=%d dropped=%d coverage=%.3f",
					bd.RepBudget, bd.RepsDropped, bd.CoverageFraction)
				if site.Negotiated {
					b.WriteString(" negotiated")
				}
			}
			if a := site.Agg; a != nil {
				fmt.Fprintf(&b, " agg[%s]", a.String())
			}
		} else {
			addr := site.Addr
			if addr == "" {
				addr = "-"
			}
			fmt.Fprintf(&b, "\n  FAIL %-16s addr=%s attempts=%d reason=%s",
				name, addr, site.Attempts, site.Reason)
		}
	}
	if max, n := r.MaxSitePhases(); n > 0 {
		// max(local) + global: the distributed-runtime decomposition of
		// the paper's Figure 10, measured over the wire.
		fmt.Fprintf(&b, "\n  phases (%d/%d sites reporting): max cluster=%s max condense=%s global=%s broadcast=%s in=%dB out=%dB",
			n, r.OK, max.Cluster.Round(time.Microsecond), max.Condense.Round(time.Microsecond),
			r.GlobalStepDuration.Round(time.Microsecond), r.BroadcastDuration.Round(time.Microsecond),
			r.UplinkBytes, r.DownlinkBytes)
	}
	return b.String()
}

// WriteReports writes round reports to path ("-" = stdout) as one indented
// JSON array, the -report-json output of dbdc-server and dbdc-agg. A file
// is truncated and rewritten whole, so a caller rewrites it after every
// round.
func WriteReports(path string, reports []*RoundReport) error {
	out, err := json.MarshalIndent(reports, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(out)
		return err
	}
	return os.WriteFile(path, out, 0o644)
}

// round is what a RunRoundOpts call lends to the connections it takes: the
// read deadline, the channel their uploads arrive on, and its end.
type round struct {
	deadline time.Time
	results  chan readResult
	done     chan struct{}
}

// readResult is one connection's upload as delivered to the round.
type readResult struct {
	entry
	err error
}

// lend is the server's connection handler. A connection may arrive while no
// round collects — during a round's global step or broadcast, or between
// rounds — so it waits for the round in progress or the next one, at most
// the server timeout, and is closed unanswered if none takes it. The round
// that takes it gets the upload, read under the round's deadline, and a
// usable upload keeps the connection open for the reply until the round
// ends.
func (s *Server) lend(conn net.Conn) {
	stamp := s.accepted.Add(1)
	wait := time.NewTimer(s.timeout)
	defer wait.Stop()
	var rd *round
	select {
	case rd = <-s.rounds:
	case <-wait.C:
		return
	case <-s.loop.closing:
		return
	}
	start := time.Now()
	conn.SetDeadline(rd.deadline)
	up, err := s.readUpload(conn, false)
	rd.results <- readResult{entry{upload: up, stamp: stamp, conn: conn, dur: time.Since(start)}, err}
	if err == nil {
		select {
		case <-rd.done:
		case <-s.loop.closing:
		}
	}
}

// RunRound performs one complete DBDC round with default options: accept
// site connections until the expected number of distinct sites delivered a
// model or the server timeout expires, compute the global model from
// whatever arrived ("the server proceeds with the models it has") and
// reply to every usable site. It fails only when not a single usable model
// arrived. Use RunRoundOpts for quorum control and the per-site report.
func (s *Server) RunRound() (*model.GlobalModel, error) {
	global, _, err := s.RunRoundOpts(RoundOptions{})
	return global, err
}

// RunRoundOpts is RunRound with explicit options and a per-site report.
// The report is non-nil even when the round fails.
//
// Fault behavior: the accept phase ends on a timer and every upload is read
// under the same deadline, so a round with an absent or silent site
// terminates; failed uploads do not consume a site slot, and of two usable
// uploads under one site id the one whose connection was accepted later
// wins — a retry replaces the attempt it gave up on even when that
// attempt's read finishes last. The round completes as soon as all
// expected sites are in, or at the deadline with at least Quorum usable
// models. Close cuts a running round short: it fails with an error
// wrapping net.ErrClosed.
func (s *Server) RunRoundOpts(opts RoundOptions) (*model.GlobalModel, *RoundReport, error) {
	// A round owns the model table from its first upload to its broadcast.
	s.mu.Lock()
	defer s.mu.Unlock()
	clear(s.entries)
	start := time.Now()
	quorum := min(max(opts.Quorum, 1), s.expect)
	acceptTimeout := opts.AcceptTimeout
	if acceptTimeout <= 0 {
		acceptTimeout = s.timeout
	}
	rd := &round{deadline: start.Add(acceptTimeout), results: make(chan readResult), done: make(chan struct{})}
	defer close(rd.done)
	acceptEnd := time.NewTimer(acceptTimeout)
	defer acceptEnd.Stop()

	attempts := make(map[string]int) // site id -> connections seen
	var failures []SiteOutcome
	reading := 0
	conns := 0
	acceptOpen := true
	served := s.served
	var listenErr error

	for reading > 0 || (acceptOpen && len(s.entries) < s.expect) {
		offer := s.rounds
		if !acceptOpen {
			offer = nil
		}
		select {
		case offer <- rd:
			conns++
			reading++
		case <-acceptEnd.C:
			acceptOpen = false
		case <-served:
			served, acceptOpen = nil, false
			if listenErr = s.serveErr; listenErr == nil {
				listenErr = fmt.Errorf("transport: server closed: %w", net.ErrClosed)
			}
		case r := <-rd.results:
			reading--
			if r.siteID != "" {
				attempts[r.siteID]++
			}
			if r.err != nil {
				failures = append(failures, SiteOutcome{
					SiteID:   r.siteID,
					Addr:     r.conn.RemoteAddr().String(),
					Reason:   r.err.Error(),
					Attempts: attempts[r.siteID],
					Bytes:    r.bytes,
					Duration: r.dur,
				})
				continue
			}
			if loser, _ := s.storeLocked(r.entry); loser.conn != nil {
				loser.conn.Close()
			}
			if len(s.entries) >= s.expect {
				acceptOpen = false
			}
		}
	}

	report := s.buildReport(start, quorum, attempts, failures, conns, opts.ExpectedSites)
	ids := s.sitesLocked()

	// answer sends one frame to every usable site; fail tells them why the
	// round failed.
	answer := func(msgType byte, payload []byte) {
		for _, id := range ids {
			conn := s.entries[id].conn
			conn.SetDeadline(time.Now().Add(s.timeout))
			if s.reply(conn, msgType, payload) == nil && msgType == MsgGlobalModel {
				report.DownlinkBytes += frameHeaderSize + len(payload)
			}
		}
	}
	fail := func(err error) (*model.GlobalModel, *RoundReport, error) {
		answer(MsgError, []byte(err.Error()))
		report.Duration = time.Since(start)
		return nil, report, err
	}

	if listenErr != nil {
		return nil, report, listenErr
	}
	if len(ids) == 0 {
		first := "no site connected before the deadline"
		if len(failures) > 0 {
			first = failures[0].Reason
		}
		return nil, report, fmt.Errorf("transport: no usable local models (%d connections failed, first: %s)",
			len(failures), first)
	}
	if len(ids) < quorum {
		return fail(fmt.Errorf("transport: quorum not met: %d usable models of %d expected, need %d",
			len(ids), s.expect, quorum))
	}

	globalStart := time.Now()
	global, err := s.publishLocked(func(global *model.GlobalModel) (*model.GlobalModel, error) {
		report.GlobalStepDuration = time.Since(globalStart)
		if opts.Finalize == nil {
			return global, nil
		}
		// Interior tree node: condense the regional model, forward it to
		// the parent, and publish and broadcast whatever comes back (the
		// root's model). On error the children get a MsgError — an
		// unreachable parent fails the whole subtree's round rather than
		// silently serving a regional model as if it were global.
		forwardStart := time.Now()
		finalized, err := opts.Finalize(global, report)
		report.ForwardDuration = time.Since(forwardStart)
		if err != nil {
			return nil, fmt.Errorf("transport: finalize: %w", err)
		}
		return cmp.Or(finalized, global), nil
	})
	if err != nil {
		return fail(err)
	}
	broadcastStart := time.Now()
	payload, err := global.MarshalBinary()
	if err != nil {
		return fail(err)
	}
	answer(MsgGlobalModel, payload)
	report.BroadcastDuration = time.Since(broadcastStart)
	report.Duration = time.Since(start)
	return global, report, nil
}

// buildReport assembles the per-site round report: usable sites sorted by
// id, then connection failures, then expected sites that never delivered.
// Caller holds s.mu.
func (s *Server) buildReport(start time.Time, quorum int, attempts map[string]int,
	failures []SiteOutcome, conns int, expected []string) *RoundReport {

	report := &RoundReport{
		Expect: s.expect,
		Quorum: quorum,
		OK:     len(s.entries),
		Conns:  conns,
	}
	for _, id := range s.sitesLocked() {
		r := s.entries[id]
		if attempts[id] > 1 {
			report.Retried++
		}
		report.UplinkBytes += r.bytes
		report.ObjectsTotal += r.model.NumObjects
		report.RepsTotal += len(r.model.Reps)
		report.Sites = append(report.Sites, SiteOutcome{
			SiteID:     id,
			Addr:       r.conn.RemoteAddr().String(),
			OK:         true,
			Attempts:   attempts[id],
			Bytes:      r.bytes,
			Objects:    r.model.NumObjects,
			Reps:       len(r.model.Reps),
			Duration:   r.dur,
			Phases:     r.sections.phases,
			Budget:     r.sections.budget,
			Agg:        r.sections.agg,
			Negotiated: r.negotiated,
		})
	}
	// Connection failures whose site later succeeded are folded into the
	// retry count, not listed as standalone failures.
	for _, f := range failures {
		if f.SiteID != "" {
			if _, ok := s.entries[f.SiteID]; ok {
				continue
			}
		}
		report.Sites = append(report.Sites, f)
		report.Failed++
	}
	// Expected sites that never delivered a usable model and were never
	// identified on a failed connection.
	named := make(map[string]bool)
	for _, site := range report.Sites {
		if site.SiteID != "" {
			named[site.SiteID] = true
		}
	}
	for _, id := range expected {
		if named[id] {
			continue
		}
		reason := "no connection before the round deadline"
		if attempts[id] > 0 {
			reason = "no usable model before the round deadline"
		}
		report.Sites = append(report.Sites, SiteOutcome{
			SiteID:   id,
			Reason:   reason,
			Attempts: attempts[id],
		})
		report.Failed++
	}
	report.Duration = time.Since(start)
	return report
}
