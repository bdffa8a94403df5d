package transport

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"time"

	"github.com/dbdc-go/dbdc/internal/dbdc"
	"github.com/dbdc-go/dbdc/internal/model"
)

// deadlineListener is the optional listener capability the server uses to
// bound the accept phase. *net.TCPListener and faultnet.Listener have it.
type deadlineListener interface{ SetDeadline(time.Time) error }

// Server is the central DBDC site: it accepts connections from client
// sites, collects their local models, derives the global model and sends it
// back on every usable connection.
type Server struct {
	uploadEndpoint

	cfg dbdc.Config
	// expect is the number of distinct site models one round aims for.
	expect  int
	timeout time.Duration
	ln      net.Listener

	// onGlobal, when set, receives every freshly computed global model
	// (see SetOnGlobal).
	onGlobal func(*model.GlobalModel)
}

// SetOnGlobal registers a sink that receives every global model a round
// computes, immediately after the global step succeeds and before the
// broadcast to the sites. This is how commands feed the serving-side model
// registry (internal/serve.Registry.PublishFunc) without the transport
// layer depending on it. The callback runs synchronously on the round
// goroutine — keep it fast. Not safe to call concurrently with a running
// round; set it once, right after NewServer.
func (s *Server) SetOnGlobal(fn func(*model.GlobalModel)) { s.onGlobal = fn }

// NewServer listens on addr (e.g. "127.0.0.1:0") for rounds of expect
// sites. timeout bounds each connection's I/O and the default accept
// window; zero means 30s.
func NewServer(addr string, expect int, cfg dbdc.Config, timeout time.Duration) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	srv, err := NewServerListener(ln, expect, cfg, timeout)
	if err != nil {
		ln.Close()
		return nil, err
	}
	return srv, nil
}

// NewServerListener builds a server on an existing listener. This is how
// the fault-injection tests interpose faultnet.Listener; production code
// normally uses NewServer. The listener should support SetDeadline
// (net.TCPListener does) or rounds cannot bound their accept phase.
func NewServerListener(ln net.Listener, expect int, cfg dbdc.Config, timeout time.Duration) (*Server, error) {
	if expect < 1 {
		return nil, fmt.Errorf("transport: server needs at least one site, got %d", expect)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	return &Server{cfg: cfg, expect: expect, timeout: timeout, ln: ln}, nil
}

// Addr returns the address the server listens on.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close releases the listener.
func (s *Server) Close() error { return s.ln.Close() }

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
	// upload (sectionSiteBudget); nil for unbudgeted uploads.
	Budget *SiteBudget
	// Agg is the aggregation provenance of a condensed upload
	// (sectionAggLevel): set when this "site" is really an interior node
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

// readResult is what the per-connection reader goroutine delivers.
type readResult struct {
	upload
	conn net.Conn
	addr string
	err  error
	dur  time.Duration
}

// readLocalModel reads one site's upload off a fresh connection under the
// round deadline.
func (s *Server) readLocalModel(conn net.Conn, deadline time.Time, out chan<- readResult) {
	start := time.Now()
	conn.SetDeadline(deadline)
	up, err := s.readUpload(conn, false)
	out <- readResult{upload: up, conn: conn, addr: conn.RemoteAddr().String(), err: err, dur: time.Since(start)}
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
// Fault behavior: the accept phase runs under a hard deadline (fixing the
// historical hang when a site never connected — the listener deadline is
// set before Accept, not after), failed uploads do not consume a site
// slot (a retrying site replaces its earlier failed attempt by id), and
// the round completes as soon as all expected sites are in, or at the
// deadline with at least Quorum usable models.
func (s *Server) RunRoundOpts(opts RoundOptions) (*model.GlobalModel, *RoundReport, error) {
	start := time.Now()
	quorum := opts.Quorum
	if quorum <= 0 {
		quorum = 1
	}
	if quorum > s.expect {
		quorum = s.expect
	}
	acceptTimeout := opts.AcceptTimeout
	if acceptTimeout <= 0 {
		acceptTimeout = s.timeout
	}
	deadline := time.Now().Add(acceptTimeout)

	// Accept-phase deadline: set on the listener *before* blocking in
	// Accept so a round with an absent site terminates.
	dl, hasDeadline := s.ln.(deadlineListener)
	if hasDeadline {
		dl.SetDeadline(deadline)
	}

	type accepted struct {
		conn net.Conn
		err  error
	}
	connCh := make(chan accepted)
	stop := make(chan struct{})
	acceptDone := make(chan struct{})
	go func() {
		defer close(acceptDone)
		for {
			conn, err := s.ln.Accept()
			if err != nil {
				select {
				case connCh <- accepted{err: err}:
				case <-stop:
				}
				return
			}
			select {
			case connCh <- accepted{conn: conn}:
			case <-stop:
				conn.Close()
				return
			}
		}
	}()
	// Tear the accept goroutine down no matter how the round ends, and
	// clear the listener deadline so later rounds start fresh.
	defer func() {
		if hasDeadline {
			dl.SetDeadline(time.Now()) // unblock a pending Accept
		}
		close(stop)
		<-acceptDone
		if hasDeadline {
			dl.SetDeadline(time.Time{})
		}
	}()

	results := make(chan readResult)
	good := make(map[string]readResult) // site id -> usable upload
	attempts := make(map[string]int)    // site id -> connections seen
	var failures []SiteOutcome
	reading := 0
	conns := 0
	acceptOpen := true
	var listenErr error

	for {
		if reading == 0 && (!acceptOpen || len(good) >= s.expect) {
			break
		}
		ch := connCh
		if !acceptOpen {
			ch = nil
		}
		select {
		case a := <-ch:
			if a.err != nil {
				acceptOpen = false
				var ne net.Error
				if !(errors.As(a.err, &ne) && ne.Timeout()) {
					// Listener closed underneath us.
					listenErr = a.err
				}
				continue
			}
			conns++
			reading++
			go s.readLocalModel(a.conn, deadline, results)
		case r := <-results:
			reading--
			if r.siteID != "" {
				attempts[r.siteID]++
			}
			if r.err != nil {
				r.conn.Close()
				failures = append(failures, SiteOutcome{
					SiteID:   r.siteID,
					Addr:     r.addr,
					Reason:   r.err.Error(),
					Attempts: attempts[r.siteID],
					Bytes:    r.bytes,
					Duration: r.dur,
				})
				continue
			}
			if prev, ok := good[r.siteID]; ok {
				// A site re-uploaded (e.g. it retried after a reply
				// it never saw); keep the newest connection.
				prev.conn.Close()
			}
			good[r.siteID] = r
			if len(good) >= s.expect {
				acceptOpen = false
			}
		}
	}

	report := s.buildReport(start, quorum, good, attempts, failures, conns, opts.ExpectedSites)

	closeGood := func(msg string) {
		for _, r := range good {
			if msg != "" {
				r.conn.SetDeadline(time.Now().Add(s.timeout))
				WriteFrame(r.conn, MsgError, []byte(msg))
			}
			r.conn.Close()
		}
	}

	if listenErr != nil && len(good) < s.expect {
		closeGood("")
		return nil, report, fmt.Errorf("transport: accept: %w", listenErr)
	}
	if len(good) == 0 {
		var first string
		if len(failures) > 0 {
			first = failures[0].Reason
		} else {
			first = "no site connected before the deadline"
		}
		return nil, report, fmt.Errorf("transport: no usable local models (%d connections failed, first: %s)",
			len(failures), first)
	}
	if len(good) < quorum {
		err := fmt.Errorf("transport: quorum not met: %d usable models of %d expected, need %d",
			len(good), s.expect, quorum)
		closeGood(err.Error())
		return nil, report, err
	}

	// Deterministic server-side order, matching the in-process
	// orchestrator: models sorted by site id.
	ids := make([]string, 0, len(good))
	for id := range good {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	models := make([]*model.LocalModel, 0, len(ids))
	for _, id := range ids {
		models = append(models, good[id].model)
	}

	globalStart := time.Now()
	global, err := dbdc.GlobalStep(models, s.cfg)
	report.GlobalStepDuration = time.Since(globalStart)
	if err != nil {
		closeGood(err.Error())
		report.Duration = time.Since(start)
		return nil, report, err
	}
	if opts.Finalize != nil {
		// Interior tree node: condense the regional model, forward it to
		// the parent, and broadcast whatever comes back (the root's
		// model) to the children. On error the children get a MsgError —
		// an unreachable parent fails the whole subtree's round rather
		// than silently serving a regional model as if it were global.
		forwardStart := time.Now()
		finalized, ferr := opts.Finalize(global, report)
		report.ForwardDuration = time.Since(forwardStart)
		if ferr != nil {
			closeGood(ferr.Error())
			report.Duration = time.Since(start)
			return nil, report, fmt.Errorf("transport: finalize: %w", ferr)
		}
		if finalized != nil {
			global = finalized
		}
	}
	if s.onGlobal != nil {
		// Publish before the broadcast: classification readers switch to
		// the new model no later than the sites that trained it.
		s.onGlobal(global)
	}
	broadcastStart := time.Now()
	payload, err := global.MarshalBinary()
	if err != nil {
		closeGood(err.Error())
		report.Duration = time.Since(start)
		return nil, report, err
	}
	for _, id := range ids {
		r := good[id]
		r.conn.SetDeadline(time.Now().Add(s.timeout))
		if s.reply(r.conn, MsgGlobalModel, payload) == nil {
			report.DownlinkBytes += frameHeaderSize + len(payload)
		}
		r.conn.Close()
	}
	report.BroadcastDuration = time.Since(broadcastStart)
	report.Duration = time.Since(start)
	return global, report, nil
}

// buildReport assembles the per-site round report: usable sites sorted by
// id, then connection failures, then expected sites that never delivered.
func (s *Server) buildReport(start time.Time, quorum int, good map[string]readResult,
	attempts map[string]int, failures []SiteOutcome, conns int, expected []string) *RoundReport {

	report := &RoundReport{
		Expect: s.expect,
		Quorum: quorum,
		OK:     len(good),
		Conns:  conns,
	}
	ids := make([]string, 0, len(good))
	for id := range good {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		r := good[id]
		if attempts[id] > 1 {
			report.Retried++
		}
		report.UplinkBytes += r.bytes
		report.ObjectsTotal += r.model.NumObjects
		report.RepsTotal += len(r.model.Reps)
		report.Sites = append(report.Sites, SiteOutcome{
			SiteID:     id,
			Addr:       r.addr,
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
			if _, ok := good[f.SiteID]; ok {
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
