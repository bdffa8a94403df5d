package transport

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/dbdc"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/model"
)

// DialFunc opens a connection; it matches net.DialTimeout so tests can
// substitute a fault-injecting dialer (internal/faultnet.Dialer.DialTimeout).
type DialFunc func(network, addr string, timeout time.Duration) (net.Conn, error)

// RetryPolicy controls how Client.SendModel retries transient failures:
// exponential backoff starting at BaseDelay, doubling per attempt, capped
// at MaxDelay, with multiplicative jitter of ±Jitter.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts (first try included).
	// Values below 1 mean a single attempt, i.e. no retry.
	MaxAttempts int
	// BaseDelay is the wait after the first failure; 0 means 50ms.
	BaseDelay time.Duration
	// MaxDelay caps the exponential backoff; 0 means 2s.
	MaxDelay time.Duration
	// Jitter is the fraction of the delay randomized around its nominal
	// value, in [0,1]. 0 disables jitter (deterministic delays).
	Jitter float64
}

// DefaultRetryPolicy is the policy RunSite uses: three attempts, 50ms base
// delay, 2s cap, 20% jitter.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second, Jitter: 0.2}
}

// delay returns the backoff before retry number `failures` (1-based count
// of failures so far).
func (p RetryPolicy) delay(failures int, rng *rand.Rand) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	max := p.MaxDelay
	if max <= 0 {
		max = 2 * time.Second
	}
	d := base
	for i := 1; i < failures && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	if p.Jitter > 0 && rng != nil {
		f := 1 + p.Jitter*(2*rng.Float64()-1)
		d = time.Duration(float64(d) * f)
	}
	if d < 0 {
		d = 0
	}
	return d
}

// permanentError marks failures that a retry cannot fix (the server
// explicitly rejected the round, or replied with a well-formed but invalid
// model). Everything else — dial errors, I/O errors, checksum mismatches —
// is considered transient.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

func permanent(err error) error { return &permanentError{err: err} }

// Retryable reports whether SendModel would retry after err.
func Retryable(err error) bool {
	var p *permanentError
	return err != nil && !errors.As(err, &p)
}

// SendStats describes what one SendModel call cost on the wire.
type SendStats struct {
	// Attempts is the number of connection attempts made (1 = no retry).
	Attempts int
	// BytesSent and BytesReceived are summed over all attempts.
	BytesSent     int
	BytesReceived int
	// Log records every attempt with its per-phase timings, failed ones
	// included.
	Log []AttemptStats
}

// Client is the site side of the DBDC round-trip protocol with retry. The
// zero value is not usable; set at least Addr.
type Client struct {
	// Addr is the server address ("host:port").
	Addr string
	// Timeout bounds dialing and each connection's I/O; 0 means 30s.
	Timeout time.Duration
	// Retry controls backoff; the zero value means a single attempt.
	Retry RetryPolicy
	// Dial opens connections; nil means net.DialTimeout. Tests inject
	// faultnet dialers here.
	Dial DialFunc
	// Rand is the jitter source; nil means a time-seeded source. Fix it
	// for deterministic backoff in tests.
	Rand *rand.Rand
	// OnRetry, when set, is invoked before each backoff sleep with the
	// attempt number that failed, its error and the chosen delay.
	OnRetry func(attempt int, err error, delay time.Duration)

	// AppendSections, when set, appends extra sections to every upload
	// payload after the standard metric sections. This is how an
	// aggregation-tree node attaches its provenance section
	// (AppendAggLevelSection) without the transport depending on the tree.
	AppendSections func(dst []byte) []byte

	rngOnce sync.Once
	rng     *rand.Rand
}

func (c *Client) jitterRand() *rand.Rand {
	if c.Rand != nil {
		return c.Rand
	}
	c.rngOnce.Do(func() { c.rng = rand.New(rand.NewSource(time.Now().UnixNano())) })
	return c.rng
}

// SendModel uploads the local model and waits for the global model,
// reconnecting and resending the full model on transient failures per the
// retry policy. The returned stats hold the attempt count and the wire
// cost summed over all attempts. The upload carries no metric sections; use
// SendModelTimed to attach per-phase metrics.
func (c *Client) SendModel(local *model.LocalModel) (*model.GlobalModel, SendStats, error) {
	return c.SendModelTimed(local, nil)
}

// SendModelTimed is SendModel with an optional per-phase metrics section:
// when phases is non-nil the upload carries the site's worker count and
// phase costs to the server's round report. Attempt number and accumulated
// backoff are filled in per attempt by the client.
func (c *Client) SendModelTimed(local *model.LocalModel, phases *SitePhases) (*model.GlobalModel, SendStats, error) {
	modelBytes, err := local.MarshalBinary()
	if err != nil {
		return nil, SendStats{}, err
	}
	return c.send(func(conn net.Conn, as *AttemptStats, slept time.Duration) (*model.GlobalModel, error) {
		return uploadModel(conn, c.uploadPayload(modelBytes, phases, nil, as.Attempt, slept), as)
	})
}

// uploadPayload builds the payload of one upload attempt: the model bytes,
// then the sections the caller has — phase metrics (attempt number and
// backoff stamped in), budget accounting, whatever AppendSections adds.
func (c *Client) uploadPayload(modelBytes []byte, phases *SitePhases, budget *SiteBudget, attempt int, slept time.Duration) []byte {
	payload := append([]byte(nil), modelBytes...)
	if phases != nil {
		p := *phases
		p.Attempt = attempt
		p.Backoff = slept
		payload = appendSitePhasesSection(payload, p)
	}
	if budget != nil {
		payload = appendSiteBudgetSection(payload, *budget)
	}
	if c.AppendSections != nil {
		payload = c.AppendSections(payload)
	}
	return payload
}

// send is the retry loop every upload goes through. Each attempt gets a
// fresh connection with the I/O deadline armed, its AttemptStats (number,
// preceding backoff and dial cost filled in) and the total backoff slept so
// far. Whatever fails without being marked permanent — a refused dial, an
// I/O error, a connection the server closed without replying — is retried
// after the policy's backoff, up to MaxAttempts; a retry repeats the attempt
// unchanged, it never alters what is sent.
func (c *Client) send(attempt func(conn net.Conn, as *AttemptStats, slept time.Duration) (*model.GlobalModel, error)) (*model.GlobalModel, SendStats, error) {
	var stats SendStats
	maxAttempts := max(c.Retry.MaxAttempts, 1)
	var slept, delay time.Duration
	for {
		as := AttemptStats{Attempt: len(stats.Log) + 1, Backoff: delay}
		var global *model.GlobalModel
		conn, err := dialAttempt(c.Dial, c.Addr, c.Timeout, &as)
		if err == nil {
			global, err = attempt(conn, &as, slept)
			conn.Close()
		}
		if err != nil {
			as.Err = err.Error()
		}
		stats.Attempts = as.Attempt
		stats.BytesSent += as.BytesSent
		stats.BytesReceived += as.BytesReceived
		stats.Log = append(stats.Log, as)
		if err == nil {
			return global, stats, nil
		}
		if !Retryable(err) || as.Attempt >= maxAttempts {
			return nil, stats, fmt.Errorf("transport: send model (%d attempt(s)): %w", stats.Attempts, err)
		}
		delay = c.Retry.delay(as.Attempt, c.jitterRand())
		if c.OnRetry != nil {
			c.OnRetry(as.Attempt, err, delay)
		}
		time.Sleep(delay)
		slept += delay
	}
}

// firstByteReader records when the first reply byte arrived, splitting the
// reply wait into "server is still working" and "bytes are flowing".
type firstByteReader struct {
	r     io.Reader
	first time.Time
}

func (f *firstByteReader) Read(p []byte) (int, error) {
	n, err := f.r.Read(p)
	if n > 0 && f.first.IsZero() {
		f.first = time.Now()
	}
	return n, err
}

// dialAttempt opens one attempt's connection, records the dial cost and
// arms the I/O deadline. Client and StreamClient both connect through it.
func dialAttempt(dial DialFunc, addr string, timeout time.Duration, as *AttemptStats) (net.Conn, error) {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	if dial == nil {
		dial = net.DialTimeout
	}
	dialStart := time.Now()
	conn, err := dial("tcp", addr, timeout)
	as.Dial = time.Since(dialStart)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	conn.SetDeadline(time.Now().Add(timeout))
	return conn, nil
}

// exchange writes one frame on an established connection and reads the
// reply, which must be of type want; it accumulates the attempt's wire and
// timing stats. A MsgError reply or any other type is permanent: the server
// answered, a retry would be answered the same way.
func exchange(conn net.Conn, msgType byte, payload []byte, want byte, as *AttemptStats) ([]byte, error) {
	uploadStart := time.Now()
	sent, err := WriteFrame(conn, msgType, payload)
	as.Upload += time.Since(uploadStart)
	as.BytesSent += sent
	if err != nil {
		return nil, err
	}
	waitStart := time.Now()
	fbr := &firstByteReader{r: conn}
	replyType, reply, received, err := ReadFrame(fbr)
	replyEnd := time.Now()
	if fbr.first.IsZero() {
		as.ServerWait += replyEnd.Sub(waitStart)
	} else {
		as.ServerWait += fbr.first.Sub(waitStart)
		as.Download += replyEnd.Sub(fbr.first)
	}
	as.BytesReceived += received
	if err != nil {
		return nil, err
	}
	switch replyType {
	case want:
		return reply, nil
	case MsgError:
		return nil, permanent(fmt.Errorf("transport: server reported: %s", reply))
	default:
		return nil, permanent(fmt.Errorf("transport: unexpected message type 0x%02x", replyType))
	}
}

// uploadModel sends the upload frame and decodes the global model the
// server answers with.
func uploadModel(conn net.Conn, payload []byte, as *AttemptStats) (*model.GlobalModel, error) {
	reply, err := exchange(conn, MsgLocalModelTimed, payload, MsgGlobalModel, as)
	if err != nil {
		return nil, err
	}
	var global model.GlobalModel
	if err := global.UnmarshalBinary(reply); err != nil {
		// The payload passed the CRC, so this is a server-side
		// encoding problem a retry will reproduce.
		return nil, permanent(err)
	}
	if err := global.Validate(); err != nil {
		return nil, permanent(err)
	}
	return &global, nil
}

// Exchange performs the site side of one DBDC round without retry: connect
// to the server, upload the local model and wait for the global model. It
// returns the global model together with the payload bytes sent and
// received. Use a Client with a RetryPolicy for fault tolerance.
func Exchange(addr string, local *model.LocalModel, timeout time.Duration) (*model.GlobalModel, int, int, error) {
	c := &Client{Addr: addr, Timeout: timeout}
	global, stats, err := c.SendModel(local)
	return global, stats.BytesSent, stats.BytesReceived, err
}

// SiteReport is the outcome of RunSite.
type SiteReport struct {
	// Labels is the site's final labeling with global cluster ids.
	Labels cluster.Labeling
	// Stats summarises the relabeling changes.
	Stats dbdc.RelabelStats
	// Global is the received global model.
	Global *model.GlobalModel
	// BytesSent and BytesReceived are the wire costs of the round,
	// summed over all attempts.
	BytesSent     int
	BytesReceived int
	// Attempts is the number of connection attempts the upload needed.
	Attempts int
	// Phases is the client-measured per-phase cost breakdown of the
	// round: local clustering, condensation, upload (per attempt, with
	// backoff), server wait, download, relabel.
	Phases PhaseBreakdown
	// Negotiation describes the budget handshake of a budgeted round
	// (Config.RepBudget > 0): whether the server acked, the advertised
	// byte cap, and the budget the shipped model ended up with after any
	// cap-driven shrink. Zero value for unbudgeted rounds.
	Negotiation Negotiation
}

// RunSite executes the full site-side DBDC pipeline against a remote
// server: local clustering (with Config.SiteWorkers intra-site
// parallelism), model upload (with the default retry policy), global model
// download, relabeling.
func RunSite(addr, siteID string, pts []geom.Point, cfg dbdc.Config, timeout time.Duration) (*SiteReport, error) {
	return RunSiteClient(&Client{Addr: addr, Timeout: timeout, Retry: DefaultRetryPolicy()}, siteID, pts, cfg)
}

// RunSiteClient is RunSite with a caller-configured transport client
// (retry policy, dial function, jitter source). The local clustering runs
// with cfg.SiteWorkers parallel workers, and the phase costs — measured
// here and attached to the upload — surface both in the returned report
// and in the server's RoundReport.
func RunSiteClient(c *Client, siteID string, pts []geom.Point, cfg dbdc.Config) (*SiteReport, error) {
	outcome, err := dbdc.LocalStep(siteID, pts, cfg)
	if err != nil {
		return nil, err
	}
	phases := SitePhases{
		Workers:  outcome.Timings.Workers,
		Cluster:  outcome.Timings.Cluster,
		Condense: outcome.Timings.Condense,
	}
	// A budgeted site handshakes for the server's cap, shrinks to fit and
	// attaches its budget accounting; an unbudgeted outcome makes
	// SendModelBudgeted the plain timed upload.
	global, stats, neg, err := c.SendModelBudgeted(outcome, &phases)
	if err != nil {
		return nil, err
	}
	relabelStart := time.Now()
	labels, relabel, err := dbdc.RelabelSite(outcome, global)
	if err != nil {
		return nil, err
	}
	breakdown := PhaseBreakdown{
		Workers:  outcome.Timings.Workers,
		Cluster:  outcome.Timings.Cluster,
		Condense: outcome.Timings.Condense,
		Relabel:  time.Since(relabelStart),
		Attempts: stats.Log,
	}
	for _, a := range stats.Log {
		breakdown.Upload += a.Upload
		breakdown.ServerWait += a.ServerWait
		breakdown.Download += a.Download
		breakdown.Backoff += a.Backoff
	}
	return &SiteReport{
		Labels:        labels,
		Stats:         relabel,
		Global:        global,
		BytesSent:     stats.BytesSent,
		BytesReceived: stats.BytesReceived,
		Attempts:      stats.Attempts,
		Phases:        breakdown,
		Negotiation:   neg,
	}, nil
}
