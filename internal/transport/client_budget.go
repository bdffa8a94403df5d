package transport

import (
	"fmt"
	"net"
	"time"

	"github.com/dbdc-go/dbdc/internal/dbdc"
	"github.com/dbdc-go/dbdc/internal/dbscan"
	"github.com/dbdc-go/dbdc/internal/model"
)

// Negotiation describes how the budget handshake of one SendModelBudgeted
// call ended.
type Negotiation struct {
	// Acked reports whether the server answered the MsgHello handshake.
	Acked bool
	// MaxUploadBytes is the server-advertised upload cap (0 = none).
	MaxUploadBytes int64
	// Budget is the per-cluster budget the shipped model was built under:
	// the configured Config.RepBudget, or less after a cap-driven shrink.
	Budget int
	// Stats is the selector accounting of the shipped model.
	Stats dbscan.BudgetStats
}

// SendModelBudgeted uploads a budgeted site's local model: every attempt
// opens with the MsgHello/MsgHelloAck handshake to learn the server's upload
// byte cap, shrinks the representative budget until the model frame fits
// under it, and uploads with the budget accounting section attached for the
// round report. Handshake wire costs count toward the attempt's upload and
// wait phases.
//
// An outcome with RepBudget 0 delegates to SendModelTimed: no handshake, no
// budget section.
func (c *Client) SendModelBudgeted(outcome *dbdc.LocalOutcome, phases *SitePhases) (*model.GlobalModel, SendStats, Negotiation, error) {
	var neg Negotiation
	if outcome.RepBudget <= 0 {
		global, stats, err := c.SendModelTimed(outcome.Model, phases)
		return global, stats, neg, err
	}
	neg.Budget = outcome.RepBudget
	neg.Stats = outcome.Budget
	global, stats, err := c.send(func(conn net.Conn, as *AttemptStats, slept time.Duration) (*model.GlobalModel, error) {
		as.Negotiated = true
		ack, err := exchange(conn, MsgHello, encodeHello(outcome.RepBudget), MsgHelloAck, as)
		if err != nil {
			return nil, err
		}
		cap, err := parseHelloAck(ack)
		if err != nil {
			return nil, permanent(err)
		}
		neg.Acked = true
		neg.MaxUploadBytes = cap
		b, payload, stats, err := c.fitBudget(outcome, phases, as.Attempt, slept, cap)
		if err != nil {
			return nil, err
		}
		neg.Budget = b
		neg.Stats = stats
		return uploadModel(conn, payload, as)
	})
	return global, stats, neg, err
}

// budgetedPayload builds the upload payload for the given budget: model
// bytes, phase metrics and the budget accounting section.
func (c *Client) budgetedPayload(outcome *dbdc.LocalOutcome, budget int, phases *SitePhases, attempt int, slept time.Duration) ([]byte, dbscan.BudgetStats, error) {
	m, stats, err := outcome.BudgetedModel(budget)
	if err != nil {
		return nil, stats, err
	}
	modelBytes, err := m.MarshalBinary()
	if err != nil {
		return nil, stats, err
	}
	return c.uploadPayload(modelBytes, phases, &SiteBudget{
		RepBudget:        budget,
		RepsDropped:      stats.Dropped(),
		CoverageFraction: stats.CoverageFraction(),
	}, attempt, slept), stats, nil
}

// fitBudget returns the largest per-cluster budget ≤ the configured one
// whose full upload frame (header included) fits under the advertised byte
// cap, together with the ready-to-send payload. Payload size is monotone in
// the budget, so a binary search finds the fit; a cap no budget satisfies —
// even a single representative per cluster is too big — is a permanent
// error, retrying cannot shrink the model further.
func (c *Client) fitBudget(outcome *dbdc.LocalOutcome, phases *SitePhases, attempt int, slept time.Duration, cap int64) (int, []byte, dbscan.BudgetStats, error) {
	fits := func(payload []byte) bool {
		return cap <= 0 || int64(frameHeaderSize+len(payload)) <= cap
	}
	build := func(b int) ([]byte, dbscan.BudgetStats, error) {
		return c.budgetedPayload(outcome, b, phases, attempt, slept)
	}
	payload, stats, err := build(outcome.RepBudget)
	if err != nil {
		return 0, nil, stats, err
	}
	if fits(payload) {
		return outcome.RepBudget, payload, stats, nil
	}
	lo, hi := 1, outcome.RepBudget-1
	bestB := 0
	var bestPayload []byte
	var bestStats dbscan.BudgetStats
	for lo <= hi {
		mid := (lo + hi) / 2
		p, s, err := build(mid)
		if err != nil {
			return 0, nil, s, err
		}
		if fits(p) {
			bestB, bestPayload, bestStats = mid, p, s
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	if bestB == 0 {
		return 0, nil, bestStats, permanent(fmt.Errorf(
			"transport: model exceeds the server's %d-byte upload cap even at budget 1", cap))
	}
	return bestB, bestPayload, bestStats, nil
}
