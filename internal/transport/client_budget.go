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
// byte cap, shrinks the representative budget to the largest whose model
// frame fits under it, and uploads with the budget accounting section
// attached for the round report. Handshake wire costs count toward the
// attempt's upload and wait phases.
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
		ack, _, err := exchange(conn, MsgHello, encodeHello(outcome.RepBudget), MsgHelloAck, as)
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
// cap, together with the ready-to-send payload. Only the representatives'
// bytes depend on the budget, so when the configured budget's frame is over
// the cap, the outcome names the largest budget that saves the excess
// (dbdc.LocalOutcome.ShrinkBudget), and that budget is encoded once. A cap
// no budget satisfies — even a single representative per cluster is too
// big — is a permanent error, retrying cannot shrink the model further.
func (c *Client) fitBudget(outcome *dbdc.LocalOutcome, phases *SitePhases, attempt int, slept time.Duration, cap int64) (int, []byte, dbscan.BudgetStats, error) {
	fits := func(payload []byte) bool {
		return cap <= 0 || int64(frameHeaderSize+len(payload)) <= cap
	}
	b := outcome.RepBudget
	payload, stats, err := c.budgetedPayload(outcome, b, phases, attempt, slept)
	if err != nil {
		return 0, nil, stats, err
	}
	if fits(payload) {
		return b, payload, stats, nil
	}
	if b = outcome.ShrinkBudget(int64(frameHeaderSize+len(payload)) - cap); b == 0 {
		return 0, nil, dbscan.BudgetStats{}, permanent(fmt.Errorf(
			"transport: model exceeds the server's %d-byte upload cap even at budget 1", cap))
	}
	if payload, stats, err = c.budgetedPayload(outcome, b, phases, attempt, slept); err != nil {
		return 0, nil, stats, err
	}
	if !fits(payload) {
		return 0, nil, dbscan.BudgetStats{}, permanent(fmt.Errorf(
			"transport: budget %d's %d-byte upload exceeds the server's %d-byte cap", b, frameHeaderSize+len(payload), cap))
	}
	return b, payload, stats, nil
}
