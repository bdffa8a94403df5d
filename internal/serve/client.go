package serve

import (
	"fmt"
	"net"
	"time"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/transport"
)

// Client speaks the classification protocol over one persistent
// connection. It is not safe for concurrent use — give each goroutine its
// own Client (the load generator does exactly that).
type Client struct {
	conn    net.Conn
	timeout time.Duration
	// out and in are the request and reply frames, kept from one request
	// to the next within maxKeptBytes, as a server connection keeps its
	// buffers.
	out, in []byte
}

// Dial connects to a classification front end. timeout bounds dialing and
// each request; 0 means transport.DefaultTimeout.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	timeout = transport.IOTimeout(timeout)
	conn, err := transport.Dial(nil, addr, timeout)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, timeout: timeout}, nil
}

// Close tears the connection down.
func (c *Client) Close() error { return c.conn.Close() }

// Classify labels one point against the server's current model and
// returns the label with the model version that produced it.
func (c *Client) Classify(p geom.Point) (cluster.ID, uint64, error) {
	labels, version, err := c.exchange(transport.MsgClassify, []geom.Point{p})
	if err != nil {
		return cluster.Noise, 0, err
	}
	if len(labels) != 1 {
		return cluster.Noise, version, fmt.Errorf("serve: reply carries %d labels, want 1", len(labels))
	}
	return labels[0], version, nil
}

// ClassifyBatch labels a batch of points in one round trip. The returned
// labels align positionally with pts and belong to the caller: the client
// does not reuse them.
func (c *Client) ClassifyBatch(pts []geom.Point) ([]cluster.ID, uint64, error) {
	return c.exchange(transport.MsgClassifyBatch, pts)
}

// exchange performs one request/response round trip on the persistent
// connection.
func (c *Client) exchange(msgType byte, pts []geom.Point) ([]cluster.ID, uint64, error) {
	c.conn.SetDeadline(time.Now().Add(c.timeout))
	c.out = transport.AppendPoints(transport.StartFrame(c.out), pts)
	payload, err := transport.RoundTrip(c.conn, msgType, c.out, transport.MsgClassifyReply, c.in)
	c.out = kept(c.out)
	if err != nil {
		return nil, 0, err
	}
	c.in = kept(payload)
	version, labels, err := DecodeReply(payload)
	if err != nil {
		return nil, 0, err
	}
	if len(labels) != len(pts) {
		return nil, version, fmt.Errorf("serve: reply carries %d labels for %d points", len(labels), len(pts))
	}
	return labels, version, nil
}
