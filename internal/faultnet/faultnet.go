// Package faultnet provides deterministic fault injection for net.Conn and
// net.Listener so transport code can be tested against the failure modes a
// real DBDC deployment sees: sites that never connect, connections that die
// mid-upload, links that corrupt bytes, peers that stall until a deadline
// fires, and slow networks.
//
// Faults are injected *by script*: every connection (indexed by accept or
// dial order) gets a Faults value describing exactly what goes wrong and
// after how many bytes. There is no wall-clock randomness — given the same
// plan and the same traffic, the same faults fire at the same byte offsets,
// which is what makes the transport tests deterministic. The only random
// helper, RandomPlan, derives its decisions from a caller-provided seed and
// the connection index, so it too is reproducible.
//
// Typical use:
//
//	ln, _ := net.Listen("tcp", "127.0.0.1:0")
//	fln := faultnet.NewListener(ln, faultnet.Seq(
//	    &faultnet.Faults{FailReadAfter: 16}, // conn 0: dies 16 bytes in
//	    nil,                                 // conn 1: clean
//	))
//	srv, _ := transport.NewServerListener(fln, ...)
//
// or, for client-side faults,
//
//	d := &faultnet.Dialer{Plan: faultnet.Seq(&faultnet.Faults{Refuse: true})}
//	client := &transport.Client{Addr: addr, Dial: d.DialTimeout}
package faultnet

import (
	"errors"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"
)

// ErrInjected is the error returned by scripted read/write failures.
var ErrInjected = errors.New("faultnet: injected fault")

// ErrRefused is returned by a Dialer whose script refuses the connection.
var ErrRefused = errors.New("faultnet: connection refused (scripted)")

// Faults scripts the behavior of one connection. The zero value injects
// nothing. All byte thresholds count payload bytes that passed through the
// faulty side of the connection; a threshold of 0 disables the fault (use
// Refuse for failing before the first byte).
type Faults struct {
	// Refuse rejects the connection outright: a Listener closes it
	// immediately after accept (the peer sees a reset/EOF), a Dialer
	// fails the dial with ErrRefused.
	Refuse bool

	// ConnectDelay delays connection establishment: a Listener sleeps
	// before handing the connection to the server, a Dialer before
	// dialing.
	ConnectDelay time.Duration

	// ReadLatency and WriteLatency are added before every Read/Write
	// call, bounded by the connection deadline.
	ReadLatency  time.Duration
	WriteLatency time.Duration

	// FailReadAfter/FailWriteAfter make the connection return ErrInjected
	// from the first Read/Write once that many bytes have passed in the
	// respective direction, and close the underlying connection so the
	// peer fails too.
	FailReadAfter  int
	FailWriteAfter int

	// StallReadAfter/StallWriteAfter make the connection block once that
	// many bytes have passed, until the respective deadline fires
	// (os.ErrDeadlineExceeded, a timeout net.Error) or the connection is
	// closed. This is the fault that exercises deadline handling.
	StallReadAfter  int
	StallWriteAfter int

	// CutAfterWrite silently drops everything written beyond that many
	// bytes and closes the underlying connection: the local writer
	// believes the write succeeded while the peer sees a truncated
	// stream — the classic mid-upload connection drop.
	CutAfterWrite int

	// FlipWriteByte corrupts the write stream: the byte at this 1-based
	// offset is XORed with FlipMask (default 0x40) before hitting the
	// wire. 0 disables. A CRC-protected protocol must detect this.
	FlipWriteByte int
	// FlipMask is the XOR mask used by FlipWriteByte; 0 means 0x40.
	FlipMask byte
}

// clone returns a copy so shared Faults values in plans are safe.
func (f *Faults) clone() Faults { return *f }

// Plan maps a connection index (accept order for listeners, dial order for
// dialers) to the faults scripted for it. Returning nil yields a clean,
// unwrapped connection.
type Plan func(connIndex int) *Faults

// Seq scripts the first len(faults) connections and leaves every later one
// clean. Nil entries are clean connections.
func Seq(faults ...*Faults) Plan {
	return func(i int) *Faults {
		if i < len(faults) {
			return faults[i]
		}
		return nil
	}
}

// Always applies the same faults to every connection.
func Always(f *Faults) Plan { return func(int) *Faults { return f } }

// RandomPlan applies f to each connection with probability p, decided by a
// rng derived from seed and the connection index — deterministic for a
// given seed regardless of accept timing.
func RandomPlan(seed int64, p float64, f *Faults) Plan {
	return func(i int) *Faults {
		rng := rand.New(rand.NewSource(seed + int64(i)*0x9E3779B9))
		if rng.Float64() < p {
			return f
		}
		return nil
	}
}

// Conn wraps a net.Conn and injects the scripted faults.
type Conn struct {
	inner net.Conn
	f     Faults

	mu            sync.Mutex
	readN, writeN int
	readDeadline  time.Time
	writeDeadline time.Time

	closeOnce sync.Once
	closed    chan struct{}
}

// WrapConn wraps conn with the given faults.
func WrapConn(conn net.Conn, f Faults) *Conn {
	return &Conn{inner: conn, f: f, closed: make(chan struct{})}
}

// BytesRead reports how many bytes passed through Read so far.
func (c *Conn) BytesRead() int { c.mu.Lock(); defer c.mu.Unlock(); return c.readN }

// BytesWritten reports how many bytes the caller wrote (including bytes the
// script silently dropped).
func (c *Conn) BytesWritten() int { c.mu.Lock(); defer c.mu.Unlock(); return c.writeN }

func (c *Conn) deadline(read bool) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	if read {
		return c.readDeadline
	}
	return c.writeDeadline
}

// sleep waits for d but never past the deadline; it returns a timeout error
// if the deadline cuts the sleep short.
func (c *Conn) sleep(d time.Duration, deadline time.Time) error {
	if d <= 0 {
		return nil
	}
	if !deadline.IsZero() {
		if until := time.Until(deadline); until < d {
			c.block(deadline)
			return os.ErrDeadlineExceeded
		}
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-c.closed:
		return net.ErrClosed
	}
}

// block parks until the deadline fires or the connection closes and
// returns the corresponding error.
func (c *Conn) block(deadline time.Time) error {
	var timeC <-chan time.Time
	if !deadline.IsZero() {
		timer := time.NewTimer(time.Until(deadline))
		defer timer.Stop()
		timeC = timer.C
	}
	select {
	case <-timeC:
		return os.ErrDeadlineExceeded
	case <-c.closed:
		return net.ErrClosed
	}
}

// Read implements net.Conn with the scripted read faults.
func (c *Conn) Read(p []byte) (int, error) {
	dl := c.deadline(true)
	if err := c.sleep(c.f.ReadLatency, dl); err != nil {
		return 0, err
	}
	c.mu.Lock()
	n := c.readN
	c.mu.Unlock()
	if c.f.StallReadAfter > 0 && n >= c.f.StallReadAfter {
		return 0, c.block(dl)
	}
	if c.f.FailReadAfter > 0 && n >= c.f.FailReadAfter {
		c.inner.Close()
		return 0, ErrInjected
	}
	limit := len(p)
	if c.f.StallReadAfter > 0 && c.f.StallReadAfter-n < limit {
		limit = c.f.StallReadAfter - n
	}
	if c.f.FailReadAfter > 0 && c.f.FailReadAfter-n < limit {
		limit = c.f.FailReadAfter - n
	}
	got, err := c.inner.Read(p[:limit])
	c.mu.Lock()
	c.readN += got
	c.mu.Unlock()
	return got, err
}

// Write implements net.Conn with the scripted write faults.
func (c *Conn) Write(p []byte) (int, error) {
	dl := c.deadline(false)
	if err := c.sleep(c.f.WriteLatency, dl); err != nil {
		return 0, err
	}
	c.mu.Lock()
	n := c.writeN
	c.mu.Unlock()
	if c.f.StallWriteAfter > 0 && n >= c.f.StallWriteAfter {
		return 0, c.block(dl)
	}
	if c.f.FailWriteAfter > 0 && n >= c.f.FailWriteAfter {
		c.inner.Close()
		return 0, ErrInjected
	}
	// Truncation: pretend the write succeeded, forward only the bytes
	// below the cut, then close so the peer sees a dead, half-written
	// stream.
	if c.f.CutAfterWrite > 0 && n >= c.f.CutAfterWrite {
		c.mu.Lock()
		c.writeN += len(p)
		c.mu.Unlock()
		c.inner.Close()
		return len(p), nil
	}
	limit := len(p)
	if c.f.StallWriteAfter > 0 && c.f.StallWriteAfter-n < limit {
		limit = c.f.StallWriteAfter - n
	}
	if c.f.FailWriteAfter > 0 && c.f.FailWriteAfter-n < limit {
		limit = c.f.FailWriteAfter - n
	}
	cut := false
	if c.f.CutAfterWrite > 0 && c.f.CutAfterWrite-n < limit {
		limit = c.f.CutAfterWrite - n
		cut = true
	}
	out := p[:limit]
	if off := c.f.FlipWriteByte - 1; c.f.FlipWriteByte > 0 && off >= n && off < n+limit {
		mask := c.f.FlipMask
		if mask == 0 {
			mask = 0x40
		}
		corrupted := make([]byte, limit)
		copy(corrupted, out)
		corrupted[off-n] ^= mask
		out = corrupted
	}
	wrote, err := c.inner.Write(out)
	c.mu.Lock()
	c.writeN += wrote
	c.mu.Unlock()
	if err != nil {
		return wrote, err
	}
	if cut {
		// Swallow the remainder and kill the connection.
		c.mu.Lock()
		c.writeN += len(p) - limit
		c.mu.Unlock()
		c.inner.Close()
		return len(p), nil
	}
	if limit < len(p) {
		more, err := c.Write(p[limit:])
		return limit + more, err
	}
	return wrote, nil
}

// Close implements net.Conn.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.inner.Close()
}

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return c.inner.LocalAddr() }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return c.inner.RemoteAddr() }

// SetDeadline implements net.Conn.
func (c *Conn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDeadline, c.writeDeadline = t, t
	c.mu.Unlock()
	return c.inner.SetDeadline(t)
}

// SetReadDeadline implements net.Conn.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDeadline = t
	c.mu.Unlock()
	return c.inner.SetReadDeadline(t)
}

// SetWriteDeadline implements net.Conn.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.writeDeadline = t
	c.mu.Unlock()
	return c.inner.SetWriteDeadline(t)
}

// Listener wraps a net.Listener and applies a Plan to accepted connections
// in accept order.
type Listener struct {
	inner net.Listener
	plan  Plan

	mu       sync.Mutex
	next     int
	accepted int
	refused  int
}

// NewListener wraps ln. plan may be nil (every connection clean).
func NewListener(ln net.Listener, plan Plan) *Listener {
	return &Listener{inner: ln, plan: plan}
}

// Accepted reports how many connections were handed to the caller.
func (l *Listener) Accepted() int { l.mu.Lock(); defer l.mu.Unlock(); return l.accepted }

// Refused reports how many connections the script rejected.
func (l *Listener) Refused() int { l.mu.Lock(); defer l.mu.Unlock(); return l.refused }

// Accept implements net.Listener: scripted refusals close the connection
// and keep accepting, everything else is wrapped per plan.
func (l *Listener) Accept() (net.Conn, error) {
	for {
		conn, err := l.inner.Accept()
		if err != nil {
			return nil, err
		}
		l.mu.Lock()
		i := l.next
		l.next++
		l.mu.Unlock()
		var f *Faults
		if l.plan != nil {
			f = l.plan(i)
		}
		if f == nil {
			l.mu.Lock()
			l.accepted++
			l.mu.Unlock()
			return conn, nil
		}
		if f.Refuse {
			conn.Close()
			l.mu.Lock()
			l.refused++
			l.mu.Unlock()
			continue
		}
		if f.ConnectDelay > 0 {
			time.Sleep(f.ConnectDelay)
		}
		l.mu.Lock()
		l.accepted++
		l.mu.Unlock()
		return WrapConn(conn, f.clone()), nil
	}
}

// Close implements net.Listener.
func (l *Listener) Close() error { return l.inner.Close() }

// Addr implements net.Listener.
func (l *Listener) Addr() net.Addr { return l.inner.Addr() }

// Dialer produces faulty client-side connections, applying a Plan in dial
// order. The zero value dials cleanly.
type Dialer struct {
	// Plan scripts the i-th dial attempt; nil means all dials clean.
	Plan Plan

	mu    sync.Mutex
	dials int
}

// Dials reports how many dial attempts were made (including refused ones).
func (d *Dialer) Dials() int { d.mu.Lock(); defer d.mu.Unlock(); return d.dials }

// DialTimeout dials addr like net.DialTimeout with the scripted faults
// applied. Its signature matches transport.DialFunc.
func (d *Dialer) DialTimeout(network, addr string, timeout time.Duration) (net.Conn, error) {
	d.mu.Lock()
	i := d.dials
	d.dials++
	d.mu.Unlock()
	var f *Faults
	if d.Plan != nil {
		f = d.Plan(i)
	}
	if f != nil && f.Refuse {
		return nil, ErrRefused
	}
	if f != nil && f.ConnectDelay > 0 {
		time.Sleep(f.ConnectDelay)
	}
	conn, err := net.DialTimeout(network, addr, timeout)
	if err != nil || f == nil {
		return conn, err
	}
	return WrapConn(conn, f.clone()), nil
}
