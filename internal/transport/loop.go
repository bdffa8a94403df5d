package transport

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// DefaultTimeout is what a zero timeout stands for on every server and
// client of this module: it bounds dialing and each connection's I/O, and on
// the round server the accept phase and a connection's wait for a round.
const DefaultTimeout = 30 * time.Second

// IOTimeout returns d, or DefaultTimeout when d is not positive.
func IOTimeout(d time.Duration) time.Duration {
	if d <= 0 {
		return DefaultTimeout
	}
	return d
}

// ConnLoop is the one connection lifecycle of every server in this module —
// the round and update servers, the site query server and the
// classification front end: accept, run one handler per connection, close
// the connection when its handler returns. The servers differ only in their
// handlers.
type ConnLoop struct {
	ln net.Listener
	// closing is closed by Close; a handler that waits on something other
	// than its connection watches it.
	closing chan struct{}

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup
}

// Listen opens a TCP listener on addr and returns the loop over it.
func Listen(addr string) (*ConnLoop, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	return NewConnLoop(ln), nil
}

// NewConnLoop returns the loop over an existing listener (fault-injection
// tests interpose faultnet.Listener this way).
func NewConnLoop(ln net.Listener) *ConnLoop {
	return &ConnLoop{ln: ln, closing: make(chan struct{}), conns: make(map[net.Conn]struct{})}
}

// Addr returns the listen address.
func (l *ConnLoop) Addr() string { return l.ln.Addr().String() }

func (l *ConnLoop) closed() bool {
	select {
	case <-l.closing:
		return true
	default:
		return false
	}
}

// Serve accepts connections and runs handle on each in a goroutine of its
// own, closing the connection when handle returns. It stops after n
// connections (0 = no limit), after Close, or at the first accept failure,
// and returns once every handler has returned: nil after n connections or
// Close, the accept error otherwise.
func (l *ConnLoop) Serve(n int, handle func(net.Conn)) error {
	defer l.wg.Wait()
	for done := 0; n == 0 || done < n; done++ {
		conn, err := l.ln.Accept()
		if err != nil {
			if l.closed() {
				return nil
			}
			return fmt.Errorf("transport: accept: %w", err)
		}
		l.mu.Lock()
		if l.closed() {
			l.mu.Unlock()
			conn.Close()
			return nil
		}
		l.conns[conn] = struct{}{}
		l.wg.Add(1)
		l.mu.Unlock()
		go func() {
			defer l.wg.Done()
			defer func() {
				l.mu.Lock()
				delete(l.conns, conn)
				l.mu.Unlock()
				conn.Close()
			}()
			handle(conn)
		}()
	}
	return nil
}

// Close stops accepting, closes every open connection and waits for the
// handlers to return. A second Close is a no-op.
func (l *ConnLoop) Close() error {
	l.mu.Lock()
	if l.closed() {
		l.mu.Unlock()
		return nil
	}
	close(l.closing)
	err := l.ln.Close()
	for conn := range l.conns {
		conn.Close()
	}
	l.mu.Unlock()
	l.wg.Wait()
	return err
}
