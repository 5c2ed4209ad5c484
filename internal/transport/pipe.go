package transport

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// pipeNet is the in-memory network behind a local hub. listen opens a
// listener under a fresh name, and dialing that name hands one end of a
// net.Pipe to the listener's Accept. The servers and clients run on it
// unchanged: frames, deadlines and closes behave as they do on TCP.
type pipeNet struct {
	mu        sync.Mutex
	listeners map[string]*pipeListener
}

func (n *pipeNet) listen() (net.Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	l := &pipeListener{
		addr:  pipeAddr(fmt.Sprintf("pipe:%d", len(n.listeners))),
		conns: make(chan net.Conn),
		done:  make(chan struct{}),
	}
	n.listeners[string(l.addr)] = l
	return l, nil
}

// dial connects to the listener named addr. An unknown or closed listener
// refuses the connection, as a TCP port with nothing listening does. The
// accept loop takes connections as they come, so the dial needs no
// timeout of its own.
func (n *pipeNet) dial(addr string, _ time.Duration) (net.Conn, error) {
	n.mu.Lock()
	l := n.listeners[addr]
	n.mu.Unlock()
	if l != nil {
		client, server := net.Pipe()
		select {
		case l.conns <- server:
			return &deadlineConn{Conn: client}, nil
		case <-l.done:
			client.Close()
			server.Close()
		}
	}
	return nil, fmt.Errorf("dial pipe %q: connection refused", addr)
}

// deadlineConn is the dialing end of a net.Pipe with a SetDeadline that
// allocates nothing once warm. The pipe's own starts a fresh time.AfterFunc
// timer for its read and for its write deadline on every call, four
// allocations per exchange; this end re-arms one timer of its own, which
// expires the pipe's deadlines by setting them in the past. The clients
// set deadlines with SetDeadline alone; SetReadDeadline and
// SetWriteDeadline reach the pipe unchanged.
type deadlineConn struct {
	net.Conn
	mu    sync.Mutex
	at    time.Time // the deadline; zero: none
	timer *time.Timer
}

func (c *deadlineConn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.at = t
	d := time.Until(t)
	if t.IsZero() || d <= 0 {
		if c.timer != nil {
			c.timer.Stop()
		}
		return c.Conn.SetDeadline(t)
	}
	// Clear an expired deadline, then arm the timer for the new one.
	if err := c.Conn.SetDeadline(time.Time{}); err != nil {
		return err
	}
	if c.timer == nil {
		c.timer = time.AfterFunc(d, c.expire)
	} else {
		c.timer.Reset(d)
	}
	return nil
}

// expire runs on the timer. A deadline set since the timer was armed is
// either cleared or still ahead, and then the timer waits for it instead.
func (c *deadlineConn) expire() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.at.IsZero() {
		return
	}
	if d := time.Until(c.at); d > 0 {
		c.timer.Reset(d)
		return
	}
	_ = c.Conn.SetDeadline(c.at) // fails only on a closed pipe, which has nothing left to expire
}

// pipeListener is one listener of a pipeNet.
type pipeListener struct {
	addr  pipeAddr
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return l.addr }

type pipeAddr string

func (a pipeAddr) Network() string { return "pipe" }
func (a pipeAddr) String() string  { return string(a) }
