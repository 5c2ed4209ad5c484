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
			return client, nil
		case <-l.done:
			client.Close()
			server.Close()
		}
	}
	return nil, fmt.Errorf("dial pipe %q: connection refused", addr)
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
