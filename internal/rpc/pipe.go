package rpc

import (
	"net"
	"sync"
	"time"
)

// PipeListener is a net.Listener with no socket under it: every Dial
// hands one end of a net.Pipe to Accept. Serve on it and set a Client's
// Dial to its Dial method, and a tier runs in one process with the same
// frames, deadlines and closes as over TCP.
type PipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func NewPipeListener() *PipeListener {
	return &PipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *PipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// Dial connects to the listener, waiting for its Accept or its Close;
// the arguments (a Client's address and dial timeout) are ignored.
func (l *PipeListener) Dial(string, time.Duration) (net.Conn, error) {
	client, server := net.Pipe()
	select {
	case l.conns <- server:
		return client, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *PipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *PipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }
