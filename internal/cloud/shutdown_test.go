package cloud

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// parkedListener keeps one request in flight for as long as a test
// needs: the first connection it accepts blocks in its first Write —
// the response, personalization done — until release is closed.
type parkedListener struct {
	net.Listener
	first   sync.Once
	writing chan struct{} // closed when the held response reaches Write
	release chan struct{}
}

func listenParked(t *testing.T) *parkedListener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return &parkedListener{Listener: ln, writing: make(chan struct{}), release: make(chan struct{})}
}

func (l *parkedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.first.Do(func() { c = &parkedConn{Conn: c, l: l} })
	}
	return c, err
}

type parkedConn struct {
	net.Conn
	l    *parkedListener
	held sync.Once
}

func (c *parkedConn) Write(p []byte) (int, error) {
	c.held.Do(func() {
		close(c.l.writing)
		<-c.l.release
	})
	return c.Conn.Write(p)
}

// Shutdown must drain: the admitted request finishes and is answered,
// a request arriving on an already-open connection during the drain is
// shed with CodeBusy (not dropped), and the listener stops accepting.
func TestShutdownDrainsInflightAndShedsNew(t *testing.T) {
	f := getFixture(t)
	srv := NewServer(f.sys)
	ln := listenParked(t)
	addr := srv.Serve(ln)

	firstErr := make(chan error, 1)
	go func() {
		cl := NewClient(addr)
		cl.Retry.MaxAttempts = 1
		_, _, err := cl.Fetch(Request{Variant: "B", Classes: []int{0}})
		firstErr <- err
	}()
	<-ln.writing

	// Open a connection now but send its request only after the drain
	// begins — the window where requests must be shed, not dropped.
	late, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	time.Sleep(50 * time.Millisecond) // let the accept loop pick it up

	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(10 * time.Second) }()
	waitFor(t, 5*time.Second, srv.isDraining, "drain to begin")

	if err := writeFrame(late, (&Request{Variant: "B", Classes: []int{0}}).AppendWire(nil)); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if body, err := readFrame(late); err != nil || resp.DecodeWire(body) != nil {
		t.Fatalf("late request got no response: %v", err)
	}
	if resp.Code != CodeBusy {
		t.Fatalf("late request got code %v (%s), want busy shed", resp.Code, resp.Err)
	}

	// Shutdown must still be waiting on the parked request.
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned (%v) with a request in flight", err)
	case <-time.After(100 * time.Millisecond):
	}

	close(ln.release)
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-firstErr; err != nil {
		t.Fatalf("in-flight request failed during drain: %v", err)
	}
	if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		conn.Close()
		t.Fatal("listener still accepting after Shutdown")
	}
}

// When in-flight work outlives the deadline, Shutdown reports it
// instead of blocking forever; the work itself is not killed and still
// completes once unblocked.
func TestShutdownDeadlineExpires(t *testing.T) {
	f := getFixture(t)
	srv := NewServer(f.sys)
	ln := listenParked(t)
	addr := srv.Serve(ln)

	firstErr := make(chan error, 1)
	go func() {
		cl := NewClient(addr)
		cl.Retry.MaxAttempts = 1
		_, _, err := cl.Fetch(Request{Variant: "B", Classes: []int{0}})
		firstErr <- err
	}()
	<-ln.writing

	err := srv.Shutdown(50 * time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "drain deadline") {
		t.Fatalf("Shutdown err=%v, want drain deadline error", err)
	}

	close(ln.release)
	if err := srv.Close(); err != nil { // waits out the straggler
		t.Fatalf("Close after failed drain: %v", err)
	}
	if err := <-firstErr; err != nil {
		t.Fatalf("straggler request failed: %v", err)
	}
}
