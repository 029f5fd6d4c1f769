package faults

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"
)

// tcpPair returns the two ends of a loopback TCP connection.
func tcpPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		ch <- res{c, err}
	}()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	t.Cleanup(func() { client.Close(); r.c.Close() })
	return client, r.c
}

func TestDropBlackholesAfterBudget(t *testing.T) {
	client, server := tcpPair(t)
	fc := WrapConn(server, Plan{DropAfter: 8}, Drop, 1)
	if _, err := fc.Write(bytes.Repeat([]byte{0xAA}, 8)); err != nil {
		t.Fatal(err)
	}
	// Past the budget: the write claims success but goes nowhere.
	n, err := fc.Write(bytes.Repeat([]byte{0xBB}, 8))
	if err != nil || n != 8 {
		t.Fatalf("black-holed write reported (%d, %v), want (8, nil)", n, err)
	}
	got := make([]byte, 8)
	if _, err := io.ReadFull(client, got); err != nil {
		t.Fatalf("reading delivered prefix: %v", err)
	}
	// Nothing further ever arrives; the peer is left to its deadline.
	_ = client.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if _, err := client.Read(got); err == nil {
		t.Fatal("read past drop budget returned data")
	} else if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
		t.Fatalf("want timeout waiting on dropped conn, got %v", err)
	}
}

func TestCloseMidStream(t *testing.T) {
	client, server := tcpPair(t)
	fc := WrapConn(server, Plan{CloseAfter: 10}, CloseMidStream, 1)
	if _, err := fc.Write(make([]byte, 6)); err != nil {
		t.Fatal(err)
	}
	if _, err := fc.Write(make([]byte, 8)); err == nil {
		t.Fatal("write crossing the close budget succeeded")
	}
	got, err := io.ReadAll(client)
	if err != nil {
		t.Fatalf("peer read: %v", err)
	}
	if len(got) != 10 {
		t.Fatalf("peer received %d bytes before the mid-stream close, want 10", len(got))
	}
}

func TestCorruptFlipsExactlyOneBit(t *testing.T) {
	client, server := tcpPair(t)
	fc := WrapConn(server, Plan{}, Corrupt, 42)
	payload := bytes.Repeat([]byte{0x5C}, 128)
	if _, err := fc.Write(payload); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 128)
	if _, err := io.ReadFull(client, got); err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range got {
		if x := got[i] ^ payload[i]; x != 0 {
			diff++
			if x&(x-1) != 0 {
				t.Fatalf("byte %d changed by more than one bit: %02x", i, x)
			}
		}
	}
	if diff != 1 {
		t.Fatalf("%d bytes corrupted, want exactly 1", diff)
	}
	// The caller's buffer must not be mutated.
	for _, b := range payload {
		if b != 0x5C {
			t.Fatal("Write mutated the caller's buffer")
		}
	}
}

func TestLatencyInjection(t *testing.T) {
	_, server := tcpPair(t)
	fc := WrapConn(server, Plan{Latency: 40 * time.Millisecond}, Clean, 1)
	start := time.Now()
	if _, err := fc.Write(make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 35*time.Millisecond {
		t.Fatalf("write took %v, want ≥ ~40ms of injected latency", el)
	}
}

func TestListenerModesDeterministic(t *testing.T) {
	plan := Plan{Seed: 5, DropProb: 0.3, CloseProb: 0.3, CorruptProb: 0.3}
	run := func() []Mode {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		fl := WrapListener(ln, plan)
		var modes []Mode
		for i := 0; i < 10; i++ {
			c, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			sc, err := fl.Accept()
			if err != nil {
				t.Fatal(err)
			}
			modes = append(modes, sc.(*Conn).mode)
			sc.Close()
			c.Close()
		}
		return modes
	}
	a, b := run(), run()
	distinct := map[Mode]bool{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("mode sequences diverge at conn %d: %v vs %v", i, a, b)
		}
		distinct[a[i]] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("seeded plan produced only one mode across 10 conns: %v", a)
	}
}

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan("seed=7,drop=0.1,close=0.2,corrupt=0.3,latency=20ms,dropafter=64,closeafter=256")
	if err != nil {
		t.Fatal(err)
	}
	want := Plan{Seed: 7, DropProb: 0.1, CloseProb: 0.2, CorruptProb: 0.3,
		Latency: 20 * time.Millisecond, DropAfter: 64, CloseAfter: 256}
	if p != want {
		t.Fatalf("parsed %+v, want %+v", p, want)
	}
	if !p.Active() {
		t.Fatal("parsed plan not active")
	}
	if p, err := ParsePlan(""); err != nil || p.Active() {
		t.Fatalf("empty spec: %+v, %v", p, err)
	}
	for _, bad := range []string{
		"nope=1", "drop", "drop=x", "drop=1.5", "latency=-5ms",
		"drop=0.5,close=0.4,corrupt=0.3", // sums past 1
	} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}
