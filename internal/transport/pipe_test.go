package transport

import (
	"io"
	"testing"
	"time"
)

// TestPipeDeadlines drives the dialing end of an in-memory pipe through
// its deadlines: one that expires fails a blocked read with a timeout, a
// later one set on the same connection clears it and lets a read through,
// and a warm SetDeadline allocates nothing.
func TestPipeDeadlines(t *testing.T) {
	pn := &pipeNet{listeners: make(map[string]*pipeListener)}
	ln, err := pn.listen()
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan io.ReadWriteCloser, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	conn, err := pn.dial(ln.Addr().String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	server := <-accepted
	defer server.Close()

	buf := make([]byte, 1)
	start := time.Now()
	conn.SetDeadline(start.Add(30 * time.Millisecond))
	if _, err := conn.Read(buf); !isTimeout(err) {
		t.Fatalf("read past the deadline = %v, want a timeout", err)
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Fatalf("deadline expired after %v, want 30ms", elapsed)
	}

	conn.SetDeadline(time.Now().Add(time.Second))
	go server.Write([]byte{7})
	if _, err := conn.Read(buf); err != nil || buf[0] != 7 {
		t.Fatalf("read after a new deadline = %v (%v)", buf, err)
	}

	if n := testing.AllocsPerRun(100, func() {
		conn.SetDeadline(time.Now().Add(time.Second))
	}); n != 0 {
		t.Errorf("a warm SetDeadline allocates %v times", n)
	}
	conn.SetDeadline(time.Now().Add(-time.Second))
	if _, err := conn.Write(buf); !isTimeout(err) {
		t.Fatalf("write past a deadline in the past = %v, want a timeout", err)
	}
}
