package main

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"crowdmax/internal/service"
)

func TestDefaultHTTPTimeouts(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler(), defaultHTTPTimeouts)
	if srv.ReadHeaderTimeout != 10*time.Second || srv.ReadTimeout != time.Minute || srv.IdleTimeout != 2*time.Minute {
		t.Fatalf("timeouts = header %s, read %s, idle %s; want 10s, 1m, 2m",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout = %s; event streams need none", srv.WriteTimeout)
	}
}

// serve starts srv on a loopback port and returns its address.
func serve(t *testing.T, srv *http.Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// TestStalledHeaderDisconnected sends half a request header and stops: the
// server must close the connection once the header timeout passes.
func TestStalledHeaderDisconnected(t *testing.T) {
	addr := serve(t, newHTTPServer(http.NotFoundHandler(),
		httpTimeouts{ReadHeader: 200 * time.Millisecond, Read: time.Minute, Idle: time.Minute}))
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: x\r\nX-Half"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(10 * time.Second))
	_, err = io.Copy(io.Discard, conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection still open after %s", time.Since(start))
	}
	if d := time.Since(start); d < 150*time.Millisecond || d > 5*time.Second {
		t.Fatalf("disconnected after %s, want about the 200ms header timeout", d)
	}
}

// TestFollowStreamOutlivesReadTimeout follows a job's event stream for
// longer than the server's read timeout: the stream must run until the job
// settles instead of being cut off when the read deadline passes.
func TestFollowStreamOutlivesReadTimeout(t *testing.T) {
	svc, err := service.NewServer(service.Options{Dir: t.TempDir(), CmpLatency: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain(context.Background())
	const read = 200 * time.Millisecond
	addr := serve(t, newHTTPServer(svc.Handler(), httpTimeouts{ReadHeader: read, Read: read, Idle: time.Minute}))

	j, err := svc.Submit(service.JobSpec{N: 60, Seed: 1, Un: 4})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, err := http.Get("http://" + addr + "/v1/jobs/" + j.ID + "/events?follow=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var last string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		last = sc.Text()
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream broke after %s: %v", time.Since(start), err)
	}
	if d := time.Since(start); d < 2*read {
		t.Fatalf("job settled in %s, too fast to outlive the %s read timeout", d, read)
	}
	if !strings.Contains(last, `"done"`) {
		t.Fatalf("stream ended after %s before the job settled; last event %s", time.Since(start), last)
	}
}
