package main

import (
	"context"
	"errors"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cloudviews"
	"cloudviews/internal/server"
)

// TestServeShutsDownOnEveryExit: however serving ends — the listener fails,
// or a shutdown signal arrives while a client holds a request open past the
// grace period — serve runs srv.Shutdown, so accepted jobs drain and the
// storage engine closes, and it reports the error that ended serving.
func TestServeShutsDownOnEveryExit(t *testing.T) {
	newServer := func(t *testing.T) (*server.Server, *atomic.Int32) {
		t.Helper()
		sys, err := cloudviews.NewSystem(cloudviews.Config{ClusterName: "serve-test"})
		if err != nil {
			t.Fatal(err)
		}
		var closed atomic.Int32
		srv, err := server.New(server.Config{
			System:       sys,
			AdminToken:   "root",
			CloseStorage: func() error { closed.Add(1); return nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		return srv, &closed
	}
	listen := func(t *testing.T) net.Listener {
		t.Helper()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return ln
	}

	t.Run("listener fails", func(t *testing.T) {
		srv, closed := newServer(t)
		ln := listen(t)
		ln.Close()
		err := serve(context.Background(), &http.Server{Handler: srv.Handler()}, ln, srv, time.Second)
		if err == nil {
			t.Error("serve on a closed listener returned nil")
		}
		if n := closed.Load(); n != 1 {
			t.Errorf("CloseStorage ran %d times, want 1", n)
		}
	})

	t.Run("grace expires", func(t *testing.T) {
		srv, closed := newServer(t)
		ln := listen(t)
		accepted := make(chan struct{})
		var once sync.Once
		httpSrv := &http.Server{Handler: srv.Handler(), ConnState: func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				once.Do(func() { close(accepted) })
			}
		}}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		done := make(chan error, 1)
		go func() { done <- serve(ctx, httpSrv, ln, srv, 50*time.Millisecond) }()

		// A client that sends half a request and stalls: the listener's
		// shutdown waits for it until the grace period runs out.
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write([]byte("GET /healthz HTTP/1.1\r\nHost: cvserve\r\n")); err != nil {
			t.Fatal(err)
		}
		<-accepted
		cancel()
		if err := <-done; !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("serve = %v, want the expired grace period", err)
		}
		if n := closed.Load(); n != 1 {
			t.Errorf("CloseStorage ran %d times, want 1: the workers were not drained nor the store closed", n)
		}
	})
}
