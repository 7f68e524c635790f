package main

import (
	"net/http"
	"testing"
)

// TestHTTPServerTimeouts pins the connection limits: header reads and idle
// connections are bounded, while whole-request and response writes are not.
func TestHTTPServerTimeouts(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want %v", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	if srv.IdleTimeout != idleTimeout || idleTimeout <= 0 {
		t.Fatalf("IdleTimeout = %v, want %v", srv.IdleTimeout, idleTimeout)
	}
	if srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Fatalf("ReadTimeout = %v, WriteTimeout = %v: long responses must not be cut off", srv.ReadTimeout, srv.WriteTimeout)
	}
}
