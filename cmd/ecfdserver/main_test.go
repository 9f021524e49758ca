package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"runtime"
	"testing"
	"time"

	"ecfd/internal/server"
)

// TestRunBootsServesAndDrains is the binary's life end to end: run
// listens where it is told and reports the bound address, the service
// behind it answers the data-path routes, and cancelling the context
// makes run return nil inside its drain budget with the port closed
// and no goroutine left behind.
func TestRunBootsServesAndDrains(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	bound := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-workers", "2"}, func(a net.Addr) { bound <- a })
	}()
	var addr string
	select {
	case a := <-bound:
		addr = a.String()
	case err := <-done:
		t.Fatalf("run returned before listening: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("run never reported an address")
	}

	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 30 * time.Second}
	call := func(method, path string, in, out any) {
		t.Helper()
		var body bytes.Buffer
		if in != nil {
			if err := json.NewEncoder(&body).Encode(in); err != nil {
				t.Fatal(err)
			}
		}
		req, err := http.NewRequest(method, "http://"+addr+path, &body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
			t.Fatalf("%s %s: HTTP %d", method, path, resp.StatusCode)
		}
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatalf("%s %s: decode: %v", method, path, err)
			}
		}
	}

	var sess server.SessionInfo
	call("POST", "/v1/sessions", server.CreateSessionRequest{Gen: &server.GenSpec{Rows: 1000, Noise: 5, Seed: 1}}, &sess)
	if sess.Rows != 1000 {
		t.Fatalf("session: %+v", sess)
	}
	var det server.DetectResponse
	call("POST", "/v1/sessions/"+sess.ID+"/detect", nil, &det)
	if det.SV+det.MV == 0 {
		t.Fatalf("detect found nothing in 5%% noise: %+v", det)
	}
	var chk server.CheckResponse
	call("POST", "/v1/sessions/"+sess.ID+"/check", server.RowsPayload{Rows: [][]any{
		{"999", "0000000", "X", "0 Null St", "ZZZ", "00000", "1", "0.0", "ok"},
	}}, &chk)
	if len(chk.Results) != 1 {
		t.Fatalf("check: %+v", chk)
	}
	var health server.HealthResponse
	call("GET", "/healthz", nil, &health)
	if len(health.Sessions) != 1 || health.Sessions[0].Engine.LiveEpochs != 1 {
		t.Fatalf("healthz: %+v", health)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not drain within its 15 s budget")
	}
	if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		conn.Close()
		t.Fatalf("%s still accepts connections after run returned", addr)
	}
	// Connection goroutines unwind just after their handlers return.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before run:\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
	}
}
