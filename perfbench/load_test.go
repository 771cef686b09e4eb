package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestLoopsAgainstStubServer runs both load-generator loops, with tracing
// on, against a stub server on two connections; run it with -race.
func TestLoopsAgainstStubServer(t *testing.T) {
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		served.Add(1)
		if r.URL.Path == "/v1/ingest" {
			w.Write([]byte(`{"status":"ok"}`))
			return
		}
		w.Write([]byte(`{"id":"q","matches":[{"id":"a","score":0.5}]}`))
	}))
	defer srv.Close()
	c := newLoadClient(srv.URL, 2, newTracer())
	defer c.close()

	shots := make([]shot, 40)
	for i := range shots {
		shots[i] = shot{due: time.Duration(i) * time.Millisecond, op: "ingest", id: "d", body: []byte(`{}`),
			follow: &shot{op: "topk", id: "d", body: topkBody("d", 1)}}
	}
	outs, rep := c.openLoop(shots, 2)
	if len(outs) != 80 {
		t.Fatalf("open loop: %d outcomes, want 40 ingests + 40 follow-ups", len(outs))
	}
	for _, o := range outs {
		if !o.ok() {
			t.Fatalf("open loop: %s failed: %d %v", o.op, o.status, o.err)
		}
		if o.latency() <= 0 {
			t.Fatalf("open loop: latency %v", o.latency())
		}
	}
	if len(rep.genLate) == 0 || rep.scheduled != 39*time.Millisecond {
		t.Fatalf("open loop report: %d lateness samples, schedule %v", len(rep.genLate), rep.scheduled)
	}

	closed, elapsed := c.closedLoop(2, 50*time.Millisecond, func(i int) shot {
		return shot{op: "topk", id: "q", body: topkBody("q", 1)}
	})
	if len(closed) == 0 || elapsed < 50*time.Millisecond {
		t.Fatalf("closed loop: %d outcomes in %v", len(closed), elapsed)
	}
	hits, err := parseTopK(closed[0].body)
	if err != nil || len(hits) != 1 || hits[0].ID != "a" {
		t.Fatalf("parseTopK = %v, %v", hits, err)
	}
	if got, want := served.Load(), int64(len(outs)+len(closed)); got != want {
		t.Fatalf("server saw %d requests, client recorded %d", got, want)
	}
	if n := len(c.tr.durations("tdserved.http.topk")) + len(c.tr.durations("tdserved.http.ingest")); n != len(outs)+len(closed) {
		t.Fatalf("%d spans for %d requests", n, len(outs)+len(closed))
	}
}
