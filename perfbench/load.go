package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/tdmatch/tdmatch/perfbench/oracle"
)

// shot is one request of a workload.
type shot struct {
	due  time.Duration // open loop: send time, as an offset from the phase start
	op   string        // "topk" or "ingest"
	id   string        // queried or ingested document ID
	body []byte
	// follow, when set, is sent on the same connection as soon as this
	// request is acknowledged (the read-your-write query after an ingest);
	// it is timed from the acknowledgement.
	follow *shot
}

// outcome is the client's view of one request.
type outcome struct {
	op, id    string
	status    int
	err       error
	body      []byte
	due, sent time.Time
	done      time.Time
}

func (o outcome) ok() bool               { return o.err == nil && o.status == http.StatusOK }
func (o outcome) latency() time.Duration { return o.done.Sub(o.due) }

// loadClient sends requests over at most conns keep-alive connections.
type loadClient struct {
	hc    *http.Client
	base  string
	tr    *tracer
	phase int // span of the running phase
}

func newLoadClient(base string, conns int, tr *tracer) *loadClient {
	t := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true}
	return &loadClient{hc: &http.Client{Transport: t, Timeout: 5 * time.Second}, base: base, tr: tr}
}

func (c *loadClient) close() { c.hc.CloseIdleConnections() }

func topkBody(id string, k int) []byte {
	return []byte(fmt.Sprintf(`{"id":%q,"k":%d}`, id, k))
}

func (c *loadClient) send(s *shot, due time.Time, req int64) outcome {
	o := outcome{op: s.op, id: s.id, due: due, sent: time.Now()}
	resp, err := c.hc.Post(c.base+"/v1/"+s.op, "application/json", bytes.NewReader(s.body))
	if err == nil {
		o.status = resp.StatusCode
		o.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	o.err = err
	o.done = time.Now()
	c.tr.record("tdserved.http."+s.op, c.phase, req, o.sent, o.done)
	return o
}

// openLoop sends shots on their schedule from conns workers. A shot whose
// due time passes while every connection is busy waits for one, and that
// wait counts in its latency, which runs from the due time.
func (c *loadClient) openLoop(shots []shot, conns int) ([]outcome, loopReport) {
	start := time.Now().Add(5 * time.Millisecond)
	var next atomic.Int64
	per := make([][]outcome, conns)
	wake := make([][]time.Duration, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(shots) {
					return
				}
				due := start.Add(shots[i].due)
				// A connection is free now; if the due time is still
				// ahead, any lateness of the send is the generator's own.
				free := time.Now().Before(due)
				sleepUntil(due)
				o := c.send(&shots[i], due, int64(i))
				if free {
					wake[w] = append(wake[w], o.sent.Sub(due))
				}
				per[w] = append(per[w], o)
				if f := shots[i].follow; f != nil && o.ok() {
					per[w] = append(per[w], c.send(f, time.Now(), int64(i)))
				}
			}
		}(w)
	}
	wg.Wait()
	rep := loopReport{elapsed: time.Since(start)}
	if n := len(shots); n > 0 {
		rep.scheduled = shots[n-1].due
	}
	var outs []outcome
	for w := range per {
		outs = append(outs, per[w]...)
		rep.genLate = append(rep.genLate, wake[w]...)
	}
	return outs, rep
}

// sleepUntil blocks the calling thread in nanosleep until t. time.Sleep
// would do, but the Go runtime parks sleeping goroutines in epoll_wait,
// whose timeout it rounds up to whole milliseconds, so sub-millisecond
// sleeps overrun by up to 1ms and that lateness would count as latency.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // an early return (EINTR) loops
	}
}

// loopReport describes how well the generator kept its schedule.
type loopReport struct {
	elapsed, scheduled time.Duration
	genLate            []time.Duration // send minus due, where a connection was free
}

// behind reports whether the generator itself fell behind its schedule:
// its median wake-up lateness exceeded 1ms, or the phase overran the
// schedule by more than a tenth.
func (r loopReport) behind() bool {
	return median(r.genLate) > time.Millisecond || r.elapsed > r.scheduled+r.scheduled/10+100*time.Millisecond
}

// closedLoop runs conns workers, each sending its next request as soon as
// the previous one is answered, for dur. gen returns the i-th request of
// the phase.
func (c *loadClient) closedLoop(conns int, dur time.Duration, gen func(i int) shot) ([]outcome, time.Duration) {
	start := time.Now()
	deadline := start.Add(dur)
	var next atomic.Int64
	per := make([][]outcome, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				s := gen(int(i))
				per[w] = append(per[w], c.send(&s, time.Now(), i))
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var outs []outcome
	for _, p := range per {
		outs = append(outs, p...)
	}
	return outs, elapsed
}

// topkReply is the body of a /v1/topk answer.
type topkReply struct {
	ID      string `json:"id"`
	Matches []struct {
		ID    string  `json:"id"`
		Score float64 `json:"score"`
	} `json:"matches"`
}

// parseTopK decodes a /v1/topk answer into oracle hits.
func parseTopK(body []byte) ([]oracle.Hit, error) {
	var r topkReply
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, err
	}
	hits := make([]oracle.Hit, len(r.Matches))
	for i, m := range r.Matches {
		hits[i] = oracle.Hit{ID: m.ID, Score: m.Score}
	}
	return hits, nil
}

func hitIDs(hits []oracle.Hit) []string {
	ids := make([]string, len(hits))
	for i, h := range hits {
		ids[i] = h.ID
	}
	return ids
}
