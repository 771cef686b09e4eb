package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// daemon is one tdserved process started by the benchmark.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	done chan struct{}
	err  error // Wait's result, set before done closes
}

// startDaemon execs tdserved with every flag at its default apart from
// the corpus and snapshot paths, the listen address and extra, and waits
// for the first 200 from /readyz. The returned duration is the set-up
// time: exec until ready.
func (b *bench) startDaemon(fx *fixture, extra ...string) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := append([]string{"-first", fx.firstPath, "-second", fx.secondPath, "-model", fx.snap, "-addr", addr}, extra...)
	logFile, err := os.OpenFile(filepath.Join(b.work, "tdserved.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	defer logFile.Close() // the child keeps its own descriptor
	d := &daemon{base: "http://" + addr, done: make(chan struct{})}
	d.cmd = exec.Command(b.tdserved, args...)
	d.cmd.Stdout, d.cmd.Stderr = logFile, logFile
	// The daemon dies with the benchmark even if the benchmark crashes.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.done)
	}()
	b.daemons = append(b.daemons, d)
	hc := &http.Client{Timeout: time.Second}
	for {
		select {
		case <-d.done:
			return nil, 0, fmt.Errorf("tdserved exited before ready (%v); see %s", d.err, logFile.Name())
		default:
		}
		resp, err := hc.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				hc.CloseIdleConnections()
				return d, time.Since(start), nil
			}
		}
		if time.Since(start) > time.Minute {
			d.kill()
			return nil, 0, errors.New("tdserved not ready after a minute")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// stop sends SIGTERM (graceful drain) and waits for the exit, killing the
// process if it has not ended after 30 seconds. It returns an error
// unless the daemon exited with status 0.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.done:
		return d.err
	case <-time.After(30 * time.Second):
		d.kill()
		return errors.New("tdserved did not exit within 30s of SIGTERM")
	}
}

// kill ends the process unconditionally and waits for it.
func (d *daemon) kill() {
	select {
	case <-d.done:
	default:
		d.cmd.Process.Kill()
		<-d.done
	}
}

func (d *daemon) pid() string { return strconv.Itoa(d.cmd.Process.Pid) }

// serveStats is the part of GET /v1/stats the benchmark reads.
type serveStats struct {
	CacheHits      uint64 `json:"cache_hits"`
	CacheMisses    uint64 `json:"cache_misses"`
	Batches        uint64 `json:"batches"`
	BatchedQueries uint64 `json:"batched_queries"`
	SecondSegments struct {
		Segments  int `json:"segments"`
		DeltaDocs int `json:"delta_docs"`
	} `json:"second_segments"`
	WAL *struct {
		Appends          uint64 `json:"appends"`
		Syncs            uint64 `json:"syncs"`
		RecoveredRecords int    `json:"recovered_records"`
	} `json:"wal"`
}

func (d *daemon) stats() (serveStats, error) {
	var st serveStats
	resp, err := http.Get(d.base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/v1/stats: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// post sends one JSON request on a private connection (set-up and
// checks, not the measured traffic).
func (d *daemon) post(path string, body []byte) (int, []byte, error) {
	resp, err := http.Post(d.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// setupDaemon starts tdserved `starts` times, stopping all but the last,
// and reports the median exec-to-ready time as setup_s.
func (b *bench) setupDaemon(fx *fixture, starts int, extra ...string) (*daemon, error) {
	var times []time.Duration
	for i := 0; i < starts; i++ {
		d, took, err := b.startDaemon(fx, extra...)
		if err != nil {
			return nil, err
		}
		times = append(times, took)
		if i == starts-1 {
			b.e2e["setup_s"] = metric{median(times).Seconds(), "s"}
			logf("tdserved exec to ready: %v (median of %d)", median(times).Round(time.Microsecond), starts)
			return d, nil
		}
		if err := d.stop(); err != nil {
			return nil, fmt.Errorf("stopping tdserved after set-up: %w", err)
		}
	}
	return nil, errors.New("no daemon started")
}
