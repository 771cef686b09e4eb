// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload against the program's public surfaces — tdmatch.Build and
// Model.MatchAll in process, and a tdserved binary over HTTP — checks every
// answer it samples against an independent oracle, and prints one JSON
// result as the last line of standard output:
//
//	{"correct": true, "attempted": 1234, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// also records a span around every call it makes into a layer, writes the
// spans to .bench_build/trace/, and reports the per-layer metrics instead.
// Run it through run.sh, which builds tdserved and this command first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state of one run.
type bench struct {
	root, tdserved string
	work           string // scratch directory of this run, removed at exit unless keep
	keep           bool
	workload       string
	seed           int64
	window         time.Duration // the run's measuring time (-seconds)
	tr             *tracer       // nil unless -trace 1

	attempted, failed int
	ops               map[string][2]int // attempted and failed per operation type
	problems          []string          // failed correctness checks
	e2e, layer        map[string]metric
	checks            map[string]any // trace-mode cross-checks
	daemons           []*daemon      // every tdserved started, killed at exit
}

var workloads = map[string]func(*bench) error{
	"build-imdb":   (*bench).buildIMDb,
	"serve-cold":   (*bench).serveCold,
	"serve-hot":    (*bench).serveHot,
	"serve-ingest": (*bench).serveIngest,
}

func main() {
	var (
		root     = flag.String("root", ".", "root of the checkout under test")
		tdserved = flag.String("tdserved", "", "tdserved binary built from the checkout")
		workload = flag.String("workload", "", "workload to run: build-imdb, serve-cold, serve-hot or serve-ingest")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", 10, "measuring time of the run")
		trace    = flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
		keep     = flag.Bool("keep", false, "keep the run's directory (fixture files, snapshot, WAL, tdserved log)")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *tdserved == "" || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -tdserved, -seconds > 0 and -workload one of build-imdb, serve-cold, serve-hot, serve-ingest (got %q)\n", *workload)
		os.Exit(2)
	}
	b := &bench{
		keep: *keep, root: *root, tdserved: *tdserved, workload: *workload, seed: *seed,
		window: time.Duration(*seconds * float64(time.Second)),
		e2e:    map[string]metric{}, layer: map[string]metric{}, checks: map[string]any{},
		ops: map[string][2]int{},
	}
	if *trace == 1 {
		b.tr = newTracer()
	}
	os.Exit(b.main(run))
}

func (b *bench) main(run func(*bench) error) int {
	base := filepath.Join(b.root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(base, "run-"+b.workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b.work = work
	if b.keep {
		defer logf("kept %s", work)
	} else {
		defer os.RemoveAll(work)
	}
	defer func() {
		for _, d := range b.daemons {
			d.kill()
		}
	}()
	if err := run(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.workload, err)
		return 1
	}
	for _, op := range sortedKeys(b.ops) {
		logf("%-22s attempted %7d failed %d", op, b.ops[op][0], b.ops[op][1])
	}
	metrics := b.e2e
	if b.tr != nil {
		// The untraced run reports these; their difference from it is
		// the tracing overhead.
		for _, name := range sortedKeys(b.e2e) {
			logf("end-to-end under tracing: %s = %.6g %s", name, b.e2e[name].Value, b.e2e[name].Unit)
		}
		metrics = b.layer
		dir := filepath.Join(base, "trace")
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", b.workload, b.seed))
		err := os.MkdirAll(dir, 0o755)
		if err == nil {
			err = b.tr.write(path, b.checks)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
			return 1
		}
		logf("trace written to %s", path)
	}
	for _, p := range b.problems {
		fmt.Fprintln(os.Stderr, "perfbench: INCORRECT:", p)
	}
	out, err := json.Marshal(result{
		Correct: len(b.problems) == 0, Attempted: b.attempted, Failed: b.failed, Metrics: metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// problem records a failed correctness check; the first twenty are
// kept for the report.
func (b *bench) problem(format string, args ...any) {
	if len(b.problems) < 20 {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	} else if len(b.problems) == 20 {
		b.problems = append(b.problems, "further problems omitted")
	}
}

// count adds operations of one type to the run's attempted and failed
// totals.
func (b *bench) count(op string, attempted, failed int) {
	b.attempted += attempted
	b.failed += failed
	c := b.ops[op]
	b.ops[op] = [2]int{c[0] + attempted, c[1] + failed}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// quantile returns the q-quantile (0..1) of ds by the nearest-rank rule.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(ds []time.Duration) time.Duration { return quantile(ds, 0.5) }

// tailQuantile is the tail percentile logged for n samples: p90, or the
// highest percentile that still has ten samples beyond it when n is
// smaller than 100; below forty samples it is the median.
func tailQuantile(n int) float64 {
	if n < 40 {
		return 0.5
	}
	return math.Min(0.9, 1-10/float64(n))
}

// rounds is how many rounds a run's measuring window is cut into. Each
// round measures every phase of the workload once, so the phases sample
// the same stretch of time, and the run reports the median over rounds:
// a burst of load from outside the benchmark moves a few rounds but not
// the reported figure.
const rounds = 10

// roundStats collects one statistic per round.
type roundStats struct {
	p50, tail []time.Duration
	rate      []float64
	late      []time.Duration // generator wake-up lateness, all rounds
	behind    bool            // the generator fell behind in some round
}

// addLatency records the median and tail latency of a round's
// successful requests.
func (rs *roundStats) addLatency(outs []outcome) {
	var lat []time.Duration
	for _, o := range succeeded(outs) {
		lat = append(lat, o.latency())
	}
	if len(lat) > 0 {
		rs.p50 = append(rs.p50, median(lat))
		rs.tail = append(rs.tail, quantile(lat, tailQuantile(len(lat))))
	}
}

// addRate records a round's successful requests per second.
func (rs *roundStats) addRate(outs []outcome, elapsed time.Duration) {
	rs.rate = append(rs.rate, float64(len(succeeded(outs)))/elapsed.Seconds())
}

// addSchedule records how well the open-loop generator kept its schedule.
func (rs *roundStats) addSchedule(rep loopReport) {
	rs.late = append(rs.late, rep.genLate...)
	rs.behind = rs.behind || rep.behind()
}

// medianRate is the median of the per-round rates.
func (rs *roundStats) medianRate() float64 {
	r := append([]float64(nil), rs.rate...)
	sort.Float64s(r)
	return r[len(r)/2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// peakRSSMB reads VmHWM (peak resident set) of a process from /proc.
func peakRSSMB(pid string) (float64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
