package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/tdmatch/tdmatch"
	"github.com/tdmatch/tdmatch/perfbench/oracle"
)

const (
	topK = 10
	// scoreTol is the oracle's near-tie tolerance: the program scores in
	// float32, the oracle in float64.
	scoreTol = 1e-4

	imdbMovies   = 12    // build-imdb: movies in the IMDb WT scenario
	catalogItems = 10000 // serve-cold/hot: items and notes in the catalogue
	hotKeys      = 1024  // serve-hot: hot set, well inside the 4096-entry cache
	ingestDocs   = 600   // serve-ingest: ingests per run (> SegmentMaxDocs 512)
	ingestRounds = 10    // serve-ingest: rounds, so 60 ingests per round
	ingestMovies = 24    // serve-ingest: movies in its IMDb scenario
	readsPerDoc  = 3     // serve-ingest: Zipf reads scheduled per ingest
	daemonStarts = 5     // serve-*: tdserved starts timed for setup_s
	corpusLoads  = 201   // build-imdb: corpus loads timed for setup_s
)

// The open-loop phases run at a third of the closed-loop capacity
// measured on the reference host (perfbench/README.md, seeds 101-110).
// Far below that the daemon idles between requests and the p50 takes in
// the wake-up of idle threads, which no layer accounts for: serve-hot
// read 0.35 ms at 8% of capacity against 0.17-0.19 ms at 25-50%. At half,
// the generator fell behind its schedule in a run where the host slowed
// down. The rates stay fixed across commits, so that every commit is
// measured at the same offered load.
const (
	coldCapacity = 1090  // serve-cold: reference closed-loop /v1/topk per second
	hotCapacity  = 13000 // serve-hot: reference closed-loop /v1/topk per second
	coldRate     = coldCapacity / 3
	hotRate      = hotCapacity / 3
)

// conns is the load generator's connection count: one per CPU.
var conns = runtime.NumCPU()

// buildIMDb times tdmatch.Build with Defaults() on the IMDb WT scenario,
// as many times as fit in the window (at least three), checks every
// MatchAll ranking (reviews to movies, k=10) against the oracle, and
// measures MatchAll throughput on each built model.
func (b *bench) buildIMDb() error {
	fx, err := imdbFixture(b.work, b.seed, imdbMovies, 2, 2)
	if err != nil {
		return err
	}
	var loads []time.Duration
	var first, second *tdmatch.Corpus
	for i := 0; i < corpusLoads; i++ {
		start := time.Now()
		if first, second, err = fx.load(); err != nil {
			return err
		}
		loads = append(loads, time.Since(start))
	}
	b.count("load-corpora", corpusLoads, 0)
	b.e2e["setup_s"] = metric{median(loads).Seconds(), "s"}

	var builds []time.Duration
	var maps []float64
	var rs roundStats
	var m *tdmatch.Model
	truth := fx.truthSets()
	start := time.Now()
	for i := 0; len(builds) < 3 || time.Since(start) < b.window; i++ {
		cfg := tdmatch.Defaults()
		cfg.Seed = b.seed*1000 + int64(i)
		t0 := time.Now()
		var berr error
		b.tr.do("tdmatch.Build", 0, func(int) { m, berr = tdmatch.Build(first, second, cfg) })
		if berr != nil {
			return berr
		}
		builds = append(builds, time.Since(t0))
		fx.built = append(fx.built, m.Stats())
		var res map[string][]tdmatch.Match
		b.tr.do("model.MatchAll", 0, func(int) { res = m.MatchAll(true, topK) })
		ex, err := exactFirst(m, first.IDs())
		if err != nil {
			return err
		}
		rankings := map[string][]string{}
		wrong := 0
		for _, q := range second.IDs() {
			got := res[q]
			hits := make([]oracle.Hit, len(got))
			for j, g := range got {
				hits[j] = oracle.Hit{ID: g.ID, Score: g.Score}
			}
			if err := oracle.Compare(hits, ex.TopK(m.Vector(q), topK+5), topK, scoreTol); err != nil {
				b.problem("build %d: MatchAll %s: %v", i, q, err)
				wrong++
			}
			rankings[q] = hitIDs(hits)
		}
		b.count("build", 1, 0)
		b.count("matchall-answer", len(second.IDs()), wrong)
		maps = append(maps, oracle.MeanAP(rankings, truth, topK))

		// In-process query throughput of the new model: MatchAll
		// repeated for window/100.
		qStart, queries := time.Now(), 0
		for time.Since(qStart) < b.window/100 {
			queries += len(m.MatchAll(true, topK))
		}
		rs.rate = append(rs.rate, float64(queries)/time.Since(qStart).Seconds())
		b.count("matchall-query", queries, 0)
	}
	mapAt10 := mean(maps)
	logf("build-imdb: %d builds, median %v, MAP@10 %.3f", len(builds), median(builds), mapAt10)
	// A model that ranked at random would score about 0.25 on 12 movies.
	if mapAt10 < 0.7 {
		b.problem("MAP@10 %.3f below the 0.7 floor", mapAt10)
	}

	qps := rs.medianRate()

	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	b.e2e["op_p50_ms"] = metric{ms(median(builds)), "ms"}
	b.e2e["query_qps"] = metric{qps, "1/s"}
	b.e2e["map_at_10"] = metric{mapAt10, "ratio"}
	b.e2e["peak_rss_mb"] = metric{rss, "MB"}
	if b.tr != nil {
		return b.probeBuild(fx, builds, m)
	}
	return nil
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// catalogConfig trains the serving fixture cheaply: query and fold-in
// costs do not depend on the walk or epoch budget, though the rankings of
// so short a training are close to random. Everything that shapes serving
// (flat index, dim 96, cache, batching, sharding) stays default.
func catalogConfig(seed int64) tdmatch.Config {
	cfg := tdmatch.Defaults()
	cfg.Seed = seed
	cfg.MaxNGram = 1
	cfg.NumWalks = 1
	cfg.WalkLength = 10
	cfg.Epochs = 1
	return cfg
}

func (b *bench) serveCold() error { return b.serveRead(false) }
func (b *bench) serveHot() error  { return b.serveRead(true) }

// serveRead drives /v1/topk on a default tdserved over the catalogue in
// rounds of an open-loop segment at a fixed rate and a closed-loop one on
// one connection per CPU. Cold keys cycle through every note in a seeded
// order, so the cache never holds the next key; hot keys are Zipf(1.1)
// over a warmed set that fits in the cache.
func (b *bench) serveRead(hot bool) error {
	fx, err := catalogFixture(b.work, b.seed, catalogItems)
	if err != nil {
		return err
	}
	fx.cfg = catalogConfig(b.seed)
	if err := fx.buildSnapshot(); err != nil {
		return err
	}
	m, err := fx.bind()
	if err != nil {
		return err
	}
	first, _, err := fx.load()
	if err != nil {
		return err
	}
	ex, err := exactFirst(m, first.IDs())
	if err != nil {
		return err
	}
	d, err := b.setupDaemon(fx, daemonStarts)
	if err != nil {
		return err
	}
	r := rand.New(rand.NewSource(b.seed))
	keys := append([]string(nil), fx.queries...)
	r.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	rate, key := coldRate, func(i int) string { return keys[i%len(keys)] }
	if hot {
		hotSet := keys[:hotKeys]
		seq := zipfSeq(r, len(hotSet), 1<<17)
		rate, key = hotRate, func(i int) string { return hotSet[seq[i%len(seq)]] }
		// Warm the cache with every hot key before the window.
		for _, k := range hotSet {
			if code, _, err := d.post("/v1/topk", topkBody(k, topK)); err != nil || code != 200 {
				return fmt.Errorf("warming %s: %d %v", k, code, err)
			}
		}
	}
	c := newLoadClient(d.base, conns, b.tr)
	defer c.close()
	before, err := d.stats()
	if err != nil {
		return err
	}

	// Each round runs an open-loop segment, then a closed-loop one.
	seg := b.window / (2 * rounds)
	perOpen := int(seg.Seconds() * float64(rate))
	var open, closed []outcome
	var rs roundStats
	next := 0 // position in the key sequence
	for round := 0; round < rounds; round++ {
		shots := make([]shot, perOpen)
		for i := range shots {
			k := key(next + i)
			shots[i] = shot{due: time.Duration(i) * time.Second / time.Duration(rate), op: "topk", id: k, body: topkBody(k, topK)}
		}
		next += perOpen
		c.phase = b.tr.open("phase.open-loop", 0, 0)
		o, rep := c.openLoop(shots, conns)
		b.tr.close(c.phase)
		rs.addLatency(o)
		rs.addSchedule(rep)
		base := next
		c.phase = b.tr.open("phase.closed-loop", 0, 0)
		cl, elapsed := c.closedLoop(conns, seg, func(i int) shot {
			k := key(base + i)
			return shot{op: "topk", id: k, body: topkBody(k, topK)}
		})
		b.tr.close(c.phase)
		next += len(cl)
		rs.addRate(cl, elapsed)
		open, closed = append(open, o...), append(closed, cl...)
	}
	after, err := d.stats()
	if err != nil {
		return err
	}
	rss, err := peakRSSMB(d.pid())
	if err != nil {
		return err
	}
	b.generatorCheck(rs)

	// Check every 7th answer, but no more than about 2000 per run: each
	// check is a brute-force scan of the catalogue.
	all := append(open, closed...)
	mapAt10 := b.tallyTopK(all, ex, m, max(7, len(all)/2000))
	openP50, openTail := median(rs.p50), median(rs.tail)
	hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
	ratio := float64(hits) / float64(max(hits+misses, 1))
	if !hot && ratio > 0.01 {
		b.problem("serve-cold cache hit ratio %.4f above 0.01", ratio)
	}
	if hot && ratio < 0.99 {
		b.problem("serve-hot cache hit ratio %.4f below 0.99", ratio)
	}
	logf("%s: open loop %d req, p50 %v, p90 %v; closed loop %d req, %.0f/s; hit ratio %.4f; batch %.2f; MAP@10 %.3f",
		b.workload, len(open), openP50, openTail, len(closed), rs.medianRate(),
		ratio, float64(after.BatchedQueries-before.BatchedQueries)/float64(max(after.Batches-before.Batches, 1)), mapAt10)
	// The cheaply trained fixture says nothing of the method's quality,
	// so the relevant set is the exact top 10. Every sampled answer is
	// scored, whether or not the oracle accepted it: a ranking that
	// follows the exact one scores 1, near ties at rank 10 lower it
	// slightly, and an approximate or wrong ranking lowers it further.
	if mapAt10 < 0.99 {
		b.problem("MAP@10 against the exact ranking %.4f below 0.99", mapAt10)
	}
	b.e2e["op_p50_ms"] = metric{ms(openP50), "ms"}
	b.e2e["query_qps"] = metric{rs.medianRate(), "1/s"}
	b.e2e["map_at_10"] = metric{mapAt10, "ratio"}
	b.e2e["peak_rss_mb"] = metric{rss, "MB"}
	if b.tr != nil {
		var probeKeys []string
		if hot {
			probeKeys = keys[:hotKeys]
		} else {
			// A reload purges the result cache, so the probe keys are cold.
			if code, body, err := d.post("/v1/reload", nil); err != nil || code != 200 {
				return fmt.Errorf("reload before the probe: %d %s %v", code, body, err)
			}
			probeKeys = keys
		}
		if err := b.probeServe(fx, d, before, after, probeKeys, hot, openP50); err != nil {
			return err
		}
	}
	return d.stop()
}

// zipfSeq draws n ranks in [0, size) from Zipf(1.1).
func zipfSeq(r *rand.Rand, size, n int) []int {
	z := rand.NewZipf(r, 1.1, 1, uint64(size-1))
	seq := make([]int, n)
	for i := range seq {
		seq[i] = int(z.Uint64())
	}
	return seq
}

// generatorCheck reports the open-loop generator's lateness and marks
// the run invalid when it fell behind its schedule.
func (b *bench) generatorCheck(rs roundStats) {
	logf("open-loop generator lateness p50 %v p99 %v over %d sends",
		median(rs.late), quantile(rs.late, 0.99), len(rs.late))
	if rs.behind {
		b.problem("the load generator fell behind its schedule; the run is invalid")
	}
}

// tallyTopK counts /v1/topk outcomes: every non-2xx reply, transport
// error, unparsable or wrong answer fails. Every every-th answer is
// compared with the oracle over the snapshot's vectors (m) and scored
// for MAP@10 with the exact top 10 as the relevant set; the score is
// taken before and apart from the comparison, so that an answer the
// oracle rejects lowers it. It returns the MAP@10 of the sampled answers.
func (b *bench) tallyTopK(outs []outcome, ex *oracle.Exact, m *tdmatch.Model, every int) float64 {
	failed, scored := 0, 0
	apSum := 0.0
	for i, o := range outs {
		if !o.ok() {
			failed++
			if failed <= 5 {
				logf("%s %s failed: %d %v %s", o.op, o.id, o.status, o.err, o.body)
			}
			continue
		}
		hits, err := parseTopK(o.body)
		if err == nil && i%every == 0 {
			exact := ex.TopK(m.Vector(o.id), topK+5)
			relevant := map[string]bool{}
			for _, h := range exact[:topK] {
				relevant[h.ID] = true
			}
			apSum += oracle.AveragePrecision(hitIDs(hits), relevant, topK)
			scored++
			err = oracle.Compare(hits, exact, topK, scoreTol)
		}
		if err != nil {
			b.problem("topk %s: %v", o.id, err)
			failed++
		}
	}
	b.count("topk", len(outs), failed)
	return apSum / float64(max(scored, 1))
}

// serveIngest runs tdserved with a WAL (fsync always) over a Defaults()
// snapshot of a small IMDb scenario whose reviews are mostly held out,
// then ingests them open loop: each ingest is followed by a /v1/topk on
// the new review once acknowledged, and Zipf reads over the reviews in
// the snapshot run beside them; each round of ingests is followed by
// closed-loop reads. At the end the daemon is stopped with SIGTERM and
// restarted on the same snapshot and WAL, and every acknowledged review
// must be served again.
func (b *bench) serveIngest() error {
	// Two reviews per movie in the snapshot, the rest held out: more
	// than ingestDocs plus the traced probe's documents.
	fx, err := imdbFixture(b.work, b.seed, ingestMovies, 2+(ingestDocs+probeDocs)/ingestMovies+1, 2)
	if err != nil {
		return err
	}
	fx.cfg = tdmatch.Defaults()
	fx.cfg.Seed = b.seed
	if err := fx.buildSnapshot(); err != nil {
		return err
	}
	m, err := fx.bind()
	if err != nil {
		return err
	}
	first, _, err := fx.load()
	if err != nil {
		return err
	}
	ex, err := exactFirst(m, first.IDs())
	if err != nil {
		return err
	}
	wal := filepath.Join(b.work, "tdserved.wal")
	d, err := b.setupDaemon(fx, daemonStarts, "-wal", wal)
	if err != nil {
		return err
	}
	r := rand.New(rand.NewSource(b.seed))
	reads := append([]string(nil), fx.queries...)
	r.Shuffle(len(reads), func(i, j int) { reads[i], reads[j] = reads[j], reads[i] })
	seq := zipfSeq(r, len(reads), 1<<17)
	c := newLoadClient(d.base, conns, b.tr)
	defer c.close()
	before, err := d.stats()
	if err != nil {
		return err
	}

	// Each round runs an open-loop mix of ingestDocs/ingestRounds ingests
	// with their reads over three quarters of its time, then closed-loop
	// reads over the reviews present for the last quarter.
	perRound := ingestDocs / ingestRounds
	mix := b.window * 3 / 4 / ingestRounds
	gap := mix / time.Duration(perRound)
	var outs, closed []outcome
	var rs roundStats
	present := append([]string(nil), reads...)
	for round := 0; round < ingestRounds; round++ {
		var shots []shot
		for i, doc := range fx.held[round*perRound : (round+1)*perRound] {
			body, err := json.Marshal(map[string]any{"docs": []map[string]any{{"side": doc.Side, "id": doc.ID, "values": doc.Values}}})
			if err != nil {
				return err
			}
			due := time.Duration(i) * gap
			shots = append(shots, shot{due: due, op: "ingest", id: doc.ID, body: body,
				follow: &shot{op: "topk", id: doc.ID, body: topkBody(doc.ID, topK)}})
			for j := 1; j <= readsPerDoc; j++ {
				k := reads[seq[((round*perRound+i)*readsPerDoc+j)%len(seq)]]
				shots = append(shots, shot{due: due + time.Duration(j)*gap/(readsPerDoc+1), op: "topk", id: k, body: topkBody(k, topK)})
			}
		}
		c.phase = b.tr.open("phase.ingest-mix", 0, 0)
		o, rep := c.openLoop(shots, conns)
		b.tr.close(c.phase)
		rs.addSchedule(rep)
		var ingests []outcome
		for _, x := range o {
			if x.op == "ingest" {
				ingests = append(ingests, x)
				if x.ok() {
					present = append(present, x.id)
				}
			}
		}
		rs.addLatency(ingests)
		outs = append(outs, o...)

		presentSeq := zipfSeq(r, len(present), 1<<14)
		c.phase = b.tr.open("phase.closed-loop", 0, 0)
		cl, elapsed := c.closedLoop(conns, b.window/4/ingestRounds, func(i int) shot {
			k := present[presentSeq[i%len(presentSeq)]]
			return shot{op: "topk", id: k, body: topkBody(k, topK)}
		})
		b.tr.close(c.phase)
		rs.addRate(cl, elapsed)
		closed = append(closed, cl...)
	}
	b.generatorCheck(rs)

	// Split the outcomes: acknowledged ingests (in acknowledgement
	// order), their read-your-write answers, and the Zipf reads.
	var acked []outcome
	rw := map[string]outcome{}
	var zipfReads []outcome
	failedIngests := 0
	for _, o := range outs {
		switch {
		case o.op == "ingest" && o.ok():
			acked = append(acked, o)
		case o.op == "ingest":
			failedIngests++
			logf("ingest %s failed: %d %v %s", o.id, o.status, o.err, o.body)
		case fx.truth[o.id] != "" && isHeld(o.id):
			rw[o.id] = o
		default:
			zipfReads = append(zipfReads, o)
		}
	}
	b.count("ingest", len(acked)+failedIngests, failedIngests)
	sort.Slice(acked, func(i, j int) bool { return acked[i].done.Before(acked[j].done) })

	// The oracle for ingested reviews: replay the acknowledged ingests on
	// an in-process copy of the snapshot and rank their vectors exactly.
	replica, err := fx.bind()
	if err != nil {
		return err
	}
	docs := map[string]tdmatch.IngestDoc{}
	for _, doc := range fx.held {
		docs[doc.ID] = doc
	}
	for _, o := range acked {
		if err := replica.Ingest([]tdmatch.IngestDoc{docs[o.id]}); err != nil {
			return fmt.Errorf("replaying ingest %s: %w", o.id, err)
		}
	}
	ingestRanks := map[string][]string{}
	rwFailed := 0
	for _, o := range acked {
		a, ok := rw[o.id]
		if !ok || !a.ok() {
			b.problem("read-your-write topk %s after its ack failed: %d %v %s", o.id, a.status, a.err, a.body)
			rwFailed++
			continue
		}
		hits, err := parseTopK(a.body)
		if err == nil {
			err = oracle.Compare(hits, ex.TopK(replica.Vector(o.id), topK+5), topK, scoreTol)
		}
		if err != nil {
			b.problem("read-your-write topk %s: %v", o.id, err)
			rwFailed++
			continue
		}
		ingestRanks[o.id] = hitIDs(hits)
	}
	b.count("topk-read-your-write", len(rw), rwFailed)
	b.tallyTopK(zipfReads, ex, m, 1)

	closedOK := succeeded(closed)
	for _, o := range closed {
		if !o.ok() {
			b.problem("closed-loop topk %s failed: %d %v", o.id, o.status, o.err)
		}
	}
	b.count("topk", len(closed), len(closed)-len(closedOK))

	st, err := d.stats()
	if err != nil {
		return err
	}
	rss, err := peakRSSMB(d.pid())
	if err != nil {
		return err
	}
	if st.WAL == nil || st.WAL.Appends != uint64(len(acked)) {
		b.problem("wal appends %v, want %d acknowledged ingests", st.WAL, len(acked))
	}
	mapAt10 := oracle.MeanAP(ingestRanks, fx.truthSets(), topK)
	ingestP50, ingestTail := median(rs.p50), median(rs.tail)
	logf("serve-ingest: %d acked ingests, p50 %v, p90 %v; %d zipf reads; %d closed-loop reads, %.0f/s; segments %d delta %d; MAP@10 of ingested %.3f",
		len(acked), ingestP50, ingestTail, len(zipfReads), len(closed), rs.medianRate(),
		st.SecondSegments.Segments, st.SecondSegments.DeltaDocs, mapAt10)
	// Chance is about 0.12 on 24 movies at k=10.
	if mapAt10 < 0.5 {
		b.problem("MAP@10 of ingested reviews %.3f below the 0.5 floor", mapAt10)
	}
	b.e2e["op_p50_ms"] = metric{ms(ingestP50), "ms"}
	b.e2e["query_qps"] = metric{rs.medianRate(), "1/s"}
	b.e2e["map_at_10"] = metric{mapAt10, "ratio"}
	b.e2e["peak_rss_mb"] = metric{rss, "MB"}

	// Durability: SIGTERM, restart on the same snapshot and WAL, and every
	// acknowledged review must be recovered and served as before.
	if err := d.stop(); err != nil {
		b.problem("tdserved exit after SIGTERM: %v", err)
	}
	d2, _, err := b.startDaemon(fx, "-wal", wal)
	if err != nil {
		return fmt.Errorf("restart on the WAL: %w", err)
	}
	st2, err := d2.stats()
	if err != nil {
		return err
	}
	if st2.WAL == nil || st2.WAL.RecoveredRecords != len(acked) {
		b.problem("restart recovered %v wal records, want %d", st2.WAL, len(acked))
	}
	lost := 0
	for _, o := range acked {
		code, body, err := d2.post("/v1/topk", topkBody(o.id, topK))
		var hits []oracle.Hit
		if err == nil && code == 200 {
			hits, err = parseTopK(body)
		}
		if err == nil && code == 200 {
			err = oracle.Compare(hits, ex.TopK(replica.Vector(o.id), topK+5), topK, scoreTol)
		}
		if err != nil || code != 200 {
			lost++
			b.problem("after restart, acknowledged %s: %d %v", o.id, code, err)
		}
	}
	b.count("topk-after-restart", len(acked), lost)
	if b.tr != nil {
		if err := b.probeIngest(fx, d2, before, st, reads); err != nil {
			return err
		}
	}
	return d2.stop()
}

// succeeded returns the outcomes answered 200.
func succeeded(outs []outcome) []outcome {
	var ok []outcome
	for _, o := range outs {
		if o.ok() {
			ok = append(ok, o)
		}
	}
	return ok
}

// isHeld reports whether id names a held-out (ingested) review.
func isHeld(id string) bool {
	var n int
	_, err := fmt.Sscanf(id, "reviews:n%d", &n)
	return err == nil
}
