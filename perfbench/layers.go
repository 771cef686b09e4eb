package main

import (
	"fmt"
	"path/filepath"
	"time"

	"github.com/tdmatch/tdmatch"
	"github.com/tdmatch/tdmatch/internal/corpus"
	"github.com/tdmatch/tdmatch/internal/embed"
	"github.com/tdmatch/tdmatch/internal/graph"
	"github.com/tdmatch/tdmatch/internal/match"
	"github.com/tdmatch/tdmatch/internal/textproc"
	"github.com/tdmatch/tdmatch/internal/wal"
	"github.com/tdmatch/tdmatch/internal/walk"
)

// The traced run measures every layer after the workload, on the
// workload's own fixture, by timing public calls inside spans.
const (
	probeQueries = 300 // single queries per in-process and HTTP probe
	probeBatch   = 32  // queries per Model.TopKBatch call
	probeDocs    = 48  // documents ingested per ingest probe
	probeAppends = 100 // WAL appends
	probeOpens   = 5   // corpus loads and snapshot opens
	stageRuns    = 3   // stage-by-stage replicas of Build
)

// probeStages runs Build's stages one by one through the internal
// packages, stageRuns times, with the stage parameters Build derives from
// fx.cfg for a table-and-text task (no expansion or compression,
// Skip-gram window 3). The graph size, walk count and training time are
// the program's own, from Model.Stats of the fixture's Builds; the probe
// must reproduce the graph and walk counts exactly, or it has drifted
// from Build and the run fails.
func (b *bench) probeStages(fx *fixture) error {
	cfg := fx.cfg
	c1, err := corpus.Load(fx.firstPath, fx.firstName)
	if err != nil {
		return err
	}
	c2, err := corpus.Load(fx.secondPath, fx.secondName)
	if err != nil {
		return err
	}
	var g *graph.Graph
	var seqs embed.Sequences
	var nodes, edges int
	for run := 0; run < stageRuns; run++ {
		parent := b.tr.open("probe.stages", 0, 0)
		var res *graph.Result
		var em *embed.Model
		b.tr.do("graph.Build", parent, func(int) {
			res, err = graph.Build(c1, c2, graph.BuildConfig{
				Pre:             textproc.Preprocessor{RemoveStopwords: true, Stem: true, MaxNGram: cfg.MaxNGram},
				Filter:          graph.FilterIntersect,
				ConnectMetadata: true,
			})
		})
		if err != nil {
			return err
		}
		g = res.Graph
		nodes, edges = g.NumNodes(), g.NumEdges()
		b.tr.do("graph.Freeze", parent, func(int) { g.Freeze() })
		b.tr.do("walk.GeneratePacked", parent, func(int) {
			seqs = walk.GeneratePacked(g, walk.Config{NumWalks: cfg.NumWalks, Length: cfg.WalkLength, Seed: cfg.Seed, Workers: cfg.Workers})
		})
		b.tr.do("embed.TrainPacked", parent, func(int) {
			em, err = embed.TrainPacked(seqs, g.Cap(), embed.Config{Dim: cfg.Dim, Window: 3, Negative: cfg.Negative,
				Epochs: cfg.Epochs, Mode: embed.SkipGram, Seed: cfg.Seed, Workers: cfg.Workers, Subsample: cfg.Subsample})
		})
		if err != nil {
			return err
		}
		b.tr.do("match.NewIndexArena", parent, func(int) {
			for _, c := range []*corpus.Corpus{c1, c2} {
				ids := c.IDs()
				arena := make([]float32, len(ids)*cfg.Dim)
				for i, id := range ids {
					if node, ok := res.DocNode[id]; ok {
						copy(arena[i*cfg.Dim:(i+1)*cfg.Dim], em.Vector(int32(node)))
					}
				}
				if _, ierr := match.NewIndexArena(ids, arena, cfg.Dim); ierr != nil {
					err = ierr
				}
			}
		})
		b.tr.close(parent)
		if err != nil {
			return err
		}
	}
	var train []time.Duration
	for _, st := range fx.built {
		train = append(train, st.TrainTime)
		if nodes != st.GraphNodes || edges != st.GraphEdges || seqs.Len() != st.Walks {
			b.problem("stage probe drifted from Build: %d nodes, %d edges, %d walks; Build's %d, %d, %d",
				nodes, edges, seqs.Len(), st.GraphNodes, st.GraphEdges, st.Walks)
			break
		}
	}
	trainS := median(train).Seconds()
	tokens := float64(seqs.NumTokens())
	b.layer["graph.build_ms"] = metric{ms(b.p50("graph.Build")), "ms"}
	b.layer["graph.nodes"] = metric{float64(fx.built[0].GraphNodes), "count"}
	b.layer["walk.tokens"] = metric{tokens, "count"}
	b.layer["walk.generate_ms"] = metric{ms(b.p50("walk.GeneratePacked")), "ms"}
	b.layer["embed.train_s"] = metric{trainS, "s"}
	b.layer["embed.tokens_per_s"] = metric{tokens * float64(cfg.Epochs) / trainS, "1/s"}
	b.layer["match.index_build_ms"] = metric{ms(b.p50("match.NewIndexArena")), "ms"}
	return nil
}

// p50 is the median duration of the spans named name.
func (b *bench) p50(name string) time.Duration { return median(b.tr.durations(name)) }

// probeOpen times LoadCorpus of both sides, and OpenSnapshotFile plus
// Bind: the work tdserved does between exec and ready.
func (b *bench) probeOpen(fx *fixture) error {
	for i := 0; i < probeOpens; i++ {
		var first, second *tdmatch.Corpus
		var err error
		b.tr.do("corpus.load", 0, func(id int) {
			b.tr.do("corpus.LoadCorpus", id, func(int) { first, err = tdmatch.LoadCorpus(fx.firstPath, fx.firstName) })
			if err == nil {
				b.tr.do("corpus.LoadCorpus", id, func(int) { second, err = tdmatch.LoadCorpus(fx.secondPath, fx.secondName) })
			}
		})
		if err != nil {
			return err
		}
		b.tr.do("persist.open", 0, func(id int) {
			var snap *tdmatch.Snapshot
			b.tr.do("persist.OpenSnapshotFile", id, func(int) { snap, err = tdmatch.OpenSnapshotFile(fx.snap) })
			if err == nil {
				b.tr.do("persist.Bind", id, func(int) { _, err = snap.Bind(first, second) })
			}
		})
		if err != nil {
			return err
		}
	}
	b.layer["corpus.load_ms"] = metric{ms(b.p50("corpus.load")), "ms"}
	b.layer["persist.open_ms"] = metric{ms(b.p50("persist.open")), "ms"}
	return nil
}

// probeQueries times Model.TopK, Model.TopKBatch and Server.TopK in
// process on a model bound from the snapshot, and the same keys over
// HTTP on d, one request at a time. Server.TopK runs once over cold keys
// (the queue wait is its excess over Model.TopK) and, when hot, once more
// over the then-cached keys, to match the daemon's cache state for the
// HTTP comparison. It returns the HTTP median.
func (b *bench) probeQueries(fx *fixture, d *daemon, keys []string, hot bool) (time.Duration, error) {
	keys = keys[:min(len(keys), probeQueries)]
	m, err := fx.bind()
	if err != nil {
		return 0, err
	}
	// The model has no cache, so small fixtures repeat their keys here.
	for i := 0; i < probeQueries; i++ {
		k := keys[i%len(keys)]
		b.tr.do("model.TopK", 0, func(int) { _, err = m.TopK(k, topK) })
		if err != nil {
			return 0, err
		}
	}
	var perQuery []time.Duration
	batch := min(probeBatch, len(keys))
	for i := 0; i < probeQueries/batch; i++ {
		at := i * batch % (len(keys) - batch + 1)
		took := b.tr.do("model.TopKBatch", 0, func(int) { m.TopKBatch(keys[at:at+batch], topK) })
		perQuery = append(perQuery, took/time.Duration(batch))
	}
	s := tdmatch.NewServer(m, tdmatch.ServeConfig{})
	defer s.Close()
	passes := []string{"server.TopK.cold"}
	if hot {
		passes = append(passes, "server.TopK.hot")
	}
	for _, name := range passes {
		for _, k := range keys {
			b.tr.do(name, 0, func(int) { _, err = s.TopK(k, topK) })
			if err != nil {
				return 0, err
			}
		}
	}
	c := newLoadClient(d.base, 1, b.tr)
	defer c.close()
	c.phase = b.tr.open("probe.http", 0, 0)
	var httpLat []time.Duration
	for i, k := range keys {
		o := c.send(&shot{op: "topk", id: k, body: topkBody(k, topK)}, time.Now(), int64(i))
		if !o.ok() {
			b.tr.close(c.phase)
			return 0, fmt.Errorf("probe topk %s: %d %v", k, o.status, o.err)
		}
		httpLat = append(httpLat, o.latency())
	}
	b.tr.close(c.phase)
	model, cold := b.p50("model.TopK"), b.p50("server.TopK.cold")
	same := cold
	if hot {
		same = b.p50("server.TopK.hot")
	}
	b.layer["model.topk_us"] = metric{us(model), "us"}
	b.layer["model.topk_batch_us"] = metric{us(median(perQuery)), "us"}
	b.layer["server.queue_wait_us"] = metric{us(cold - model), "us"}
	b.layer["tdserved.http_self_us"] = metric{us(median(httpLat) - same), "us"}
	return median(httpLat), nil
}

// probeIngestLayers times Model.Ingest of one document on a
// snapshot-restored model, Server.Ingest with a WAL attached (fsync
// always), and raw
// wal.Log appends, all in the run's directory. It returns the in-process
// WAL's syncs per append.
func (b *bench) probeIngestLayers(fx *fixture, docs []tdmatch.IngestDoc) (float64, error) {
	m, err := fx.bind()
	if err != nil {
		return 0, err
	}
	for _, doc := range docs {
		b.tr.do("model.Ingest", 0, func(int) { err = m.Ingest([]tdmatch.IngestDoc{doc}) })
		if err != nil {
			return 0, err
		}
	}
	ms, err := fx.bind()
	if err != nil {
		return 0, err
	}
	w, err := tdmatch.OpenWAL(filepath.Join(b.work, "probe-server.wal"), ms.WALOptions())
	if err != nil {
		return 0, err
	}
	defer w.Close()
	s := tdmatch.NewServer(ms, tdmatch.ServeConfig{WAL: w})
	defer s.Close()
	for _, doc := range docs {
		b.tr.do("server.Ingest", 0, func(int) { err = s.Ingest([]tdmatch.IngestDoc{doc}) })
		if err != nil {
			return 0, err
		}
	}
	ws := w.Stats()
	l, _, err := wal.Open(filepath.Join(b.work, "probe-raw.wal"), wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return 0, err
	}
	defer l.Close()
	payload := make([]byte, 256)
	for i := 0; i < probeAppends; i++ {
		b.tr.do("wal.Append", 0, func(int) { _, err = l.Append(1, payload) })
		if err != nil {
			return 0, err
		}
	}
	b.layer["model.ingest_us"] = metric{us(b.p50("model.Ingest")), "us"}
	b.layer["server.ingest_us"] = metric{us(b.p50("server.Ingest")), "us"}
	b.layer["wal.append_us"] = metric{us(b.p50("wal.Append")), "us"}
	return float64(ws.Syncs) / float64(max(ws.Appends, 1)), nil
}

// windowLayers reads the serving counters of a measured window from two
// /v1/stats snapshots.
func (b *bench) windowLayers(before, after serveStats) {
	hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
	b.layer["server.cache_hit_ratio"] = metric{float64(hits) / float64(max(hits+misses, 1)), "ratio"}
	b.layer["server.batch_size_mean"] = metric{float64(after.BatchedQueries-before.BatchedQueries) /
		float64(max(after.Batches-before.Batches, 1)), "count"}
	segs := after.SecondSegments.Segments
	if after.SecondSegments.DeltaDocs > 0 {
		segs++
	}
	b.layer["match.segments"] = metric{float64(segs), "count"}
	b.layer["match.delta_rows"] = metric{float64(after.SecondSegments.DeltaDocs), "count"}
}

// probeDocsFrom makes ingest documents for the probes from the texts of
// the second corpus, under fresh IDs.
func probeDocsFrom(fx *fixture) ([]tdmatch.IngestDoc, error) {
	_, second, err := fx.load()
	if err != nil {
		return nil, err
	}
	var docs []tdmatch.IngestDoc
	for i, id := range second.IDs() {
		if i == probeDocs {
			break
		}
		text, _ := second.DocText(id)
		docs = append(docs, tdmatch.IngestDoc{Side: 2, ID: fmt.Sprintf("probe:n%d", i), Values: []string{text}})
	}
	return docs, nil
}

// probeCommon runs the probes every workload shares.
func (b *bench) probeCommon(fx *fixture, d *daemon, keys []string, hot bool, docs []tdmatch.IngestDoc) (httpP50 time.Duration, syncs float64, err error) {
	if err = b.probeStages(fx); err != nil {
		return
	}
	if err = b.probeOpen(fx); err != nil {
		return
	}
	if httpP50, err = b.probeQueries(fx, d, keys, hot); err != nil {
		return
	}
	syncs, err = b.probeIngestLayers(fx, docs)
	return
}

// probeBuild is build-imdb's traced probe: the stage-by-stage replica of
// Build, cross-checked against the measured Builds, and the serving
// layers on a tdserved started over the last built model.
func (b *bench) probeBuild(fx *fixture, builds []time.Duration, m *tdmatch.Model) error {
	fx.cfg = tdmatch.Defaults()
	fx.cfg.Seed = b.seed
	fx.snap = filepath.Join(fx.dir, "model.snap")
	if err := m.SaveFileV6(fx.snap); err != nil {
		return err
	}
	d, _, err := b.startDaemon(fx)
	if err != nil {
		return err
	}
	docs, err := probeDocsFrom(fx)
	if err != nil {
		return err
	}
	before, err := d.stats()
	if err != nil {
		return err
	}
	_, syncs, err := b.probeCommon(fx, d, fx.queries, false, docs)
	if err != nil {
		return err
	}
	after, err := d.stats()
	if err != nil {
		return err
	}
	b.windowLayers(before, after)
	b.layer["wal.syncs_per_append"] = metric{syncs, "ratio"}
	var stages time.Duration
	for _, name := range []string{"graph.Build", "graph.Freeze", "walk.GeneratePacked", "embed.TrainPacked", "match.NewIndexArena"} {
		stages += b.p50(name)
	}
	b.crossCheck("build stage sum / Build median", stages, median(builds))
	return d.stop()
}

// probeServe is serve-cold's and serve-hot's traced probe.
func (b *bench) probeServe(fx *fixture, d *daemon, before, after serveStats, keys []string, hot bool, openP50 time.Duration) error {
	docs, err := probeDocsFrom(fx)
	if err != nil {
		return err
	}
	httpP50, syncs, err := b.probeCommon(fx, d, keys, hot, docs)
	if err != nil {
		return err
	}
	b.windowLayers(before, after)
	b.layer["wal.syncs_per_append"] = metric{syncs, "ratio"}
	if !hot {
		sum := time.Duration((b.layer["tdserved.http_self_us"].Value + b.layer["server.queue_wait_us"].Value +
			b.layer["model.topk_us"].Value) * float64(time.Microsecond))
		b.crossCheck("http_self + queue_wait + model.topk / open-loop topk p50", sum, openP50)
		logf("probe HTTP p50 %v", httpP50)
	}
	return nil
}

// probeIngest is serve-ingest's traced probe, run on the restarted
// daemon (whose cache is cold); the window counters come from the daemon
// that served the mix.
func (b *bench) probeIngest(fx *fixture, d *daemon, before, after serveStats, keys []string) error {
	_, _, err := b.probeCommon(fx, d, keys, false, fx.held[ingestDocs:ingestDocs+probeDocs])
	if err != nil {
		return err
	}
	b.windowLayers(before, after)
	if before.WAL == nil || after.WAL == nil {
		return fmt.Errorf("tdserved reports no WAL counters")
	}
	b.layer["wal.syncs_per_append"] = metric{float64(after.WAL.Syncs-before.WAL.Syncs) /
		float64(max(after.WAL.Appends-before.WAL.Appends, 1)), "ratio"}
	return nil
}

// crossCheck records how a sum of per-layer times compares with the
// end-to-end time it should account for. The layers bracket the
// end-to-end figure when the ratio lies in [0.75, 1.25]; otherwise the
// attribution does not add up and the traced run fails.
func (b *bench) crossCheck(name string, layers, e2e time.Duration) {
	ratio := float64(layers) / float64(e2e)
	ok := ratio >= 0.75 && ratio <= 1.25
	b.checks[name] = map[string]any{"layers_ms": ms(layers), "end_to_end_ms": ms(e2e), "ratio": ratio, "brackets": ok}
	logf("cross-check %s: %v vs %v (ratio %.2f, brackets %v)", name, layers.Round(time.Microsecond), e2e.Round(time.Microsecond), ratio, ok)
	if !ok {
		b.problem("cross-check %s: ratio %.2f outside [0.75, 1.25]", name, ratio)
	}
}
