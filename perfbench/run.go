package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"bioenrich/internal/corpus"
	"bioenrich/internal/loadtest"
	"bioenrich/internal/ontology"
	"bioenrich/internal/state"
)

// endToEnd lists the metrics a -trace 0 run reports, and perLayer
// those a -trace 1 run reports. Every run reports every name of its
// list; a per-layer metric of a layer the workload does not use
// reads 0, which is the predicted non-move.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"p95_ms", "ms"},
	{"server_cpu_ms_per_op", "ms"},
	{"server_rss_mb", "MB"},
	{"ok_frac", "frac"},
}

var perLayer = []struct{ name, unit string }{
	{"client.search_p50_ms", "ms"}, {"client.search_p95_ms", "ms"},
	{"client.classify_p50_ms", "ms"}, {"client.classify_p95_ms", "ms"},
	{"client.recommend_p50_ms", "ms"}, {"client.recommend_p95_ms", "ms"},
	{"client.ingest_p50_ms", "ms"}, {"client.ingest_p95_ms", "ms"},
	{"client.enrich_job_p50_s", "s"},
	{"server.handler_ms.search", "ms"}, {"server.handler_ms.classify", "ms"},
	{"server.handler_ms.recommend", "ms"}, {"server.handler_ms.ingest", "ms"},
	{"server.outside_ms", "ms"}, {"server.encode_ms", "ms"},
	{"registry.snapshot_ms", "ms"},
	{"classify.score_ms", "ms"}, {"classify.tokenize_ms", "ms"}, {"classify.build_ms", "ms"},
	{"classify.builds", "count"}, {"classify.cache_hit_ratio", "ratio"},
	{"corpus.search_ms", "ms"}, {"corpus.docs_end", "count"},
	{"recommend.rank_ms", "ms"},
	{"batch.docs_per_group", "docs"}, {"batch.ingest_ms", "ms"}, {"batch.index_ms", "ms"},
	{"storage.before_publish_ms", "ms"}, {"storage.fsyncs_per_ingest", "count"},
	{"storage.fsync_ms", "ms"}, {"storage.wal_bytes_per_doc", "B"}, {"storage.segments_written", "count"},
	{"core.step1_extract_s", "s"}, {"core.step2_polysemy_s", "s"},
	{"core.step3_senseind_s", "s"}, {"core.step4_linkage_s", "s"}, {"core.run_s", "s"},
	{"jobs.queue_wait_ms", "ms"}, {"jobs.polls_per_job", "count"},
	{"gen.lag_p95_ms", "ms"}, {"gen.conn_wait_p95_ms", "ms"}, {"gen.cpu_s", "s"},
	{"host.steal_frac", "frac"},
	{"trace.overhead_ms_per_op", "ms"}, {"trace.replayed_ops", "count"},
}

// routes maps each open-loop op to the server route that serves it.
var routes = map[loadtest.Op]string{
	loadtest.OpSearch:    "GET /v1/search",
	loadtest.OpClassify:  "POST /v1/classify",
	loadtest.OpRecommend: "POST /v1/recommend",
	loadtest.OpIngest:    "POST /v1/documents",
}

var opOrder = []loadtest.Op{loadtest.OpSearch, loadtest.OpClassify, loadtest.OpRecommend, loadtest.OpIngest}

func (r *runner) run(ctx context.Context) error {
	var err error
	r.corpusPath, r.ontPath, r.meshSeed, err = generateCorpus(filepath.Join(r.dir, "corpus"), r.seed, r.w)
	if err != nil {
		return fmt.Errorf("generate corpus: %w", err)
	}
	srv, err := r.setup(ctx)
	if err != nil {
		return err
	}
	stopped := false
	defer func() {
		if !stopped {
			_ = srv.stop()
		}
	}()
	start, err := loadtest.FetchHealth(ctx, r.client, srv.base)
	if err != nil {
		return err
	}
	r.note("corpus: %d docs, %d concepts (mesh seed %d); window %s", start.Docs, start.Concepts, r.meshSeed, r.window)

	var win window
	edge := func(p *promSample, ps *procSample) error {
		var err error
		if *p, err = scrape(ctx, r.client, srv.base); err != nil {
			return err
		}
		*ps, err = readProc(srv.cmd.Process.Pid)
		return err
	}

	var ops []*op
	var samples []sample
	var jobs []job
	if r.w.rate > 0 {
		if ops, err = schedule(r.w, r.meshSeed, r.window); err != nil {
			return err
		}
	}
	if err := edge(&win.before, &win.procBefore); err != nil {
		return err
	}
	cpu0 := cpuSelf()
	if r.w.rate > 0 {
		samples = openLoop(ctx, r.client, srv.base, ops)
	} else if jobs, err = enrichLoop(ctx, r.client, srv.base, r.w.enrichTop, r.window); err != nil {
		return err
	}
	r.set("gen.cpu_s", (cpuSelf() - cpu0).Seconds(), "s")
	if err := edge(&win.after, &win.procAfter); err != nil {
		return err
	}
	if r.w.rate > 0 {
		if err := r.checkOpenLoop(ctx, srv, ops, samples, start.Docs); err != nil {
			return err
		}
	}
	end, err := loadtest.FetchHealth(ctx, r.client, srv.base)
	if err != nil {
		return err
	}
	r.set("corpus.docs_end", float64(end.Docs), "count")
	stopped = true
	if err := srv.stop(); err != nil {
		return incorrect("server did not stop cleanly: %v", err)
	}

	if r.w.rate > 0 {
		r.openLoopMetrics(ops, samples, win)
	} else if err := r.jobMetrics(jobs, win); err != nil {
		return err
	}
	if r.trace {
		if err := r.traced(ctx, ops, jobs); err != nil {
			return err
		}
		r.keep(perLayer)
	} else {
		r.keep(endToEnd)
	}
	return nil
}

// keep restricts the reported metrics to list, reporting 0 for any
// the workload did not produce.
func (r *runner) keep(list []struct{ name, unit string }) {
	out := map[string]metric{}
	for _, m := range list {
		v := r.metrics[m.name]
		out[m.name] = metric{Value: v.Value, Unit: m.unit}
	}
	r.metrics = out
}

// setup boots the server repeatedly and reports the median set-up
// time: spawn until /v1/ready answers 200, plus the warm-up that
// fills the lazy classify cache (the first classify builds the concept
// profiles). The last server booted is kept for the window.
func (r *runner) setup(ctx context.Context) (*server, error) {
	n := setupsPerRun
	if r.trace {
		n = 1
	}
	warm, err := newOp(loadtest.NewGen(r.meshSeed, vocabSize, 2), loadtest.OpClassify)
	if err != nil {
		return nil, err
	}
	var times []time.Duration
	for k := 0; k < n; k++ {
		dataDir := ""
		if r.w.durable {
			dataDir = filepath.Join(r.dir, fmt.Sprintf("data-%d", k))
		}
		t0 := time.Now()
		srv, err := startServer(ctx, r.serveBin, r.dir, fmt.Sprintf("serve-%d", k), r.corpusPath, r.ontPath, dataDir)
		if err != nil {
			return nil, err
		}
		if err := srv.waitReady(ctx, r.client); err != nil {
			_ = srv.stop()
			return nil, err
		}
		if r.w.rate > 0 {
			s := send(ctx, r.client, srv.base, warm.method, warm.path, warm.body)
			if !s.ok() {
				_ = srv.stop()
				return nil, fmt.Errorf("warm-up classify: status %d (%v)", s.status, s.err)
			}
		}
		times = append(times, time.Since(t0))
		if k == n-1 {
			r.set("setup_s", medianDur(times).Seconds(), "s")
			r.note("setup: %v (median of %d)", times, n)
			return srv, nil
		}
		if err := srv.stop(); err != nil {
			return nil, fmt.Errorf("stop set-up server %d: %w", k, err)
		}
		if dataDir != "" {
			if err := os.RemoveAll(dataDir); err != nil {
				return nil, err
			}
		}
	}
	panic("unreachable")
}

// checkOpenLoop counts failures and checks every answer of the window,
// then runs the workload's own checks against the still-running server.
func (r *runner) checkOpenLoop(ctx context.Context, srv *server, ops []*op, samples []sample, initialDocs int) error {
	r.attempted = len(ops)
	for i, o := range ops {
		s := &samples[i]
		if !s.ok() {
			r.failed++
			continue
		}
		if err := checkShape(o, s); err != nil {
			return incorrect("op %d (%s): %v", o.id, o.kind, err)
		}
		if !r.w.durable && s.epoch != "1" {
			return incorrect("op %d (%s): epoch %q on a workload without writes", o.id, o.kind, s.epoch)
		}
	}
	if r.w.durable {
		h, err := loadtest.FetchHealth(ctx, r.client, srv.base)
		if err != nil {
			return err
		}
		if err := checkIngestChurn(ops, samples, initialDocs, h); err != nil {
			return incorrect("%v", err)
		}
		r.note("ingest checks: health docs %d epoch %d", h.Docs, h.Epoch)
		return nil
	}
	return r.checkProbes(ctx, srv)
}

// checkProbes sends the fixed probe set and compares each answer byte
// for byte with what the library computes in-process on the same
// corpus files at the same epoch.
func (r *runner) checkProbes(ctx context.Context, srv *server) error {
	snap, err := r.loadSnapshot()
	if err != nil {
		return err
	}
	ps, err := probes(r.meshSeed)
	if err != nil {
		return err
	}
	lib := newLibrary()
	for _, p := range ps {
		got := send(ctx, r.client, srv.base, p.method, p.path, p.body)
		if !got.ok() {
			return incorrect("probe %d (%s): status %d (%v)", p.id, p.kind, got.status, got.err)
		}
		v, err := lib.answer(ctx, snap, p, nil)
		if err != nil {
			return err
		}
		want, err := encode(v)
		if err != nil {
			return err
		}
		if string(got.body) != string(want) {
			return incorrect("probe %d (%s): server answered %s, library computes %s", p.id, p.kind, truncate(got.body), truncate(want))
		}
	}
	r.note("probes: %d answers byte-identical to the in-process library", len(ps))
	return nil
}

// loadSnapshot loads the generated corpus files the way cmd/serve
// does, as the boot snapshot (epoch 1). Snapshots are immutable, so
// the probes and the replays share one.
func (r *runner) loadSnapshot() (*state.Snapshot, error) {
	if r.snap != nil {
		return r.snap, nil
	}
	c, err := corpus.Load(r.corpusPath)
	if err != nil {
		return nil, err
	}
	o, err := ontology.Load(r.ontPath)
	if err != nil {
		return nil, err
	}
	r.snap = &state.Snapshot{Corpus: c, Ontology: o, Epoch: 1}
	return r.snap, nil
}

// penalty is the latency charged to a failed or refused open-loop op:
// it misses any latency limit.
var penalty = ms(requestLimit)

// openLoopMetrics derives the end-to-end, client and scrape metrics of
// an open-loop window.
func (r *runner) openLoopMetrics(ops []*op, samples []sample, win window) {
	var all, lags, waits, service []float64
	byKind := map[loadtest.Op][]float64{}
	ok := 0
	for i, o := range ops {
		s := &samples[i]
		lat := penalty
		if s.ok() {
			lat = ms(s.latency)
			ok++
			service = append(service, ms(s.service))
		}
		all = append(all, lat)
		byKind[o.kind] = append(byKind[o.kind], lat)
		lags = append(lags, ms(s.lag))
		waits = append(waits, ms(s.connWait))
	}
	r.set("p50_ms", quantile(all, 0.5), "ms")
	r.set("p95_ms", quantile(all, 0.95), "ms")
	r.set("ok_frac", float64(ok)/float64(len(ops)), "frac")
	r.set("gen.lag_p95_ms", quantile(lags, 0.95), "ms")
	r.set("gen.conn_wait_p95_ms", quantile(waits, 0.95), "ms")
	r.serverMetrics(win, ok)

	var handlerSum, handlerN float64
	for _, k := range opOrder {
		v := byKind[k]
		if len(v) == 0 {
			continue
		}
		p50, p95 := quantile(v, 0.5), quantile(v, 0.95)
		r.set("client."+string(k)+"_p50_ms", p50, "ms")
		r.set("client."+string(k)+"_p95_ms", p95, "ms")
		r.note("%s_p50_ms %.3f ms  %s_p95_ms %.3f ms  (n=%d)", k, p50, k, p95, len(v))
		lbl := `{endpoint="` + routes[k] + `"}`
		r.set("server.handler_ms."+string(k), win.handlerMeanMS(routes[k]), "ms")
		handlerSum += win.d("bioenrich_http_request_seconds_sum"+lbl) * 1000
		handlerN += win.d("bioenrich_http_request_seconds_count" + lbl)
	}
	if handlerN > 0 {
		r.set("server.outside_ms", mean(service)-handlerSum/handlerN, "ms")
	}
	r.note("all ops: p50 %.3f ms p95 %.3f ms (n=%d, failed %d); generator lag p95 %.3f ms, connection wait p95 %.3f ms",
		quantile(all, 0.5), quantile(all, 0.95), len(all), len(ops)-ok, quantile(lags, 0.95), quantile(waits, 0.95))

	hits := win.d(`bioenrich_classify_cache_hits_total`)
	misses := win.d(`bioenrich_classify_cache_misses_total`)
	r.set("classify.builds", misses, "count")
	if hits+misses > 0 {
		r.set("classify.cache_hit_ratio", hits/(hits+misses), "ratio")
	}
	groups := win.d("bioenrich_ingest_batch_docs_count")
	if groups > 0 {
		r.set("batch.docs_per_group", win.d("bioenrich_ingest_batch_docs_sum")/groups, "docs")
	}
	if ingests := float64(len(byKind[loadtest.OpIngest])); ingests > 0 {
		r.set("storage.fsyncs_per_ingest", win.d("bioenrich_storage_fsync_total")/ingests, "count")
	}
	if n := win.d("bioenrich_storage_fsync_seconds_count"); n > 0 {
		r.set("storage.fsync_ms", win.d("bioenrich_storage_fsync_seconds_sum")/n*1000, "ms")
	}
	if docs := win.d("bioenrich_storage_wal_docs_total"); docs > 0 {
		r.set("storage.wal_bytes_per_doc", win.d("bioenrich_storage_wal_bytes_total")/docs, "B")
	}
	r.set("storage.segments_written", win.d("bioenrich_storage_segments_written_total"), "count")
}

// serverMetrics sets the /proc-derived metrics for a window that
// completed ok operations.
func (r *runner) serverMetrics(win window, ok int) {
	if ok > 0 {
		r.set("server_cpu_ms_per_op", win.cpuMS()/float64(ok), "ms")
	}
	r.set("server_rss_mb", float64(win.procAfter.hwmKB)/1024, "MB")
	r.set("host.steal_frac", win.stealFrac(), "frac")
	r.note("server: %.0f ms CPU over the window, VmHWM %.1f MB; host steal %.1f%% of CPU time",
		win.cpuMS(), float64(win.procAfter.hwmKB)/1024, 100*win.stealFrac())
}

// jobMetrics checks the closed-loop jobs and derives their metrics. A
// job that was refused or did not end done counts as failed, and its
// latency as the penalty, as an open-loop op's does.
func (r *runner) jobMetrics(jobs []job, win window) error {
	if err := checkJobs(jobs); err != nil {
		return incorrect("%v", err)
	}
	r.attempted = len(jobs)
	var lat, waits, polls []float64
	for _, j := range jobs {
		if j.final.Status != "done" {
			r.failed++
			lat = append(lat, penalty)
			continue
		}
		lat = append(lat, ms(j.latency))
		polls = append(polls, float64(j.polls))
		if j.final.Started != nil {
			waits = append(waits, ms(j.final.Started.Sub(j.final.Created)))
		}
	}
	ok := len(jobs) - r.failed
	r.set("p50_ms", quantile(lat, 0.5), "ms")
	r.set("p95_ms", quantile(lat, 0.95), "ms")
	r.set("ok_frac", float64(ok)/float64(len(jobs)), "frac")
	r.set("client.enrich_job_p50_s", quantile(lat, 0.5)/1000, "s")
	r.set("jobs.queue_wait_ms", mean(waits), "ms")
	r.set("jobs.polls_per_job", mean(polls), "count")
	r.serverMetrics(win, ok)
	steps := map[string]float64{}
	for _, s := range []struct{ metric, span string }{
		{"core.step1_extract_s", "step1.extract"},
		{"core.step2_polysemy_s", "step2.polysemy"},
		{"core.step3_senseind_s", "step3.senseind"},
		{"core.step4_linkage_s", "step4.linkage"},
	} {
		var v float64
		if ok > 0 {
			v = win.d(`bioenrich_span_seconds_sum{span="`+s.span+`"}`) / float64(ok)
		}
		r.set(s.metric, v, "s")
		steps[s.metric] = v
	}
	r.note("enrich_job_p50_s %.4f s (n=%d jobs); busy seconds per job: %s", quantile(lat, 0.5)/1000, len(jobs), joinKV(steps))
	return nil
}

// traced replays the window's op stream in-process, without and with
// spans, and derives the per-layer self times and the tracing
// overhead.
func (r *runner) traced(ctx context.Context, ops []*op, jobs []job) error {
	snap, err := r.loadSnapshot()
	if err != nil {
		return err
	}
	tr := newTracer()
	if r.w.rate == 0 {
		var want json.RawMessage
		var steps map[string]float64
		off, on, err := alternate(tr, func(t *tracer, pass int) (time.Duration, error) {
			got, st, d, err := enrichReplay(ctx, snap.Corpus, snap.Ontology, r.w.enrichTop, t)
			if err != nil {
				return 0, err
			}
			if want == nil {
				want, steps = got, st
			} else if string(got) != string(want) {
				return 0, incorrect("in-process enrichment is not deterministic")
			}
			return d, nil
		})
		if err != nil {
			return err
		}
		for _, j := range jobs {
			if j.final.Status == "done" && string(j.result) != string(want) {
				return incorrect("job %s report differs from the in-process enrichment report", j.final.ID)
			}
		}
		r.set("core.run_s", on.Seconds(), "s")
		r.set("trace.overhead_ms_per_op", ms(on-off), "ms")
		r.set("trace.replayed_ops", 1, "count")
		r.note("in-process enrichment, fastest of two passes each: %.3f s untraced, %.3f s traced; busy seconds: %s",
			off.Seconds(), on.Seconds(), joinKV(steps))
		return r.writeTrace(tr.spans)
	}

	n := r.w.replayOps
	if n > len(ops) {
		n = len(ops)
	}
	prefix := ops[:n]
	// Ingests clone the snapshot's corpus, so every pass starts from the
	// same boot snapshot.
	dirFor := func(tag string) string {
		if !r.w.durable {
			return ""
		}
		return filepath.Join(r.dir, "replay-"+tag)
	}
	off, on, err := alternate(tr, func(t *tracer, pass int) (time.Duration, error) {
		tag := "off"
		if t != nil {
			tag = "on"
		}
		return replay(ctx, snap.Corpus, snap.Ontology, prefix, dirFor(fmt.Sprintf("%s-%d", tag, pass)), t)
	})
	if err != nil {
		return err
	}
	st := tr.selfTimes()
	get := func(name string) layerStat { return st[name] }
	r.set("server.encode_ms", get("server.encode").SelfMS, "ms")
	r.set("registry.snapshot_ms", get("registry.snapshot").SelfMS, "ms")
	r.set("classify.score_ms", get("classify.hit").WallMS, "ms")
	r.set("classify.tokenize_ms", get("classify.tokenize").WallMS, "ms")
	r.set("classify.build_ms", get("classify.miss").WallMS, "ms")
	r.set("corpus.search_ms", get("corpus.search").SelfMS, "ms")
	r.set("recommend.rank_ms", get("recommend.rank").SelfMS, "ms")
	r.set("batch.ingest_ms", get("batch.ingest").WallMS, "ms")
	r.set("batch.index_ms", get("batch.ingest").SelfMS, "ms")
	r.set("storage.before_publish_ms", get("storage.before_publish").WallMS, "ms")
	r.set("trace.overhead_ms_per_op", (ms(on)-ms(off))/float64(n), "ms")
	r.set("trace.replayed_ops", float64(n), "count")
	for _, name := range sortedSpanNames(st) {
		s := st[name]
		r.note("span %-24s calls %5d  self %.4f ms  wall %.4f ms", name, s.Calls, s.SelfMS, s.WallMS)
	}
	r.note("replay of %d ops, fastest of two passes each: %.1f ms untraced, %.1f ms traced", n, ms(off), ms(on))
	return r.writeTrace(tr.spans)
}

// alternate runs an untraced and a traced pass in turn, twice, and
// returns each side's fastest, so warm-up and outside noise do not pass
// for tracing cost. Only the first traced pass records into tr.
func alternate(tr *tracer, pass func(t *tracer, n int) (time.Duration, error)) (off, on time.Duration, err error) {
	off, on = time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for n := 0; n < 2; n++ {
		d, err := pass(nil, n)
		if err != nil {
			return 0, 0, err
		}
		off = min(off, d)
		t := tr
		if n > 0 {
			t = newTracer()
		}
		if d, err = pass(t, n); err != nil {
			return 0, 0, err
		}
		on = min(on, d)
	}
	return off, on, nil
}
