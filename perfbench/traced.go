package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dblp"
	"repro/internal/extract"
	"repro/internal/graph"
	"repro/internal/gtree"
	"repro/internal/layout"
	"repro/internal/render"
	"repro/internal/server"
)

// sceneSize is the server's default SVG canvas.
const sceneSize = 900.0

// poolDelta is what one core call cost the buffer pool and the heap.
type poolDelta struct {
	pins, misses, evictions, hits, retries uint64
	allocKB                                float64
}

// replayer re-runs each request's layer calls on an engine the harness
// holds, the way the core composes them, so each layer's public function
// can be timed on its own.
type replayer struct {
	eng      *core.Engine
	tr       *tracer
	extracts []poolDelta
	analyzes []poolDelta
}

// timed runs fn, inside a span when traced.
func (p *replayer) timed(traced bool, name string, req, parent int, fn func() error) error {
	if !traced {
		return fn()
	}
	i := p.tr.begin(name, req, parent)
	err := fn()
	p.tr.end(i)
	return err
}

// counters snapshots the disk engine's pool and retry counters and the
// heap's allocation total.
func (p *replayer) counters() (st poolDelta) {
	if s := p.eng.Store(); s != nil {
		ps, rs := s.PoolStats(), s.RetryStats()
		st.hits, st.misses, st.evictions, st.retries = ps.Hits, ps.Misses, ps.Evictions, rs.Retries
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	st.allocKB = float64(m.TotalAlloc) / 1024
	return st
}

func since(a, b poolDelta) poolDelta {
	d := poolDelta{hits: b.hits - a.hits, misses: b.misses - a.misses, evictions: b.evictions - a.evictions,
		retries: b.retries - a.retries, allocKB: b.allocKB - a.allocKB}
	d.pins = d.hits + d.misses
	return d
}

// replay runs r's layer calls; traced adds spans, the extract StageHook
// and the pool/heap counters. It returns the wall time of the calls.
func (p *replayer) replay(r request, req, parent int, traced bool) (time.Duration, error) {
	t := p.eng.Tree()
	begin := time.Now()
	var err error
	switch r.op {
	case opScene:
		err = p.timed(traced, "gtree.tomahawk", req, parent, func() error {
			t.Tomahawk(r.focus, gtree.TomahawkOptions{Grandchildren: true})
			return nil
		})
	case opSceneSVG:
		var sc *gtree.Scene
		var l *layout.SceneLayout
		p.timed(traced, "gtree.tomahawk", req, parent, func() error {
			sc = t.Tomahawk(r.focus, gtree.TomahawkOptions{Grandchildren: true})
			return nil
		})
		p.timed(traced, "layout.scene", req, parent, func() error { l = layout.LayoutScene(t, sc, sceneSize/2); return nil })
		p.timed(traced, "render.svg", req, parent, func() error { render.SceneSVG(t, sc, l, sceneSize); return nil })
	case opLabelPrefix:
		err = p.timed(traced, "gtree.label", req, parent, func() error {
			_, err := p.eng.SearchLabelPrefix(r.text, 10)
			return err
		})
	case opLabelExact:
		err = p.timed(traced, "gtree.label", req, parent, func() error {
			_, err := p.eng.FindLabel(r.text)
			return err
		})
	case opLeafReport:
		var sub *graph.Graph
		err = p.timed(traced, "gtree.leaf_load", req, parent, func() error {
			var err error
			sub, _, err = p.eng.LeafSubgraph(r.focus)
			return err
		})
		if err == nil {
			p.timed(traced, "analysis.leaf_report", req, parent, func() error { analysis.Report(sub, 0, 1); return nil })
		}
	case opExtract:
		opts := extract.Options{Budget: r.budget}
		if !traced {
			_, err = p.eng.Extract(r.sources, opts)
			break
		}
		c0 := p.counters()
		begin = time.Now()
		ci := p.tr.begin("core.extract", req, parent)
		opts.StageHook = func(stage string, start time.Time, d time.Duration) {
			p.tr.record("extract."+stage, req, ci, start, d)
		}
		_, err = p.eng.Extract(r.sources, opts)
		p.tr.end(ci)
		took := time.Since(begin)
		p.extracts = append(p.extracts, since(c0, p.counters()))
		return took, err
	case opGraphAnalysis:
		if !traced {
			_, err = p.eng.AnalyzeGraph(analysis.PageRankOptions{}, r.topK)
			break
		}
		c0 := p.counters()
		begin = time.Now()
		err = p.timed(true, "core.analyze", req, parent, func() error {
			_, err := p.eng.AnalyzeGraph(analysis.PageRankOptions{}, r.topK)
			return err
		})
		took := time.Since(begin)
		p.analyzes = append(p.analyzes, since(c0, p.counters()))
		return took, err
	}
	return time.Since(begin), err
}

// direct times the whole-graph kernels the analysis endpoint composes,
// called straight on the engine's adjacency (AnalyzeGraph has no hook
// between them).
func (p *replayer) direct(req, parent int) error {
	adj, err := p.eng.Adj()
	if err != nil {
		return err
	}
	p.timed(true, "analysis.report", req, parent, func() error {
		analysis.ReportAdjSharded(adj, false, 0)
		return nil
	})
	p.timed(true, "analysis.pagerank", req, parent, func() error {
		analysis.PageRankAdj(adj, analysis.PageRankOptions{})
		return nil
	})
	return nil
}

func serveInProcess(h http.Handler, r request) outcome {
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req := httptest.NewRequest(r.method, "/sessions/"+sessionName+r.path, body)
	rec := httptest.NewRecorder()
	begin := time.Now()
	h.ServeHTTP(rec, req)
	return outcome{status: rec.Code, body: rec.Body.Bytes(), cache: rec.Header().Get("X-Gmine-Cache"), dur: time.Since(begin)}
}

// runTraced replays the workload's seeded stream in-process. Each request
// goes through the real handler (span "server"); requests the result cache
// did not answer are then replayed on the harness's own engine twice, once
// traced and once bare, in alternating order, which gives the per-layer
// times and the tracing overhead.
func runTraced(cfg config, work string) (result, error) {
	tr := newTracer()
	setupSpan := func(name string, fn func() error) error {
		i := tr.begin(name, -1, -1)
		err := fn()
		tr.end(i)
		return err
	}
	var ds *dblp.Dataset
	setupSpan("dblp.generate", func() error { ds = generate(cfg.scale); return nil })
	d := indexDataset(cfg.seed, ds)
	setupSpan("graph.csr_build", func() error { graph.ToCSR(d.g); return nil })
	var memEng, diskEng *core.Engine
	path := filepath.Join(work, "bench.gtree")
	err := setupSpan("gtree.build", func() (err error) { memEng, err = core.BuildEngine(d.g, buildConfig); return err })
	if err == nil {
		err = setupSpan("gtree.save", func() error { return memEng.SaveTree(path, pageSize) })
	}
	if err == nil {
		err = setupSpan("gtree.open", func() (err error) { diskEng, err = core.OpenEngine(path, poolPages); return err })
	}
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	defer diskEng.Close()
	o := newOracle(d, memEng.Tree())
	env := stamp(cfg, d)
	fmt.Println(env)

	srv := server.New(server.Config{Logger: slog.New(slog.DiscardHandler)})
	sreq := server.CreateSessionRequest{Name: sessionName, Source: "gtree", Path: path, PoolPages: poolPages, SweepShards: sweepShards}
	p := &replayer{eng: diskEng, tr: tr}
	if !cfg.spec.disk {
		sreq = server.CreateSessionRequest{Name: sessionName, Source: "synthetic", Scale: cfg.scale, Seed: graphSeed,
			K: treeK, Levels: treeLevels, SweepShards: sweepShards}
		p.eng = memEng
	}
	p.eng.SetSweepShards(sweepShards)
	if _, err := srv.Preload(sreq); err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	h := srv.Handler()
	// DELETE /sessions/bench closes the session and its G-Tree file.
	defer serveInProcess(h, request{method: "DELETE"})

	var res result
	for _, r := range warmups(cfg.workload, d, memEng.Tree()) {
		if _, err := verify(o, r, serveInProcess(h, r), true); err != nil {
			fmt.Println("# FAIL warm-up", err)
			res.Failed++
		}
		if _, err := p.replay(r, -1, -1, false); err != nil {
			return result{}, fmt.Errorf("warm-up replay: %w", err)
		}
	}

	var next func() request
	if cfg.spec.extract {
		next = newExtractStream(d).next
	} else {
		walkers := make([]*navWalker, cfg.spec.clients)
		for c := range walkers {
			walkers[c] = newNavWalker(d, memEng.Tree(), c)
		}
		turn := 0
		next = func() request {
			turn++
			return walkers[turn%len(walkers)].next()
		}
	}

	var ops []opKind
	var nsrc []int
	var serverSelf sample
	var traced, bare sample
	hits, cached := 0, 0
	type pendingCheck struct {
		r    request
		body []byte
	}
	var pending []pendingCheck
	window := time.Duration(cfg.seconds * float64(time.Second))
	begin := time.Now()
	for i := 0; time.Since(begin) < window; i++ {
		r := next()
		ops, nsrc = append(ops, r.op), append(nsrc, len(r.sources))
		root := tr.begin("request", i, -1)
		sv := tr.begin("server", i, root)
		// Extractions and whole-graph analyses ask for the server's own
		// request trace, which times the engine call inside the same
		// ServeHTTP; subtracting a separate replay would leave only noise
		// next to a solve of hundreds of milliseconds.
		heavy := r.op == opExtract || r.op == opGraphAnalysis
		sr := r
		if heavy {
			sr.path = withTrace(r.path)
		}
		out := serveInProcess(h, sr)
		tr.end(sv)
		inCore := time.Duration(-1)
		var err error
		if heavy && out.status == http.StatusOK {
			out.body, inCore, err = unwrapTrace(out.body)
		}
		late, verr := verify(o, r, out, !cfg.spec.extract)
		err = firstErr(err, verr)
		if late {
			pending = append(pending, pendingCheck{r, out.body})
		}
		if out.cache != "" {
			cached++
		}
		var coreDur time.Duration
		if out.cache == "hit" {
			hits++
		} else if err == nil {
			// Alternate which variant runs first, so warm-cache effects
			// do not favour one side.
			var td, bd time.Duration
			var terr, berr error
			if i%2 == 0 {
				td, terr = p.replay(r, i, root, true)
				bd, berr = p.replay(r, i, root, false)
			} else {
				bd, berr = p.replay(r, i, root, false)
				td, terr = p.replay(r, i, root, true)
			}
			if r.op == opGraphAnalysis && terr == nil {
				terr = p.direct(i, root)
			}
			err = firstErr(terr, berr)
			traced.add(td)
			bare.add(bd)
			coreDur = bd
		}
		tr.end(root)
		if inCore >= 0 {
			coreDur = inCore
		}
		serverSelf.add(max(0, out.dur-coreDur))
		if err != nil {
			res.Failed++
			if res.Failed <= 5 {
				fmt.Println("# FAIL", err)
			}
		}
	}
	res.Attempted = len(ops)
	for _, pc := range pending {
		if err := o.check(pc.r, pc.body); err != nil {
			res.Failed++
			fmt.Println("# FAIL", err)
		}
	}
	res.Correct = res.Failed == 0

	overhead := 0.0
	if bare.sum() > 0 {
		overhead = 100 * (traced.sum() - bare.sum()) / bare.sum()
	}
	layerReport(tr.spans, ops, serverSelf, overhead)
	if err := writeSpans(cfg, env, tr.spans); err != nil {
		return result{}, err
	}
	res.Metrics = layerMetrics(tr.spans, nsrc, p, serverSelf, hits, cached, overhead)
	return res, nil
}

// engineStages are the top-level stages of the server's request trace
// that time its engine call; rwr, expand and induce nest inside "solve".
var engineStages = map[string]bool{"open": true, "labels": true, "solve": true, "report": true, "pagerank": true, "rank": true}

func withTrace(path string) string {
	if strings.Contains(path, "?") {
		return path + "&trace=1"
	}
	return path + "?trace=1"
}

// unwrapTrace splits a ?trace=1 answer into the result body and the time
// the server spent in its engine call (0 for a cache hit).
func unwrapTrace(body []byte) ([]byte, time.Duration, error) {
	var env struct {
		Trace struct {
			Stages []struct {
				Name      string `json:"name"`
				DurMicros int64  `json:"durMicros"`
			} `json:"stages"`
		} `json:"trace"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		return body, -1, fmt.Errorf("trace envelope: %w", err)
	}
	var d time.Duration
	for _, st := range env.Trace.Stages {
		if engineStages[st.Name] {
			d += time.Duration(st.DurMicros) * time.Microsecond
		}
	}
	return env.Result, d, nil
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// layerOrder is the blocking order of the layers under one request.
var layerOrder = []string{
	"core.extract", "extract.rwr", "extract.expand", "extract.induce", "core.analyze", "analysis.report", "analysis.pagerank",
	"gtree.tomahawk", "layout.scene", "render.svg", "gtree.label", "gtree.leaf_load", "analysis.leaf_report",
}

// layerReport prints, per operation type, the median self time of each
// layer along the request's blocking steps, then the tracing overhead.
func layerReport(spans []span, ops []opKind, serverSelf sample, overhead float64) {
	self := selfTimes(spans)
	per := make([]map[string]sample, numOps)
	srv := make([]sample, numOps)
	for i := range per {
		per[i] = map[string]sample{}
	}
	for i, s := range spans {
		if s.Req >= 0 && s.Name != "request" && s.Name != "server" {
			op := ops[s.Req]
			per[op][s.Name] = append(per[op][s.Name], self[i])
		}
	}
	for i, op := range ops {
		srv[op] = append(srv[op], serverSelf[i])
	}
	for op := opKind(0); op < numOps; op++ {
		if len(srv[op]) == 0 {
			continue
		}
		line := fmt.Sprintf("# trace %-14s n=%-5d server.self=%.3fms", op, len(srv[op]), srv[op].pct(50))
		for _, name := range layerOrder {
			if s := per[op][name]; len(s) > 0 {
				line += fmt.Sprintf(" | %s=%.3fms", name, s.pct(50))
			}
		}
		fmt.Println(line)
	}
	fmt.Printf("# trace overhead %.2f%% (traced replays vs bare replays of the same calls)\n", overhead)
}

// layerMetrics computes the per-layer metrics. A layer the workload does
// not reach reports 0: that is the isolation the workloads predict.
func layerMetrics(spans []span, nsrc []int, p *replayer, serverSelf sample, hits, cached int, overhead float64) map[string]metric {
	durs := map[string]sample{}
	var rwrPerSource sample
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], s.dur())
		if s.Name == "extract.rwr" && nsrc[s.Req] > 0 {
			rwrPerSource = append(rwrPerSource, s.dur()/float64(nsrc[s.Req]))
		}
	}
	med := func(name string) float64 { return durs[name].pct(50) }
	field := func(ds []poolDelta, f func(poolDelta) float64) float64 {
		xs := make([]float64, len(ds))
		for i, d := range ds {
			xs[i] = f(d)
		}
		return sample(xs).pct(50)
	}
	var pins, hitsPool, retries uint64
	for _, d := range append(append([]poolDelta(nil), p.extracts...), p.analyzes...) {
		pins, hitsPool, retries = pins+d.pins, hitsPool+d.hits, retries+d.retries
	}
	m := map[string]metric{
		"server.self_ms_p50":            {serverSelf.pct(50), "ms"},
		"server.cache_hit_ratio":        {ratio(hits, cached), "ratio"},
		"core.extract_ms_p50":           {med("core.extract"), "ms"},
		"core.analyze_ms_p50":           {med("core.analyze"), "ms"},
		"extract.rwr_ms_p50":            {med("extract.rwr"), "ms"},
		"extract.expand_ms_p50":         {med("extract.expand"), "ms"},
		"extract.induce_ms_p50":         {med("extract.induce"), "ms"},
		"extract.rwr_ms_per_source":     {rwrPerSource.pct(50), "ms"},
		"analysis.report_ms":            {med("analysis.report"), "ms"},
		"analysis.pagerank_ms":          {med("analysis.pagerank"), "ms"},
		"analysis.leaf_report_ms_p50":   {med("analysis.leaf_report"), "ms"},
		"gtree.tomahawk_ms_p50":         {med("gtree.tomahawk"), "ms"},
		"gtree.leaf_load_ms_p50":        {med("gtree.leaf_load"), "ms"},
		"gtree.label_ms_p50":            {med("gtree.label"), "ms"},
		"gtree.build_s":                 {med("gtree.build") / 1000, "s"},
		"gtree.save_s":                  {med("gtree.save") / 1000, "s"},
		"gtree.open_ms":                 {med("gtree.open"), "ms"},
		"layout.scene_ms_p50":           {med("layout.scene"), "ms"},
		"render.svg_ms_p50":             {med("render.svg"), "ms"},
		"storage.pins_per_extract":      {field(p.extracts, func(d poolDelta) float64 { return float64(d.pins) }), "count"},
		"storage.misses_per_extract":    {field(p.extracts, func(d poolDelta) float64 { return float64(d.misses) }), "count"},
		"storage.evictions_per_extract": {field(p.extracts, func(d poolDelta) float64 { return float64(d.evictions) }), "count"},
		"storage.hit_ratio":             {ratio(int(hitsPool), int(pins)), "ratio"},
		"storage.pins_per_analyze":      {field(p.analyzes, func(d poolDelta) float64 { return float64(d.pins) }), "count"},
		"storage.read_retries":          {float64(retries), "count"},
		"storage.alloc_kb_per_extract":  {field(p.extracts, func(d poolDelta) float64 { return d.allocKB }), "KiB"},
		"graph.csr_build_ms":            {med("graph.csr_build"), "ms"},
		"dblp.generate_s":               {med("dblp.generate") / 1000, "s"},
		"trace.overhead_pct":            {overhead, "%"},
	}
	return m
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// writeSpans dumps the run's spans as JSON next to the build outputs.
func writeSpans(cfg config, env envStamp, spans []span) error {
	path := filepath.Join(cfg.outdir, "traces", fmt.Sprintf("%s-seed%d-%s.json", cfg.workload, cfg.seed, time.Now().Format("20060102T150405")))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Env   envStamp `json:"env"`
		Spans []span   `json:"spans"`
	}{env, spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Printf("# spans %d written to %s\n", len(spans), path)
	return nil
}
