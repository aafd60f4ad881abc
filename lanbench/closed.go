package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"github.com/lansearch/lan"
	"github.com/lansearch/lan/ged"
	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/dataset"
	"github.com/lansearch/lan/internal/pg"
	"github.com/lansearch/lan/lanserve"
)

// built is one set-up index and what its set-up cost.
type built struct {
	// idx is the index searches go to: the built one, or for syn-mmap the
	// snapshot reopened on the mmap tier.
	idx *lan.Index
	// setup is the whole set-up: data generation, lan.Build and the
	// snapshot round trip or server start.
	setup time.Duration
	// buildFrom/buildTo bound the lan.Build call, as probe offsets.
	buildFrom, buildTo time.Duration
	save, open         time.Duration
	snapshotBytes      int64
	server             *liveServer
}

func (b *built) close() {
	if b.server != nil {
		b.server.stop()
	}
	_ = b.idx.Close() // a built or mmap index: Close only stops the optimizer or unmaps
}

// setup generates the database and builds the index with the given
// metric probes, then does the workload's snapshot round trip. Serving
// workloads start their server in runServe's set-up wrapper.
func (w workload) setup(c runConfig, in *inputs, bm, qm *metricProbe, rep int) (*built, error) {
	start := time.Now()
	db := w.spec.Generate()
	train, err := dataset.FixedWorkload(db, w.spec, in.trainSpecs)
	if err != nil {
		return nil, err
	}
	opts := w.opts
	opts.BuildMetric, opts.QueryMetric = bm, qm
	b := &built{buildFrom: time.Since(bm.epoch)}
	idx, err := lan.Build(db, train, opts)
	if err != nil {
		return nil, fmt.Errorf("lanbench: build: %w", err)
	}
	b.buildTo = time.Since(bm.epoch)
	b.idx = idx
	if w.mmap {
		path := filepath.Join(c.workdir, fmt.Sprintf("%s-%d.lansnap", w.name, rep))
		s := time.Now()
		if err := idx.SaveSnapshot(path, lan.SnapshotOptions{Precision: "f64"}); err != nil {
			return nil, err
		}
		b.save = time.Since(s)
		_ = idx.Close() // never written to: nothing to stop
		s = time.Now()
		opts.Store = lan.StoreMMap
		mm, err := lan.OpenSnapshot(path, opts)
		if err != nil {
			return nil, err
		}
		b.open = time.Since(s)
		b.idx = mm
		if fi, err := os.Stat(path); err == nil {
			b.snapshotBytes = fi.Size()
		}
		// The mapping stays valid after the name is gone.
		if err := os.Remove(path); err != nil {
			return nil, err
		}
	}
	b.setup = time.Since(start)
	return b, nil
}

// setupRepeated sets the index up setupReps times (once when tracing),
// calls round with each fresh index while it is live, keeps the last,
// and reports the median set-up time as setup_s. start, when set, is
// part of the set-up (a server start).
func (w workload) setupRepeated(c runConfig, in *inputs, bm, qm *metricProbe, start func(*built) error, round func(int, *built), rep *report) (*built, error) {
	reps := setupReps
	if c.trace {
		reps = 1
	}
	var last *built
	var times []float64
	for i := 0; i < reps; i++ {
		if last != nil {
			last.close()
			last = nil
		}
		runtime.GC()
		debug.FreeOSMemory()
		b, err := w.setup(c, in, bm, qm, i)
		if err != nil {
			return nil, err
		}
		if start != nil {
			s := time.Now()
			if err := start(b); err != nil {
				b.close()
				return nil, err
			}
			b.setup += time.Since(s)
		}
		times = append(times, b.setup.Seconds())
		last = b
		if round != nil {
			round(i, b)
		}
	}
	if !c.trace {
		rep.set("setup_s", "s", quantile(times, 0.5))
	}
	return last, nil
}

// setupLayers reports the set-up's per-layer split from the metric probes'
// calls during lan.Build.
func setupLayers(b *built, buildCalls, queryCalls []call, rep *report) {
	inBuild := func(calls []call) []call {
		var out []call
		for _, c := range calls {
			if c.start >= b.buildFrom && c.end <= b.buildTo {
				out = append(out, c)
			}
		}
		return out
	}
	pgCalls, tableCalls := inBuild(buildCalls), inBuild(queryCalls)
	wall := b.buildTo - b.buildFrom
	rep.set("setup.build_s", "s", wall.Seconds())
	rep.set("setup.pg_metric_calls", "count", float64(len(pgCalls)))
	rep.set("setup.pg_metric_busy_s", "s", busy(pgCalls).Seconds())
	rep.set("setup.table_metric_calls", "count", float64(len(tableCalls)))
	rep.set("setup.table_metric_busy_s", "s", busy(tableCalls).Seconds())
	rep.set("setup.self_s", "s", (wall - covered(append(pgCalls, tableCalls...), b.buildFrom, b.buildTo)).Seconds())
	rep.set("setup.snapshot_save_s", "s", b.save.Seconds())
	rep.set("setup.snapshot_open_s", "s", b.open.Seconds())
	rep.set("setup.snapshot_bytes", "bytes", float64(b.snapshotBytes))
}

// execution is one measured search.
type execution struct {
	query int
	lat   time.Duration
	res   []lan.Result
	stats lan.Stats
	err   error
	// Traced passes only: the query's spans and GED calls.
	spans []*lan.TraceSpan
	calls []call
}

// pass runs the given pool queries once each, in order, from one
// closed-loop client. With qm set it traces each search (see search).
func pass(s lanserve.Searcher, queries []*graph.Graph, order []int, so lan.SearchOptions, qm *metricProbe) []execution {
	out := make([]execution, 0, len(order))
	for _, i := range order {
		out = append(out, search(s, queries, i, so, qm))
	}
	return out
}

// search runs pool query i once. With qm set it attaches a lan.Trace and
// switches the QueryMetric probe on for just this search, collecting its
// spans and GED calls.
func search(s lanserve.Searcher, queries []*graph.Graph, i int, so lan.SearchOptions, qm *metricProbe) execution {
	ctx := context.Background()
	var t *lan.Trace
	if qm != nil {
		t = lan.NewTrace(fmt.Sprint(i))
		ctx = lan.WithTrace(ctx, t)
		qm.on.Store(true)
		defer qm.on.Store(false)
	}
	start := time.Now()
	res, st, err := s.SearchContext(ctx, queries[i], so)
	e := execution{query: i, lat: time.Since(start), res: res, stats: st, err: err}
	if qm != nil {
		e.spans = t.Spans
		e.calls = qm.take()
	}
	return e
}

// pairedPasses runs every query in order twice, untraced and traced,
// alternating which goes first, so warm-up and slow phases of the machine
// fall on both sides alike. It returns both passes and the traced
// pass's time over the untraced one's, minus 1.
func pairedPasses(s lanserve.Searcher, queries []*graph.Graph, order []int, so lan.SearchOptions, qm *metricProbe) (plain, traced []execution, overhead float64) {
	var plainWall, tracedWall time.Duration
	for j, i := range order {
		var p, t execution
		if j%2 == 0 {
			p = search(s, queries, i, so, nil)
			t = search(s, queries, i, so, qm)
		} else {
			t = search(s, queries, i, so, qm)
			p = search(s, queries, i, so, nil)
		}
		plain, traced = append(plain, p), append(traced, t)
		plainWall += p.lat
		tracedWall += t.lat
	}
	return plain, traced, tracedWall.Seconds()/plainWall.Seconds() - 1
}

// runClosed runs aids-exact or syn-mmap: one closed-loop client issuing
// the pinned queries in seeded order.
func (w workload) runClosed(c runConfig, in *inputs, rep *report) error {
	epoch := time.Now()
	bm := newMetricProbe(w.newBuild(), epoch)
	qm := newMetricProbe(w.newQuery(), epoch)
	if c.trace {
		bm.on.Store(true)
		qm.on.Store(true)
		b, err := w.setupRepeated(c, in, bm, qm, nil, nil, rep)
		if err != nil {
			return err
		}
		defer b.close()
		return w.traceClosed(c, in, b, bm, qm, rep)
	}

	// The measured searches are spread over the run: after each set-up,
	// one closed-loop client issues a third of the pool (in seeded order)
	// against that index, repeated as often as the first round's timing
	// says fits in a third of the seconds. Every set-up builds the same
	// index, and spreading the samples averages over slow phases of the
	// machine instead of landing in one.
	so := lan.SearchOptions{K: k, Beam: w.beam}
	rng := rand.New(rand.NewSource(c.seed))
	order := rng.Perm(len(in.queries))
	var (
		all      []execution
		measured time.Duration
		repeats  int
	)
	round := func(i int, b *built) {
		s := c.searcher(b.idx)
		chunk := order[i*len(order)/setupReps : (i+1)*len(order)/setupReps]
		// Warm up (caches, heap growth, mapped pages) on a slice of it.
		pass(s, in.queries, chunk[:max(1, len(chunk)/10)], so, nil)
		for r := 0; repeats == 0 || r < repeats; r++ {
			s0 := time.Now()
			all = append(all, pass(s, in.queries, chunk, so, nil)...)
			d := time.Since(s0)
			measured += d
			if repeats == 0 {
				repeats = max(1, int(c.seconds/setupReps/d.Seconds()))
			}
		}
	}
	b, err := w.setupRepeated(c, in, bm, qm, nil, round, rep)
	if err != nil {
		return err
	}
	defer b.close()
	rep.attempted += len(all)
	recall := w.checkAnswers(in, all, rep)
	var lat []float64
	for _, e := range all {
		lat = append(lat, ms(e.lat))
	}
	rep.set("search_p50_ms", "ms", quantile(lat, 0.5))
	rep.set("search_p90_ms", "ms", quantile(lat, 0.9))
	rep.set("ops_per_s", "1/s", float64(len(all))/measured.Seconds())
	rep.set("recall_at_10", "ratio", recall)
	rep.set("rss_mb", "MB", residentMB())
	return nil
}

// traceClosed is the traced run of a closed-loop workload: every pool
// query untraced (probes off) and traced (probes on, lan.WithTrace), in
// seeded order, after a warm-up.
func (w workload) traceClosed(c runConfig, in *inputs, b *built, bm, qm *metricProbe, rep *report) error {
	setupLayers(b, bm.take(), qm.take(), rep)
	bm.on.Store(false)
	qm.on.Store(false)
	s := c.searcher(b.idx)
	so := lan.SearchOptions{K: k, Beam: w.beam}
	rng := rand.New(rand.NewSource(c.seed))
	order := rng.Perm(len(in.queries))
	pass(s, in.queries, order[:max(1, len(order)/10)], so, nil)
	plain, traced, overhead := pairedPasses(s, in.queries, order, so, qm)
	for i := range plain {
		if !slices.Equal(plain[i].res, traced[i].res) {
			rep.fail("%s: query %d answers differ between the untraced and the traced pass", w.name, plain[i].query)
		}
	}
	rep.attempted += 2 * len(plain)
	failedBefore := rep.failed
	w.checkAnswers(in, plain, rep)
	rep.set("ops.failed_share", "ratio", float64(rep.failed-failedBefore)/float64(len(plain)))
	for _, e := range traced {
		if len(e.calls) != e.stats.NDC {
			rep.fail("%s: query %d: %d GED calls reached the query metric, lan.Stats.NDC says %d", w.name, e.query, len(e.calls), e.stats.NDC)
		}
	}
	rep.set("trace.overhead_share", "ratio", overhead)
	var lat []float64
	for _, e := range plain {
		lat = append(lat, ms(e.lat))
	}
	rep.set("latency.search_p99_ms", "ms", quantile(lat, 0.99))
	calls := allCalls(traced)
	searchLayers(traced, calls, rep)
	replayLegs(calls, c.seed, rep)
	fillLayers(rep)
	return nil
}

func allCalls(ex []execution) []call {
	var out []call
	for _, e := range ex {
		out = append(out, e.calls...)
	}
	return out
}

// checkAnswers verifies every execution's answer and returns the pool's
// mean recall@k: repeated executions of a query must agree exactly, and
// each answer must pass checkResult against the pinned ground truth.
func (w workload) checkAnswers(in *inputs, ex []execution, rep *report) float64 {
	first := make([][]lan.Result, len(in.queries))
	seen := make([]bool, len(in.queries))
	metric := w.newQuery()
	for _, e := range ex {
		if e.err != nil {
			rep.failed++
			rep.fail("%s: query %d: %v", w.name, e.query, e.err)
			continue
		}
		if seen[e.query] {
			if !slices.Equal(first[e.query], e.res) {
				rep.fail("%s: query %d answered differently on a repeat", w.name, e.query)
			}
			continue
		}
		seen[e.query] = true
		first[e.query] = e.res
		w.checkResult(e.query, in.queries[e.query], e.res, len(in.db), func(id int) *graph.Graph { return in.db[id] }, in.truth[e.query], metric, rep)
	}
	total := 0.0
	for i, res := range first {
		if !seen[i] {
			rep.fail("%s: query %d was never answered", w.name, i)
			continue
		}
		total += recallOf(res, in.truth[i])
	}
	return total / float64(len(first))
}

// checkResult verifies one answer list: k results (fewer only when fewer
// graphs are live), ids unique and in range, ordered by (dist, id), and
// every distance exactly the workload metric's value for its pair —
// looked up in the pinned truth when the id is there, recomputed
// otherwise.
func (w workload) checkResult(qi int, q *graph.Graph, res []lan.Result, idRange int, graphOf func(int) *graph.Graph, truth truthRow, metric ged.Metric, rep *report) {
	if len(res) != k {
		rep.fail("%s: query %d: %d results, want %d", w.name, qi, len(res), k)
	}
	known := map[int]float64{}
	for i, id := range truth.IDs {
		known[id] = truth.Dists[i]
	}
	ids := map[int]bool{}
	for j, r := range res {
		if r.ID < 0 || r.ID >= idRange {
			rep.fail("%s: query %d: id %d out of range [0,%d)", w.name, qi, r.ID, idRange)
			continue
		}
		if ids[r.ID] {
			rep.fail("%s: query %d: id %d returned twice", w.name, qi, r.ID)
		}
		ids[r.ID] = true
		if j > 0 && !before(res[j-1], r) {
			rep.fail("%s: query %d: results not ordered by (dist, id) at position %d", w.name, qi, j)
		}
		want, ok := known[r.ID]
		if !ok {
			g := graphOf(r.ID)
			if g == nil {
				rep.fail("%s: query %d: id %d belongs to no graph the benchmark inserted", w.name, qi, r.ID)
				continue
			}
			want = metric.Distance(g, q)
		}
		if r.Dist != want {
			rep.fail("%s: query %d: id %d has distance %v, the metric gives %v", w.name, qi, r.ID, r.Dist, want)
		}
	}
}

// before reports whether a sorts strictly before b by (dist, id).
func before(a, b lan.Result) bool {
	return a.Dist < b.Dist || (a.Dist == b.Dist && a.ID < b.ID)
}

// recallOf is the paper's recall@k against one truth row.
func recallOf(res []lan.Result, t truthRow) float64 {
	got := make([]pg.Result, len(res))
	for i, r := range res {
		got[i] = pg.Result{ID: r.ID, Dist: r.Dist}
	}
	want := make([]pg.Result, len(t.IDs))
	for i := range t.IDs {
		want[i] = pg.Result{ID: t.IDs[i], Dist: t.Dists[i]}
	}
	return dataset.Recall(got, want)
}

// searchLayers reports the search path's per-layer split: GED calls from
// the QueryMetric probe (calls, over the same searches), routing and
// model counters from lan.Stats, and embedding and store-fetch time from
// the spans. Each execution's lat is the time spent inside the search.
func searchLayers(ex []execution, calls []call, rep *report) {
	var (
		wall                                        time.Duration
		ndc, ndcInit, ndcRoute, explored, batches   float64
		gamma, ranker, isPred, ranked, opened, hits float64
		unverified, lanis                           float64
		embed, fetch                                time.Duration
		fetches, fetchIDs                           float64
	)
	for _, e := range ex {
		wall += e.lat
		st := e.stats
		ndc += float64(st.NDC)
		ndcInit += float64(st.InitNDC)
		ndcRoute += float64(st.RouteNDC)
		explored += float64(st.Explored)
		batches += float64(st.BatchesOpened)
		gamma += float64(st.GammaSteps)
		ranker += float64(st.RankerCalls)
		isPred += float64(st.ISPredictions)
		ranked += float64(st.RankedNeighbors)
		opened += float64(st.OpenedNeighbors)
		hits += float64(st.DistCacheHits)
		if st.ISPredictions > 0 {
			lanis++
			if st.InitNDC == 0 {
				unverified++
			}
		}
		walkSpans(e.spans, func(s *lan.TraceSpan) {
			d := time.Duration(s.US) * time.Microsecond
			switch s.Name {
			case "embed":
				embed += d
			case "store_fetch":
				fetch += d
				fetches++
				fetchIDs += float64(s.N)
			}
		})
	}
	if int(ndc) != len(calls) {
		rep.fail("%d GED calls reached the query metric, lan.Stats.NDC sums to %d", len(calls), int(ndc))
	}
	callUS := make([]float64, len(calls))
	for i, c := range calls {
		callUS[i] = us(c.dur())
	}
	gedBusy := busy(calls)
	n := float64(len(ex))
	rep.set("ged.calls_per_query", "count", float64(len(calls))/n)
	rep.set("ged.us_per_call_p50", "us", quantile(callUS, 0.5))
	rep.set("ged.us_per_call_p99", "us", quantile(callUS, 0.99))
	rep.set("ged.busy_share", "ratio", gedBusy.Seconds()/wall.Seconds())
	rep.set("search.self_ms", "ms", ms(wall-gedBusy)/n)
	rep.set("route.ndc", "count", ndc/n)
	rep.set("route.ndc_initial", "count", ndcInit/n)
	rep.set("route.ndc_routing", "count", ndcRoute/n)
	rep.set("route.explored", "count", explored/n)
	rep.set("route.batches_opened", "count", batches/n)
	rep.set("route.gamma_steps", "count", gamma/n)
	if ranked > 0 {
		rep.set("route.prune_rate", "ratio", 1-opened/ranked)
	}
	if hits+ndc > 0 {
		rep.set("route.dist_cache_hit_ratio", "ratio", hits/(hits+ndc))
	}
	rep.set("models.ranker_calls", "count", ranker/n)
	rep.set("models.is_predictions", "count", isPred/n)
	if lanis > 0 {
		rep.set("models.is_unverified_share", "ratio", unverified/lanis)
	}
	rep.set("models.embed_ms", "ms", ms(embed)/n)
	rep.set("store.fetch_ms", "ms", ms(fetch)/n)
	rep.set("store.fetch_batches", "count", fetches/n)
	if fetches > 0 {
		rep.set("store.ids_per_fetch", "count", fetchIDs/fetches)
	}
}

func walkSpans(spans []*lan.TraceSpan, f func(*lan.TraceSpan)) {
	for _, s := range spans {
		f(s)
		walkSpans(s.Children, f)
	}
}
