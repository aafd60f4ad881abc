package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/lansearch/lan"
	"github.com/lansearch/lan/ged"
	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/lanserve"
)

// liveServer is an in-process lanserve.Server on a loopback listener.
type liveServer struct {
	http *http.Server
	url  string
	done chan struct{} // closed when Serve has returned
}

func startServer(cfg lanserve.Config) (*liveServer, error) {
	s, err := lanserve.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ls := &liveServer{http: &http.Server{Handler: s}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(ls.done)
		_ = ls.http.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return ls, nil
}

// stop shuts the server down and waits for its Serve loop to exit.
func (l *liveServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = l.http.Shutdown(ctx) // in-flight requests have all completed by now
	<-l.done
}

// Operation kinds of the serve-churn mix.
const (
	opSearch = iota
	opInsert
	opDelete
)

// op is one scheduled request and, once run, its outcome.
type op struct {
	seq  int
	kind int
	rung int
	due  time.Time
	// search: the pool query; insert: the graph; delete: the target id,
	// chosen when the op is dispatched (from the pinned write stream).
	query int
	graph *graph.Graph
	id    int

	sent, done time.Time
	status     int
	resp       lanserve.SearchResponse
}

// tag is the negative graph id a search carries to identify its request
// (-1 stays the id of untagged queries).
func (o *op) tag() int { return -2 - o.seq }

// client drives the server over HTTP and tracks which ids are live.
type client struct {
	url  string
	http *http.Client
	pool []*graph.Graph

	mu sync.Mutex
	// graphs holds every id's graph: the database, then acknowledged
	// inserts.
	graphs map[int]*graph.Graph
	// live ids a delete may still target, originals and inserts apart.
	liveOrig, liveIns []int
	deleteAck         map[int]time.Time
}

func (c *client) post(path string, body any, out any) (int, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := c.http.Post(c.url+path, "application/json", bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

// search sends one /search; the query carries tag as its graph id, which
// the server passes through to the Searcher so traced runs can match the
// request to the search it caused.
func (c *client) search(qi, tag int, beam int, noCache bool, out *lanserve.SearchResponse) (int, error) {
	q := *c.pool[qi]
	q.ID = tag
	return c.post("/search", lanserve.SearchRequest{Query: &q, K: k, Beam: beam, NoCache: noCache}, out)
}

func (c *client) do(o *op, beam int) {
	o.sent = time.Now()
	var err error
	switch o.kind {
	case opSearch:
		o.status, err = c.search(o.query, o.tag(), beam, false, &o.resp)
	case opInsert:
		var ack lanserve.InsertResponse
		o.status, err = c.post("/insert", lanserve.InsertRequest{Graph: o.graph}, &ack)
		if err == nil && o.status == http.StatusOK {
			c.mu.Lock()
			c.graphs[ack.ID] = o.graph
			c.liveIns = append(c.liveIns, ack.ID)
			c.mu.Unlock()
		}
	case opDelete:
		o.status, err = c.post("/delete", lanserve.DeleteRequest{ID: o.id}, nil)
		if err == nil && o.status == http.StatusOK {
			at := time.Now()
			c.mu.Lock()
			c.deleteAck[o.id] = at
			c.mu.Unlock()
		}
	}
	o.done = time.Now()
	if err != nil && o.status == 0 {
		o.status = -1
	}
}

// pickDelete removes and returns a seeded live id: an insert of this run
// one time in three when there is one, else an original member.
func (c *client) pickDelete(rng *rand.Rand) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	take := func(ids *[]int) int {
		i := rng.Intn(len(*ids))
		id := (*ids)[i]
		(*ids)[i] = (*ids)[len(*ids)-1]
		*ids = (*ids)[:len(*ids)-1]
		return id
	}
	if len(c.liveIns) > 0 && rng.Intn(3) == 0 {
		return take(&c.liveIns)
	}
	return take(&c.liveOrig)
}

// nominalCapacity (searches per second) sizes the ladder: each rung sends
// rungShare x seconds x rung x nominalCapacity ops, so every run sends
// the same number of writes, evenly spaced at the rung's fraction of the
// capacity measured in this run. The ladder lasts --seconds when the
// measured capacity is nominal (that of a 2-core Xeon VM).
const nominalCapacity = 30

// schedule lays out the ladder; the mix is ~70% searches
// (Zipf-skewed over the pool, so the cache and single-flight see
// repeats), ~20% inserts of perturbed members and ~10% deletes. The
// seed picks the searches; the write stream (which ops are writes, what
// they insert, which ids they delete) is drawn from the pinned seed, so
// the final live set, and with it recall, does not move with the seed.
func (w workload) schedule(in *inputs, rates []float64, seconds float64, start time.Time, rng, writes *rand.Rand) []*op {
	zipf := rand.NewZipf(rng, 1.1, 2, uint64(len(in.queries)-1))
	labels := w.spec.Labels()
	var out []*op
	at := start
	for r, rate := range rates {
		n := int(math.Round(w.rungShare[r] * seconds * w.rungs[r] * nominalCapacity))
		for j := 0; j < n; j++ {
			o := &op{seq: len(out), rung: r, due: at.Add(time.Duration(float64(j) / rate * float64(time.Second)))}
			switch u := writes.Float64(); {
			case u < 0.7:
				o.kind, o.query = opSearch, int(zipf.Uint64())
			case u < 0.9:
				base := in.db[writes.Intn(len(in.db))]
				gen := graph.NewGenerator(writes.Int63())
				o.kind, o.graph = opInsert, gen.Mutate(base, 1+writes.Intn(2), labels)
			default:
				o.kind = opDelete
			}
			out = append(out, o)
		}
		at = at.Add(time.Duration(float64(n) / rate * float64(time.Second)))
	}
	return out
}

// runServe runs serve-churn: the SYN index on the RAM tier behind an
// in-process lanserve.Server (Config.Index and Config.Writer both the
// index), an open-loop ladder of fixed rates set from measured capacity,
// then Quiesce and recall over the final live set.
func (w workload) runServe(c runConfig, in *inputs, rep *report) error {
	epoch := time.Now()
	bm := newMetricProbe(w.newBuild(), epoch)
	qm := newMetricProbe(w.newQuery(), epoch)
	if c.trace {
		bm.on.Store(true)
		qm.on.Store(true)
	}
	conns := runtime.NumCPU()
	var sp *searcherProbe
	var mp *mutableProbe
	start := func(b *built) error {
		var ix epochIndex = withEpoch{c.searcher(b.idx), b.idx.Epoch}
		var wr lanserve.Mutable = b.idx
		if c.trace {
			sp = &searcherProbe{epochIndex: ix}
			mp = &mutableProbe{idx: b.idx}
			ix, wr = sp, mp
		}
		ls, err := startServer(lanserve.Config{Index: ix, Writer: wr, Workers: conns})
		if err != nil {
			return err
		}
		b.server = ls
		return nil
	}
	b, err := w.setupRepeated(c, in, bm, qm, start, nil, rep)
	if err != nil {
		return err
	}
	defer b.close()
	so := lan.SearchOptions{K: k, Beam: w.beam}
	rng := rand.New(rand.NewSource(c.seed))

	if c.trace {
		setupLayers(b, bm.take(), qm.take(), rep)
		bm.on.Store(false)
		qm.on.Store(false)
		// Trace overhead on the served index, before any write.
		_, _, overhead := pairedPasses(b.idx, in.queries, rng.Perm(w.recallPool), so, qm)
		rep.set("trace.overhead_share", "ratio", overhead)
		// From here the probe records every search the server runs.
		qm.on.Store(true)
	}

	cl := &client{
		url:       b.server.url,
		http:      &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns}, Timeout: time.Minute},
		pool:      in.queries,
		graphs:    map[int]*graph.Graph{},
		deleteAck: map[int]time.Time{},
	}
	defer cl.http.CloseIdleConnections()
	for id, g := range in.db {
		cl.graphs[id] = g
		cl.liveOrig = append(cl.liveOrig, id)
	}

	capacity, err := w.capacity(cl, conns)
	if err != nil {
		return err
	}
	if sp != nil {
		sp.mu.Lock()
		sp.records = nil
		sp.mu.Unlock()
		qm.take()
	}
	rates := make([]float64, len(w.rungs))
	for i, f := range w.rungs {
		rates[i] = f * capacity
	}
	epochBefore := b.idx.Epoch()
	ladderStart := time.Now().Add(50 * time.Millisecond)
	writes := rand.New(rand.NewSource(pinSeed))
	ops := w.schedule(in, rates, c.seconds, ladderStart, rng, writes)
	late := w.drive(cl, ops, conns, writes)
	var searchCalls []call
	if c.trace {
		searchCalls = qm.take()
		qm.on.Store(false)
	}
	q0 := time.Now()
	b.idx.Quiesce()
	quiesce := time.Since(q0)

	// Checks: every answer against the metric, no acknowledged delete in
	// a later answer, ids in range.
	metric := w.newQuery()
	idRange := len(b.idx.Database())
	graphOf := func(id int) *graph.Graph { return cl.graphs[id] }
	var acked, refused, timedOut, failed int
	byRung := make([][]*op, len(rates))
	for _, o := range ops {
		byRung[o.rung] = append(byRung[o.rung], o)
		switch {
		case o.status == http.StatusOK:
			if o.kind != opSearch {
				acked++
				continue
			}
			for _, r := range o.resp.Results {
				if at, ok := cl.deleteAck[r.ID]; ok && at.Before(o.sent) {
					rep.fail("%s: a search sent %v after the delete of id %d was acknowledged returned it", w.name, o.sent.Sub(at), r.ID)
				}
			}
			w.checkResult(o.query, in.queries[o.query], o.resp.Results, idRange, graphOf, truthRow{}, metric, rep)
		case o.status == http.StatusTooManyRequests:
			refused++
			failed++
		case o.status == http.StatusGatewayTimeout:
			timedOut++
			failed++
		default:
			failed++
			rep.fail("%s: operation %d answered status %d", w.name, o.kind, o.status)
		}
	}
	rep.attempted += len(ops)
	rep.failed += failed

	// Rungs: the highest rate whose search p99 (failures count as misses)
	// meets the limit, with <1% failed and no growing backlog.
	slo := time.Duration(w.sloMillis * float64(time.Millisecond))
	sloRate := 0.0
	for r, rate := range rates {
		if len(byRung[r]) == 0 {
			continue
		}
		var lat []float64
		bad, lastDone := 0, time.Time{}
		for _, o := range byRung[r] {
			if o.status != http.StatusOK {
				bad++
			}
			if o.done.After(lastDone) {
				lastDone = o.done
			}
			if o.kind == opSearch {
				l := ms(o.done.Sub(o.due))
				if o.status != http.StatusOK {
					l = math.Inf(1)
				}
				lat = append(lat, l)
			}
		}
		rungEnd := byRung[r][len(byRung[r])-1].due
		ok := quantile(lat, 0.99) <= ms(slo) && float64(bad) < 0.01*float64(len(byRung[r])) && !lastDone.After(rungEnd.Add(slo))
		fmt.Fprintf(rep.log, "lanbench: rung %d: %.1f ops/s, %d ops, search p99 %.1f ms, %d failed, meets limit: %v\n", r, rate, len(byRung[r]), quantile(lat, 0.99), bad, ok)
		if ok {
			sloRate = rate
		}
	}

	// Recall over the final live set.
	recall := w.liveRecall(b.idx, cl, in, so, metric, rep)

	mid := len(rates) / 2
	var searchLat, insertLat []float64
	var cached, shared, okSearches float64
	for _, o := range ops {
		switch {
		case o.kind == opSearch && o.rung == mid:
			searchLat = append(searchLat, ms(o.done.Sub(o.due)))
		case o.kind == opInsert && o.status == http.StatusOK:
			insertLat = append(insertLat, ms(o.done.Sub(o.due)))
		}
		if o.kind == opSearch && o.status == http.StatusOK {
			okSearches++
			if o.resp.Cached {
				cached++
			}
			if o.resp.Shared {
				shared++
			}
		}
	}
	if !c.trace {
		rep.set("search_p50_ms", "ms", quantile(searchLat, 0.5))
		rep.set("search_p90_ms", "ms", quantile(searchLat, 0.9))
		rep.set("ops_per_s", "1/s", sloRate)
		rep.set("recall_at_10", "ratio", recall)
		rep.set("rss_mb", "MB", residentMB())
		return nil
	}

	rep.set("latency.search_p99_ms", "ms", quantile(searchLat, 0.99))
	rep.set("serve.insert_p50_ms", "ms", quantile(insertLat, 0.5))
	rep.set("serve.insert_p90_ms", "ms", quantile(insertLat, 0.9))
	rep.set("serve.cache_hit_ratio", "ratio", cached/okSearches)
	rep.set("serve.shared_ratio", "ratio", shared/okSearches)
	rep.set("serve.refused", "count", float64(refused))
	rep.set("serve.timed_out", "count", float64(timedOut))
	rep.set("ops.failed_share", "ratio", float64(failed)/float64(len(ops)))
	rep.set("gen.late_ms_p99", "ms", quantile(late, 0.99))
	w.serveLayers(ops, sp, searchCalls, rep)
	mp.mu.Lock()
	var ins []float64
	for _, d := range mp.inserts {
		ins = append(ins, ms(d))
	}
	var del []float64
	for _, d := range mp.deletes {
		del = append(del, us(d))
	}
	mp.mu.Unlock()
	rep.set("mutable.insert_inside_ms_p50", "ms", quantile(ins, 0.5))
	rep.set("mutable.insert_inside_ms_p90", "ms", quantile(ins, 0.9))
	rep.set("mutable.delete_inside_us", "us", quantile(del, 0.5))
	rep.set("mutable.optimizer_epochs", "count", float64(b.idx.Epoch()-epochBefore)-float64(acked))
	rep.set("mutable.quiesce_s", "s", quiesce.Seconds())
	rep.set("mutable.live_graphs", "count", float64(b.idx.Len()))
	replayLegs(searchCalls, c.seed, rep)
	fillLayers(rep)
	return nil
}

// capacity measures searches per second from conns closed-loop clients
// through the server, bypassing the result cache: after a short warm-up
// they share the first calibrationQueries pool queries round-robin. The
// set is the same every run, so only the machine moves the figure.
func (w workload) capacity(cl *client, conns int) (float64, error) {
	const calibrationQueries = 64
	n := min(calibrationQueries, len(cl.pool))
	for i := 0; i < min(8, n); i++ {
		var out lanserve.SearchResponse
		if _, err := cl.search(i, -1, w.beam, true, &out); err != nil {
			return 0, err
		}
	}
	errs := make([]error, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for qi := c; qi < n; qi += conns {
				var out lanserve.SearchResponse
				status, err := cl.search(qi, -1, w.beam, true, &out)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("lanbench: calibration search answered status %d", status)
				}
				if err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return float64(n) / time.Since(start).Seconds(), nil
}

// drive runs the schedule open-loop: one generator hands each op, at its
// due time, to the first free of conns senders. It returns how late each
// handoff was, in milliseconds.
func (w workload) drive(cl *client, ops []*op, conns int, rng *rand.Rand) []float64 {
	work := make(chan *op)
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for o := range work {
				cl.do(o, w.beam)
			}
		}()
	}
	late := make([]float64, 0, len(ops))
	for _, o := range ops {
		if d := time.Until(o.due); d > 0 {
			time.Sleep(d)
		}
		if o.kind == opDelete {
			o.id = cl.pickDelete(rng)
		}
		work <- o
		late = append(late, ms(time.Since(o.due)))
	}
	close(work)
	wg.Wait()
	return late
}

// liveRecall brute-forces the top-k of the first recallPool pool queries
// over the final live set, searches the index for them directly and
// returns the mean recall@k, checking each answer on the way.
func (w workload) liveRecall(idx *lan.Index, cl *client, in *inputs, so lan.SearchOptions, metric ged.Metric, rep *report) float64 {
	live := append(append([]int(nil), cl.liveOrig...), cl.liveIns...)
	sort.Ints(live)
	idRange := len(idx.Database())
	graphOf := func(id int) *graph.Graph { return cl.graphs[id] }
	total := 0.0
	for qi := 0; qi < w.recallPool; qi++ {
		q := in.queries[qi]
		all := make([]lan.Result, len(live))
		for i, id := range live {
			all[i] = lan.Result{ID: id, Dist: metric.Distance(cl.graphs[id], q)}
		}
		sort.Slice(all, func(i, j int) bool { return before(all[i], all[j]) })
		var t truthRow
		for _, r := range all[:k] {
			t.IDs = append(t.IDs, r.ID)
			t.Dists = append(t.Dists, r.Dist)
		}
		res, _, err := idx.Search(q, so)
		rep.attempted++
		if err != nil {
			rep.failed++
			rep.fail("%s: recall query %d: %v", w.name, qi, err)
			continue
		}
		w.checkResult(qi, q, res, idRange, graphOf, t, metric, rep)
		total += recallOf(res, t)
	}
	return total / float64(w.recallPool)
}

// serveLayers reports the serving path's split for searches the server
// executed: due time to Searcher entry (transport, decode, admission
// wait), inside the search, and return to response receipt.
func (w workload) serveLayers(ops []*op, sp *searcherProbe, calls []call, rep *report) {
	sp.mu.Lock()
	records := sp.records
	sp.mu.Unlock()
	byTag := map[int]searchRecord{}
	var ex []execution
	for _, r := range records {
		byTag[r.tag] = r
		ex = append(ex, execution{lat: r.end.Sub(r.entry), stats: r.stats, spans: r.spans, err: r.err})
	}
	var pre, inside, post []float64
	for _, o := range ops {
		if o.kind != opSearch || o.status != http.StatusOK || o.resp.Cached || o.resp.Shared {
			continue
		}
		r, ok := byTag[o.tag()]
		if !ok {
			continue
		}
		pre = append(pre, ms(r.entry.Sub(o.due)))
		inside = append(inside, ms(r.end.Sub(r.entry)))
		post = append(post, ms(o.done.Sub(r.end)))
	}
	rep.set("serve.pre_search_ms_p50", "ms", quantile(pre, 0.5))
	rep.set("serve.pre_search_ms_p99", "ms", quantile(pre, 0.99))
	rep.set("serve.inside_search_ms_p50", "ms", quantile(inside, 0.5))
	rep.set("serve.inside_search_ms_p99", "ms", quantile(inside, 0.99))
	rep.set("serve.post_search_ms", "ms", quantile(post, 0.5))
	if len(ex) > 0 {
		searchLayers(ex, calls, rep)
	}
}
