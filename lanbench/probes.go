package main

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/lansearch/lan"
	"github.com/lansearch/lan/ged"
	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/lanserve"
)

// call is one timed call into a layer, as offsets from the probe's epoch.
type call struct {
	start, end time.Duration
	// g and h are a GED call's arguments (database graph, query).
	g, h *graph.Graph
}

func (c call) dur() time.Duration { return c.end - c.start }

// metricProbe wraps a ged.Metric, the seam lan.Options.BuildMetric and
// QueryMetric expose, and records every call while switched on. Off, it
// only forwards.
type metricProbe struct {
	m     ged.Metric
	epoch time.Time
	on    atomic.Bool
	mu    sync.Mutex
	calls []call
}

func newMetricProbe(m ged.Metric, epoch time.Time) *metricProbe {
	return &metricProbe{m: m, epoch: epoch}
}

// Distance implements ged.Metric.
func (p *metricProbe) Distance(g, h *graph.Graph) float64 {
	if !p.on.Load() {
		return p.m.Distance(g, h)
	}
	start := time.Now()
	d := p.m.Distance(g, h)
	end := time.Now()
	p.mu.Lock()
	p.calls = append(p.calls, call{start: start.Sub(p.epoch), end: end.Sub(p.epoch), g: g, h: h})
	p.mu.Unlock()
	return d
}

// take returns and clears the recorded calls.
func (p *metricProbe) take() []call {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := p.calls
	p.calls = nil
	return out
}

// busy sums call durations.
func busy(calls []call) time.Duration {
	var d time.Duration
	for _, c := range calls {
		d += c.dur()
	}
	return d
}

// covered is the wall time within [from, to) covered by at least one call
// (calls from parallel workers overlap; the union counts once).
func covered(calls []call, from, to time.Duration) time.Duration {
	iv := make([]call, 0, len(calls))
	for _, c := range calls {
		s, e := max(c.start, from), min(c.end, to)
		if e > s {
			iv = append(iv, call{start: s, end: e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].start < iv[j].start })
	var total, curS, curE time.Duration
	open := false
	for _, c := range iv {
		if open && c.start <= curE {
			curE = max(curE, c.end)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = c.start, c.end, true
	}
	if open {
		total += curE - curS
	}
	return total
}

// epochIndex is a lanserve.Searcher that also exposes the index epoch, so
// the server's result cache keys on it exactly as it would on the index.
type epochIndex interface {
	lanserve.Searcher
	Epoch() uint64
}

// searchRecord is one timed call into lanserve.Searcher.SearchContext.
type searchRecord struct {
	tag        int // the query graph's ID, set per request by the client
	entry, end time.Time
	stats      lan.Stats
	spans      []*lan.TraceSpan
	err        error
}

// searcherProbe wraps the served index (Config.Index) and records every
// search the server executes, attaching a lan.Trace to collect spans.
type searcherProbe struct {
	epochIndex
	mu      sync.Mutex
	records []searchRecord
}

// SearchContext implements lanserve.Searcher.
func (p *searcherProbe) SearchContext(ctx context.Context, q *graph.Graph, so lan.SearchOptions) ([]lan.Result, lan.Stats, error) {
	t := lan.NewTrace("bench")
	entry := time.Now()
	res, st, err := p.epochIndex.SearchContext(lan.WithTrace(ctx, t), q, so)
	rec := searchRecord{tag: q.ID, entry: entry, end: time.Now(), stats: st, spans: t.Spans, err: err}
	p.mu.Lock()
	p.records = append(p.records, rec)
	p.mu.Unlock()
	return res, st, err
}

// withEpoch re-attaches the index epoch to a searcher a test hook wrapped.
type withEpoch struct {
	lanserve.Searcher
	epoch func() uint64
}

func (w withEpoch) Epoch() uint64 { return w.epoch() }

// mutableProbe wraps lanserve.Mutable (Config.Writer) and times the
// writes applied inside the server.
type mutableProbe struct {
	idx     *lan.Index
	mu      sync.Mutex
	inserts []time.Duration
	deletes []time.Duration
}

// Insert implements lanserve.Mutable.
func (p *mutableProbe) Insert(g *graph.Graph) (int, error) {
	start := time.Now()
	id, err := p.idx.Insert(g)
	d := time.Since(start)
	p.mu.Lock()
	p.inserts = append(p.inserts, d)
	p.mu.Unlock()
	return id, err
}

// Delete implements lanserve.Mutable.
func (p *mutableProbe) Delete(id int) error {
	start := time.Now()
	err := p.idx.Delete(id)
	d := time.Since(start)
	p.mu.Lock()
	p.deletes = append(p.deletes, d)
	p.mu.Unlock()
	return err
}

// quantile is the q-quantile of xs by linear interpolation (NaN when xs
// is empty). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// Replay settings: the GED legs are replayed with the bench protocol's
// ensemble parameters on every workload, so leg costs compare across
// workloads.
const (
	replayPairs  = 40
	replayBudget = 150
	replayBeam   = 4
)

// replayLegs re-runs a seeded sample of the (database graph, query) pairs
// the traced search evaluated through each public GED leg, timing each
// leg separately.
func replayLegs(calls []call, seed int64, rep *report) {
	rng := rand.New(rand.NewSource(seed ^ 0x1e95))
	idx := rng.Perm(len(calls))
	if len(idx) > replayPairs {
		idx = idx[:replayPairs]
	}
	var astar, vj, hung, beam, lb []float64
	finished, certified := 0, 0
	timeIt := func(f func() float64) (float64, float64) {
		start := time.Now()
		v := f()
		return v, us(time.Since(start))
	}
	for _, i := range idx {
		g, h := calls[i].g, calls[i].h
		var ok bool
		_, t := timeIt(func() (d float64) { d, ok = ged.Exact(g, h, replayBudget); return d })
		astar = append(astar, t)
		if ok {
			finished++
		}
		dv, t := timeIt(func() float64 { return ged.VJ(g, h) })
		vj = append(vj, t)
		dh, t := timeIt(func() float64 { return ged.Hungarian(g, h) })
		hung = append(hung, t)
		db, t := timeIt(func() float64 { return ged.Beam(g, h, replayBeam) })
		beam = append(beam, t)
		dl, t := timeIt(func() float64 { return ged.LowerBound(g, h) })
		lb = append(lb, t)
		if dl >= min(dv, dh, db) {
			certified++
		}
	}
	n := float64(len(idx))
	rep.set("ged.leg.astar_us", "us", quantile(astar, 0.5))
	rep.set("ged.leg.vj_us", "us", quantile(vj, 0.5))
	rep.set("ged.leg.hungarian_us", "us", quantile(hung, 0.5))
	rep.set("ged.leg.beam_us", "us", quantile(beam, 0.5))
	rep.set("ged.leg.lower_bound_us", "us", quantile(lb, 0.5))
	rep.set("ged.astar_finish_share", "ratio", float64(finished)/n)
	rep.set("ged.certified_share", "ratio", float64(certified)/n)
}
