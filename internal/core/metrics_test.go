package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"github.com/lansearch/lan/ged"
	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/obs"
)

// queryCounters is one reading of the process-wide query families.
type queryCounters struct {
	queries, ndcInitial, ndcRouting, batches, rankerCalls, hits, misses uint64
	pruneObs, gammaObs                                                  uint64
}

func readQueryCounters() queryCounters {
	m := obs.Query()
	return queryCounters{
		queries: m.Queries.Value(), ndcInitial: m.NDCInitial.Value(), ndcRouting: m.NDCRouting.Value(),
		batches: m.BatchesOpened.Value(), rankerCalls: m.RankerCalls.Value(),
		hits: m.DistCacheHits.Value(), misses: m.DistCacheMisses.Value(),
		pruneObs: m.PruningRatio.Count(), gammaObs: m.GammaSteps.Count(),
	}
}

func (c queryCounters) minus(base queryCounters) queryCounters {
	return queryCounters{
		queries: c.queries - base.queries, ndcInitial: c.ndcInitial - base.ndcInitial,
		ndcRouting: c.ndcRouting - base.ndcRouting, batches: c.batches - base.batches,
		rankerCalls: c.rankerCalls - base.rankerCalls, hits: c.hits - base.hits,
		misses: c.misses - base.misses, pruneObs: c.pruneObs - base.pruneObs,
		gammaObs: c.gammaObs - base.gammaObs,
	}
}

// cancelAfter cancels its context once n distances have been computed,
// so a search is interrupted after it has already done some work.
type cancelAfter struct {
	inner  ged.Metric
	n      int64
	calls  *atomic.Int64
	cancel context.CancelFunc
}

func (m cancelAfter) Distance(a, b *graph.Graph) float64 {
	if m.calls.Add(1) == m.n {
		m.cancel()
	}
	return m.inner.Distance(a, b)
}

// TestRecordQueryMatchesStats pins that the live query families served on
// /metrics are exactly the per-search QueryStats summed: every completed
// search adds its stage NDC split, batch, ranker and memo counts, and a
// canceled search adds nothing.
func TestRecordQueryMatchesStats(t *testing.T) {
	eng, _, _, test := buildEngine(t)
	base := readQueryCounters()

	lanSO := SearchOptions{K: 5, Beam: 12, Initial: LANIS, Routing: LANRoute}
	var want queryCounters
	for _, so := range []SearchOptions{
		lanSO,
		{K: 5, Beam: 12, Initial: HNSWIS, Routing: BaselineRoute},
	} {
		for _, q := range test[:2] {
			_, s := eng.Search(q, so)
			want.queries++
			want.ndcInitial += uint64(s.InitNDC)
			want.ndcRouting += uint64(s.RouteNDC)
			want.batches += uint64(s.BatchesOpened)
			want.rankerCalls += uint64(s.RankerCalls)
			want.hits += uint64(s.DistCacheHits)
			want.misses += uint64(s.NDC)
			if s.RankedNeighbors > 0 {
				want.pruneObs++
			}
			if s.GammaSteps > 0 {
				want.gammaObs++
			}
		}
	}
	if want.rankerCalls == 0 || want.batches == 0 || want.ndcRouting == 0 {
		t.Fatalf("LANRoute searches did no routing work: %+v", want)
	}
	if got := readQueryCounters().minus(base); got != want {
		t.Fatalf("query families moved by %+v; summed QueryStats %+v", got, want)
	}

	// Cancel two distances into routing, so the interrupted search has
	// stats for both stages that must not reach the families.
	_, full := eng.Search(test[0], lanSO)
	if full.RouteNDC < 3 {
		t.Fatalf("routing computed %d distances; too few to cancel inside it", full.RouteNDC)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	canceling := *eng
	calls := new(atomic.Int64)
	at := int64(full.InitNDC + 2)
	canceling.Opts.QueryMetric = cancelAfter{inner: eng.Opts.QueryMetric, n: at, calls: calls, cancel: cancel}
	before := readQueryCounters()
	_, _, err := canceling.SearchContext(ctx, test[0], lanSO)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled search: err = %v; want context.Canceled", err)
	}
	if calls.Load() < at {
		t.Fatalf("canceled search computed %d distances; want it interrupted inside routing", calls.Load())
	}
	if got := readQueryCounters().minus(before); got != (queryCounters{}) {
		t.Fatalf("canceled search moved the query families by %+v", got)
	}
}
