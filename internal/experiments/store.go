package experiments

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/core"
	"github.com/lansearch/lan/internal/dataset"
	"github.com/lansearch/lan/internal/lanstore"
	"github.com/lansearch/lan/internal/models"
	"github.com/lansearch/lan/internal/obs"
	"github.com/lansearch/lan/internal/pg"
)

// storeFactors are the SYN size multipliers of the storage scalability
// sweep: the largest point is 50x beyond the protocol scale every other
// experiment runs at, which is where the RAM and mmap tiers'
// resident-memory curves separate.
var storeFactors = []float64{1, 10, 50}

// StorePoint is one (size, quantization) cell of the storage-tier sweep:
// the same snapshot opened RAM-resident and memory-mapped, the same
// pinned workload answered on both, with a bit-identity comparison
// between the tiers, overlap against the full-precision answers, and
// the settled resident set of each serving mode. Resident memory is
// VmRSS after a forced GC with the tier's engine live (baseline: same,
// before either open); sub-linear growth of MMapRSSBytes against
// SnapshotBytes across the sweep is the beyond-RAM claim this point
// exists to demonstrate.
type StorePoint struct {
	Dataset       string
	Graphs        int
	SizeFactor    float64
	Quant         string
	Queries       int
	Beam          int
	BuildSeconds  float64
	SnapshotBytes int64

	// Identical reports whether the mmap tier reproduced the RAM tier
	// exactly: per-query answer lists (ids and distances), NDC and
	// explored counts. Both tiers decode the same stored embeddings, so
	// this must hold at every quantization.
	Identical bool
	// F64Overlap is the mean per-query fraction of the full-precision
	// answer ids this quantization retains (1 for quant=f64 by
	// construction); RecallEpsilon is its complement — the recall@k an
	// index quantized this way can lose against full precision.
	F64Overlap    float64
	RecallEpsilon float64

	RAMOpenSeconds  float64
	MMapOpenSeconds float64
	RAMQPS          float64
	MMapQPS         float64

	BaselineRSSBytes uint64
	RAMRSSBytes      uint64
	MMapRSSBytes     uint64
	// PeakRSSBytes is the process high-water mark after the point ran —
	// monotonic across the whole process, so only comparable within one
	// sweep ordering.
	PeakRSSBytes uint64
	// MMapGraphFetches / MMapFetchBatches are the store counters the
	// mmap leg added: batches ≪ fetches is the IO-batching at work.
	MMapGraphFetches uint64
	MMapFetchBatches uint64
}

// storeOutcome is one query's comparable answer.
type storeOutcome struct {
	res      []pg.Result
	ndc      int
	explored int
}

// StoreSweep builds SYN at increasing sizes, snapshots each index, and
// measures both storage tiers on every (size, quantization) cell. The
// base size reuses the shared environment cache; larger sizes build a
// plain engine (no L2route baseline, no exact ground truth — answers are
// compared between tiers and against full precision, which is what the
// storage tier can change).
func StoreSweep(p Protocol, cache *EnvCache, w io.Writer) error {
	dir, err := os.MkdirTemp("", "lan-store-sweep-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	beam := 2 * p.K
	if len(p.Beams) > 0 {
		beam = p.Beams[len(p.Beams)-1]
	}

	fmt.Fprintf(w, "storage tiers on SYN (k=%d, beam=%d, test split of %d sampled queries)\n", p.K, beam, p.Queries)
	fmt.Fprintf(w, "  %-7s %7s %5s %10s %6s %8s %8s %9s %9s %9s %8s\n",
		"factor", "graphs", "quant", "snapshot", "ident", "eps", "ramQPS", "mmapQPS", "ramRSS", "mmapRSS", "batches")

	for _, factor := range storeFactors {
		spec := dataset.SYN(p.Scale * 42687 / 1000000 * factor)
		spec.Name = fmt.Sprintf("SYN(x%g)", factor)
		db, queries, eng, buildSec, err := storeBuild(p, cache, spec, factor)
		if err != nil {
			return err
		}

		quants := []lanstore.Quant{lanstore.QuantF64, lanstore.QuantInt8}
		//lint:allow floatcmp factor is copied verbatim from storeFactors, never computed
		if factor == storeFactors[0] {
			quants = []lanstore.Quant{lanstore.QuantF64, lanstore.QuantF32, lanstore.QuantInt8}
		}
		paths := make(map[lanstore.Quant]string, len(quants))
		for _, q := range quants {
			path := filepath.Join(dir, fmt.Sprintf("%s-%s.lansnap", spec.Name, q))
			if err := core.SaveSnapshotV3(path, eng, nil, q); err != nil {
				return err
			}
			paths[q] = path
		}

		// Drop the built engine before measuring: the serving footprint of
		// each tier must not include the builder's heap.
		eng = nil
		_ = eng
		baseline := settledRSS()

		var f64Ram []storeOutcome
		for _, q := range quants {
			pt := StorePoint{
				Dataset: spec.Name, Graphs: len(db), SizeFactor: factor,
				Quant: string(q), Queries: len(queries), Beam: beam,
				BuildSeconds: buildSec, BaselineRSSBytes: baseline,
			}
			if fi, err := os.Stat(paths[q]); err == nil {
				pt.SnapshotBytes = fi.Size()
			}

			// mmap leg first: its resident set must reflect what queries
			// page in, not what a prior full materialization left warm.
			m0 := obs.Store()
			fetches0, batches0 := m0.GraphFetches.Value(), m0.FetchBatches.Value()
			mmapOut, err := storeLeg(p, paths[q], true, queries, beam, &pt.MMapOpenSeconds, &pt.MMapQPS, &pt.MMapRSSBytes)
			if err != nil {
				return fmt.Errorf("experiments: %s %s mmap: %w", spec.Name, q, err)
			}
			pt.MMapGraphFetches = m0.GraphFetches.Value() - fetches0
			pt.MMapFetchBatches = m0.FetchBatches.Value() - batches0

			ramOut, err := storeLeg(p, paths[q], false, queries, beam, &pt.RAMOpenSeconds, &pt.RAMQPS, &pt.RAMRSSBytes)
			if err != nil {
				return fmt.Errorf("experiments: %s %s ram: %w", spec.Name, q, err)
			}
			pt.Identical = reflect.DeepEqual(mmapOut, ramOut)
			if q == lanstore.QuantF64 {
				f64Ram = ramOut
			}
			pt.F64Overlap = overlap(ramOut, f64Ram)
			pt.RecallEpsilon = 1 - pt.F64Overlap
			_, pt.PeakRSSBytes = procRSS()

			fmt.Fprintf(w, "  %-7g %7d %5s %10d %6v %8.3f %8.2f %9.2f %8dK %8dK %8d\n",
				factor, len(db), q, pt.SnapshotBytes, pt.Identical, pt.RecallEpsilon,
				pt.RAMQPS, pt.MMapQPS, pt.RAMRSSBytes/1024, pt.MMapRSSBytes/1024, pt.MMapFetchBatches)
		}
	}
	return nil
}

// storeBuild returns the database, test workload and trained engine for
// one sweep size. The base factor reuses the cached environment every
// other experiment shares; larger factors get a dedicated lean build.
func storeBuild(p Protocol, cache *EnvCache, spec dataset.Spec, factor float64) (graph.Database, []*graph.Graph, *core.Engine, float64, error) {
	//lint:allow floatcmp factor is copied verbatim from storeFactors, never computed
	if factor == storeFactors[0] && cache != nil {
		base := dataset.SYN(p.Scale * 42687 / 1000000)
		if env, err := cache.Get(p, base); err == nil {
			return env.DB, env.Test, env.Engine, env.BuildTime.Seconds(), nil
		}
	}
	db := spec.Generate()
	queries := envWorkload(p, db, spec)
	_, _, test := dataset.Split(queries)
	start := time.Now()
	eng, err := core.Build(db, queries[:len(queries)*6/10], core.Options{
		M: 6, Dim: p.Dim, GammaKNN: 2 * p.K,
		BuildMetric: p.buildMetric(),
		QueryMetric: p.QueryMetric,
		Train:       models.TrainOptions{Epochs: p.TrainEpochs, LR: 0.01},
		Workers:     p.Workers,
		Seed:        p.Seed,
	})
	if err != nil {
		return nil, nil, nil, 0, fmt.Errorf("experiments: %s build: %w", spec.Name, err)
	}
	return db, test, eng, time.Since(start).Seconds(), nil
}

// storeLeg opens the snapshot on one tier, answers the workload, and
// records open time, throughput and the settled resident set while the
// engine is live.
func storeLeg(p Protocol, path string, mmap bool, queries []*graph.Graph, beam int, openSec, qps *float64, rss *uint64) ([]storeOutcome, error) {
	openStart := time.Now()
	eng, _, store, err := core.OpenSnapshotV3(path, core.Options{
		BuildMetric: p.buildMetric(), QueryMetric: p.QueryMetric,
		Workers: p.Workers,
	}, mmap)
	if err != nil {
		return nil, err
	}
	*openSec = time.Since(openStart).Seconds()

	so := core.SearchOptions{K: p.K, Beam: beam, Initial: core.LANIS, Routing: core.LANRoute}
	outs := make([]storeOutcome, len(queries))
	start := time.Now()
	for i, q := range queries {
		//lint:allow ctxprop bench harness entry point; sweep queries run to completion by design
		res, stats, err := eng.SearchPooled(context.Background(), q, so, nil)
		if err != nil {
			return nil, err
		}
		outs[i] = storeOutcome{res: res, ndc: stats.NDC, explored: stats.Explored}
	}
	if elapsed := time.Since(start).Seconds(); elapsed > 0 {
		*qps = float64(len(queries)) / elapsed
	}
	*rss = settledRSS()
	if store != nil {
		if err := store.Close(); err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// overlap is the mean per-query fraction of reference answer ids that
// got retains (1 when reference is nil or empty).
func overlap(got, reference []storeOutcome) float64 {
	if len(reference) == 0 || len(got) != len(reference) {
		return 1
	}
	var sum float64
	n := 0
	for i := range reference {
		if len(reference[i].res) == 0 {
			continue
		}
		ids := make(map[int]bool, len(got[i].res))
		for _, r := range got[i].res {
			ids[r.ID] = true
		}
		hits := 0
		for _, r := range reference[i].res {
			if ids[r.ID] {
				hits++
			}
		}
		sum += float64(hits) / float64(len(reference[i].res))
		n++
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n)
}
