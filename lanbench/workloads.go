package main

import (
	"fmt"
	"sort"

	"github.com/lansearch/lan"
	"github.com/lansearch/lan/ged"
	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/dataset"
)

// k is the number of neighbors every workload asks for.
const k = 10

// setupReps is how many times a measured run sets its index up; setup_s
// is the median.
const setupReps = 3

// workload is one benchmark input family and the protocol it runs.
type workload struct {
	name string
	spec dataset.Spec
	// pin names the pinned query set under testdata/; workloads sharing a
	// dataset share it.
	pin string
	// train and pool are the pinned training and measured query counts.
	train, pool int
	opts        lan.Options
	// newBuild and newQuery return the GED metrics (fresh values, so a
	// probe can wrap them).
	newBuild, newQuery func() ged.Metric
	// metric names the query metric in the pinned file.
	metric string
	beam   int
	// mmap serves searches off a memory-mapped f64 snapshot.
	mmap bool
	// serve drives an in-process lanserve.Server with writes.
	serve bool
	// serve-churn parameters: the load ladder as fractions of measured
	// capacity, each rung's share of the measured seconds, the search p99
	// limit a rung must meet, and how many pool queries recall uses.
	rungs      []float64
	rungShare  []float64
	sloMillis  float64
	recallPool int
	// tiny marks a shrunk workload: inputs are generated, not pinned.
	tiny bool
}

func aidsProtocol() lan.Options {
	return lan.Options{M: 6, Dim: 16, Epochs: 1, LR: 0.01, GammaKNN: 2 * k, Seed: 1}
}

func synProtocol() lan.Options {
	return lan.Options{Epochs: 1, LR: 0.01, GammaKNN: 2 * k, Seed: 1}
}

func hungarian() ged.Metric { return ged.MetricFunc(ged.Hungarian) }

var workloads = []workload{
	{
		name: "aids-exact", spec: dataset.AIDS(0.002), pin: "aids-exact.json",
		train: 2, pool: 12, opts: aidsProtocol(),
		newBuild: func() ged.Metric { return ged.Ensemble{BeamWidth: 2} },
		newQuery: func() ged.Metric { return ged.Ensemble{ExactBudget: 150, BeamWidth: 4} },
		metric:   "ged.Ensemble{ExactBudget:150,BeamWidth:4}",
		beam:     12,
	},
	{
		name: "syn-mmap", spec: dataset.SYN(0.0005), pin: "syn.json",
		train: 2, pool: 120, opts: synProtocol(),
		newBuild: hungarian, newQuery: hungarian, metric: "ged.Hungarian",
		beam: 28, mmap: true,
	},
	{
		name: "serve-churn", spec: dataset.SYN(0.0005), pin: "syn.json",
		train: 2, pool: 120, opts: synProtocol(),
		newBuild: hungarian, newQuery: hungarian, metric: "ged.Hungarian",
		beam: 28, serve: true,
		rungs: []float64{0.3, 0.6, 0.9}, rungShare: []float64{0.1, 0.7, 0.2},
		sloMillis: 250, recallPool: 40,
	},
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// shrunk returns the workload at smoke-test size: a few dozen graphs, a
// handful of queries and ground truth computed on the spot.
func (w workload) shrunk() workload {
	w.tiny = true
	if w.spec.Kind == dataset.KindRandom {
		w.spec = dataset.SYN(0.00006)
	} else {
		w.spec = dataset.AIDS(0.0008)
	}
	w.train, w.pool = 2, 4
	w.recallPool = 4
	return w
}

func (w workload) run(c runConfig, rep *report) error {
	in, err := w.inputs()
	if err != nil {
		return err
	}
	if w.serve {
		return w.runServe(c, in, rep)
	}
	return w.runClosed(c, in, rep)
}

// truthRow is one query's brute-force top-k under the workload metric.
type truthRow struct {
	IDs   []int     `json:"ids"`
	Dists []float64 `json:"dists"`
}

// pinned is a workload's pinned query set: training and measured query
// specs drawn from Seed, and the measured queries' ground truth. DBHash
// fingerprints the generated database, so a changed generator is caught
// instead of silently scoring against stale truth.
type pinned struct {
	Dataset string              `json:"dataset"`
	Graphs  int                 `json:"graphs"`
	DBHash  string              `json:"db_sha256"`
	Metric  string              `json:"metric"`
	Seed    int64               `json:"seed"`
	K       int                 `json:"k"`
	Train   []dataset.QuerySpec `json:"train"`
	Queries []dataset.QuerySpec `json:"queries"`
	Truth   []truthRow          `json:"truth"`
}

// pinSeed is the seed the pinned query sets are drawn from.
const pinSeed = 20221

// drawSpecs draws the training and measured query specs from seed. The
// two sets perturb disjoint database members, so no measured query is a
// training query.
func drawSpecs(dbLen, train, pool int, seed int64) (tr, qs []dataset.QuerySpec, err error) {
	cand := dataset.SampleQuerySpecs(dbLen, 4*(train+pool)+16, seed)
	used := map[int]bool{}
	for _, s := range cand {
		if len(tr) < train && !used[s.Base] {
			used[s.Base] = true
			tr = append(tr, s)
		}
	}
	for _, s := range cand {
		if len(qs) < pool && !used[s.Base] {
			qs = append(qs, s)
		}
	}
	if len(tr) < train || len(qs) < pool {
		return nil, nil, fmt.Errorf("lanbench: %d graphs are too few for %d training and %d measured queries", dbLen, train, pool)
	}
	return tr, qs, nil
}

// truth brute-forces the top-k of every query under metric.
func truth(db graph.Database, queries []*graph.Graph, metric ged.Metric) []truthRow {
	gt := dataset.ComputeGroundTruth(db, queries, metric, k)
	out := make([]truthRow, len(gt))
	for i, g := range gt {
		for _, r := range g.Results {
			out[i].IDs = append(out[i].IDs, r.ID)
			out[i].Dists = append(out[i].Dists, r.Dist)
		}
	}
	return out
}

// pinnedWorkloads lists one workload per pin file, in file order.
func pinnedWorkloads() []workload {
	seen := map[string]bool{}
	var out []workload
	for _, w := range workloads {
		if !seen[w.pin] {
			seen[w.pin] = true
			out = append(out, w)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pin < out[j].pin })
	return out
}
