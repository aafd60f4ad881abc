// Package lanio provides the file-level conveniences shared by the
// command-line tools: loading graph databases and query workloads from
// disk and building lan indexes from flag-shaped parameters.
package lanio

import (
	"fmt"
	"os"
	"strings"

	"github.com/lansearch/lan"
	"github.com/lansearch/lan/graph"
)

// ReadDatabase loads a graph database from a file in the line-oriented
// text format (or JSON when the file name ends in .json).
func ReadDatabase(path string) (graph.Database, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".json") {
		return graph.ReadJSON(f)
	}
	return graph.ReadText(f)
}

// ReadQueries loads a workload file and strips database ids so the graphs
// are free-standing queries.
func ReadQueries(path string) ([]*graph.Graph, error) {
	db, err := ReadDatabase(path)
	if err != nil {
		return nil, err
	}
	out := make([]*graph.Graph, len(db))
	for i, q := range db {
		q.ID = -1
		out[i] = q
	}
	return out, nil
}

// BuildParams are the flag-shaped build knobs of lan-train.
type BuildParams struct {
	Dim      int
	M        int
	Epochs   int
	GammaKNN int
	// Workers bounds index-build concurrency (0 = NumCPU); the built
	// index is bit-identical for every setting.
	Workers int
	Seed    int64
}

// BuildIndex builds a lan.Index from flag-shaped parameters.
func BuildIndex(db graph.Database, queries []*graph.Graph, p BuildParams) (*lan.Index, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("lanio: empty training workload")
	}
	return lan.Build(db, queries, lan.Options{
		Dim: p.Dim, M: p.M, Epochs: p.Epochs, GammaKNN: p.GammaKNN,
		Workers: p.Workers, Seed: p.Seed,
	})
}
