package main

import (
	"bytes"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/dataset"
)

// pins holds the pinned query sets, compiled in so the binary runs from
// any directory.
//
//go:embed testdata/*.json
var pins embed.FS

// inputs are a workload's generated database and pinned queries.
type inputs struct {
	db graph.Database
	// trainSpecs regenerate the training queries at every set-up.
	trainSpecs []dataset.QuerySpec
	queries    []*graph.Graph
	truth      []truthRow
}

// inputs generates the workload's database and materializes its pinned
// training and measured queries. A shrunk workload pins on the spot.
func (w workload) inputs() (*inputs, error) {
	db := w.spec.Generate()
	var p *pinned
	if w.tiny {
		var err error
		if p, err = w.makePin(db); err != nil {
			return nil, err
		}
	} else {
		data, err := pins.ReadFile("testdata/" + w.pin)
		if err != nil {
			return nil, fmt.Errorf("lanbench: pinned inputs: %w", err)
		}
		p = new(pinned)
		if err := json.Unmarshal(data, p); err != nil {
			return nil, fmt.Errorf("lanbench: %s: %w", w.pin, err)
		}
		if p.Dataset != w.spec.Name || p.Graphs != len(db) || p.DBHash != dbHash(db) || p.Metric != w.metric || p.K != k {
			return nil, fmt.Errorf("lanbench: %s was pinned for %s (%d graphs, %s) and no longer matches the generated %s (%d graphs); regenerate it with -pin",
				w.pin, p.Dataset, p.Graphs, p.Metric, w.spec.Name, len(db))
		}
		if len(p.Queries) < w.pool || len(p.Train) < w.train {
			return nil, fmt.Errorf("lanbench: %s pins fewer queries than %s uses", w.pin, w.name)
		}
	}
	in := &inputs{db: db, trainSpecs: p.Train[:w.train], truth: p.Truth[:w.pool]}
	var err error
	if in.queries, err = dataset.FixedWorkload(db, w.spec, p.Queries[:w.pool]); err != nil {
		return nil, err
	}
	return in, nil
}

// makePin draws the workload's query specs from pinSeed and brute-forces
// their ground truth under the workload's query metric.
func (w workload) makePin(db graph.Database) (*pinned, error) {
	tr, qs, err := drawSpecs(len(db), w.train, w.pool, pinSeed)
	if err != nil {
		return nil, err
	}
	queries, err := dataset.FixedWorkload(db, w.spec, qs)
	if err != nil {
		return nil, err
	}
	return &pinned{
		Dataset: w.spec.Name, Graphs: len(db), DBHash: dbHash(db),
		Metric: w.metric, Seed: pinSeed, K: k,
		Train: tr, Queries: qs,
		Truth: truth(db, queries, w.newQuery()),
	}, nil
}

// encodePin is the pinned file's byte form.
func encodePin(p *pinned) ([]byte, error) {
	data, err := json.MarshalIndent(p, "", " ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// dbHash fingerprints a database by its JSON form.
func dbHash(db graph.Database) string {
	var buf bytes.Buffer
	if err := graph.WriteJSON(&buf, db); err != nil {
		return ""
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// regeneratePin rebuilds one pinned file from its seed.
func regeneratePin(w workload) ([]byte, error) {
	p, err := w.makePin(w.spec.Generate())
	if err != nil {
		return nil, err
	}
	return encodePin(p)
}

// writePins regenerates every pinned file into dir.
func writePins(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, w := range pinnedWorkloads() {
		data, err := regeneratePin(w)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, w.pin), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
