package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/cluster"
	"github.com/lansearch/lan/internal/models"
	"github.com/lansearch/lan/internal/pg"
)

// snapshot is the JSON metadata section of a binary snapshot: everything
// besides the database, the base-layer adjacency and M_rk's node
// embeddings (which live in their own lanstore sections) and the metrics
// (which are code).
type snapshot struct {
	Version   int     `json:"version"`
	GammaStar float64 `json:"gamma_star"`

	// Index (upper HNSW layers; the base layer is a lanstore section).
	Upper []map[int][]int `json:"upper"`
	Level []int           `json:"level"`
	Entry int             `json:"entry"`

	// Options needed to rebuild model shapes.
	M            int     `json:"m"`
	Layers       int     `json:"layers"`
	Dim          int     `json:"dim"`
	BatchPercent int     `json:"batch_percent"`
	Hidden       int     `json:"hidden"`
	UseCG        bool    `json:"use_cg"`
	TopClusters  int     `json:"top_clusters"`
	Samples      int     `json:"samples"`
	StepSize     float64 `json:"step_size"`
	Seed         int64   `json:"seed"`

	// Clustering.
	Centroids [][]float64 `json:"centroids"`
	Assign    []int       `json:"assign"`

	// Model parameters (each the output of nn.Params.Save).
	MrkParams json.RawMessage `json:"mrk_params"`
	MnhParams json.RawMessage `json:"mnh_params"`
	McParams  json.RawMessage `json:"mc_params"`

	// Mutation state, omitted while the engine was never mutated.
	Epoch uint64   `json:"epoch,omitempty"`
	Born  []uint64 `json:"born,omitempty"`
	Died  []uint64 `json:"died,omitempty"`
}

func marshalParams(p interface{ Save(io.Writer) error }) (json.RawMessage, error) {
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		return nil, err
	}
	return json.RawMessage(buf.Bytes()), nil
}

// assembly carries the storage-dependent pieces of engine assembly. The
// RAM tier derives everything but the M_rk table from the materialized
// database; the mmap tier substitutes vocab-built caches, an external
// graph store and an embedding source over a husk database.
type assembly struct {
	// graphs overrides the candidate-fetch tier (nil → RAMStore over db).
	graphs pg.GraphStore
	// cgs overrides the compressed-GNN-graph cache (nil → scan db).
	cgs *models.CGStore
	// embedder overrides M_c's feature embedder (nil → scan db).
	embedder cluster.Embedder
	// nodeEmb supplies the M_rk table (the RAM tier decodes it from the
	// embedding section).
	nodeEmb [][]float64
	// embSrc serves the M_rk table externally (the v3 mmap path).
	embSrc models.NodeEmbeddingSource
	// huskDB marks db as a length-only husk of nil entries (mmap mode):
	// assembly must not dereference entries or fall back to db scans.
	huskDB bool
}

// assembleEngine rebuilds a ready engine from decoded snapshot metadata,
// the base-layer adjacency and the storage-dependent inputs in asm — the
// shared back half of both storage tiers.
func assembleEngine(db graph.Database, s *snapshot, adj [][]int, opts Options, asm assembly) (*Engine, error) {
	if len(adj) != len(db) {
		return nil, fmt.Errorf("core: snapshot indexes %d graphs, database has %d", len(adj), len(db))
	}
	opts.M = s.M
	opts.Layers, opts.Dim = s.Layers, s.Dim
	opts.BatchPercent, opts.Hidden = s.BatchPercent, s.Hidden
	opts.UseCG = s.UseCG
	opts.TopClusters, opts.Samples = s.TopClusters, s.Samples
	opts.StepSize = s.StepSize
	opts.Seed = s.Seed
	opts.defaults(len(db))

	idx := &pg.HNSW{
		PG:    &pg.PG{DB: db, Adj: adj},
		Upper: s.Upper,
		Level: s.Level,
		Entry: s.Entry,
	}
	if err := idx.PG.Validate(); err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}

	store := asm.cgs
	if store == nil {
		store = models.NewCGStore(db, opts.Layers, opts.UseCG)
	}
	graphs := asm.graphs
	if graphs == nil {
		graphs = pg.NewRAMStore(db)
	}
	mcfg := models.Config{
		Layers: opts.Layers, Dim: opts.Dim, BatchPercent: opts.BatchPercent,
		Hidden: opts.Hidden, GammaStar: s.GammaStar, Seed: opts.Seed,
	}
	e := &Engine{DB: db, Index: idx, Opts: opts, Graphs: graphs, Store: store, GammaStar: s.GammaStar}

	e.Mrk = models.NewNeighborRanker(mcfg, store)
	if err := e.Mrk.Params.Load(bytesReader(s.MrkParams)); err != nil {
		return nil, err
	}
	switch {
	case asm.nodeEmb != nil:
		if err := e.Mrk.SetNodeEmbeddings(asm.nodeEmb, len(db)); err != nil {
			return nil, err
		}
	case asm.embSrc != nil:
		e.Mrk.SetNodeEmbeddingSource(asm.embSrc)
	case !asm.huskDB:
		e.Mrk.PrecomputeNodeEmbeddings(db, opts.Workers)
	}
	e.Mnh = models.NewNeighborhoodModel(mcfg, store)
	if err := e.Mnh.Params.Load(bytesReader(s.MnhParams)); err != nil {
		return nil, err
	}

	km := &cluster.KMeans{Centroids: s.Centroids, Assign: s.Assign, Members: make([][]int, len(s.Centroids))}
	for i, c := range s.Assign {
		km.Members[c] = append(km.Members[c], i)
	}
	emb := asm.embedder
	if emb == nil {
		emb = cluster.NewFeatureEmbedder(db)
	}
	e.Mc = models.NewClusterModel(mcfg, emb, km)
	if err := e.Mc.Params.Load(bytesReader(s.McParams)); err != nil {
		return nil, err
	}
	return e, nil
}

func bytesReader(b []byte) io.Reader { return bytes.NewReader(b) }
