package core

import (
	"encoding/json"
	"fmt"

	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/cg"
	"github.com/lansearch/lan/internal/cluster"
	"github.com/lansearch/lan/internal/lanstore"
	"github.com/lansearch/lan/internal/models"
)

// SnapshotVersionV3 is the binary snapshot format, the only persisted
// index format: JSON metadata in one lanstore section, and the database,
// base adjacency and M_rk node-embedding table in the fixed-layout
// sections an mmap reader can serve without materializing them.
const SnapshotVersionV3 = 3

// mmapCGCacheBound caps the compressed-GNN-graph cache of an
// mmap-opened engine. CGs are memos of deterministic per-graph builds,
// so the bound only trades CPU for memory — results never change — and
// it is what keeps resident memory sublinear in database size.
const mmapCGCacheBound = 4096

// SaveSnapshotV3 writes the engine as a version-3 binary snapshot:
// self-contained (database included — nothing is re-supplied at open),
// mmap-able, with the M_rk node-embedding table stored at the given
// quantization. The engine must be RAM-resident; re-saving an
// mmap-opened engine is not supported.
func SaveSnapshotV3(path string, e *Engine, st *MutationState, quant lanstore.Quant) error {
	if _, mm := e.Graphs.(*lanstore.Store); mm {
		return fmt.Errorf("core: cannot re-save an mmap-opened engine as a snapshot (open with the ram store to materialize it first)")
	}
	s := snapshot{
		Version:   SnapshotVersionV3,
		GammaStar: e.GammaStar,
		Upper:     e.Index.Upper,
		Level:     e.Index.Level,
		Entry:     e.Index.Entry,
		M:         e.Opts.M,
		Layers:    e.Opts.Layers, Dim: e.Opts.Dim,
		BatchPercent: e.Opts.BatchPercent, Hidden: e.Opts.Hidden,
		UseCG:       e.Opts.UseCG,
		TopClusters: e.Opts.TopClusters, Samples: e.Opts.Samples,
		StepSize:  e.Opts.StepSize,
		Seed:      e.Opts.Seed,
		Centroids: e.Mc.Clusters().Centroids,
		Assign:    e.Mc.Clusters().Assign,
	}
	if st != nil && st.Epoch > 0 {
		s.Epoch = st.Epoch
		s.Born = st.Born
		s.Died = st.Died
	}
	var err error
	if s.MrkParams, err = marshalParams(e.Mrk.Params); err != nil {
		return err
	}
	if s.MnhParams, err = marshalParams(e.Mnh.Params); err != nil {
		return err
	}
	if s.McParams, err = marshalParams(e.Mc.Params); err != nil {
		return err
	}
	meta, err := json.Marshal(&s)
	if err != nil {
		return fmt.Errorf("core: snapshot meta: %w", err)
	}
	return lanstore.Write(path, &lanstore.SnapshotData{
		Meta:  meta,
		DB:    e.DB,
		Adj:   e.Index.PG.Adj,
		Emb:   e.Mrk.NodeEmbeddings(),
		Quant: quant,
	})
}

// OpenSnapshotV3 opens a version-3 binary snapshot.
//
// With mmap true the database stays on disk: searches fetch candidate
// graphs segment-at-a-time through the store, the adjacency is aliased
// from the mapping, M_rk reads its node embeddings row-by-row, and
// Engine.DB is a length-only husk of nil entries. The returned store
// backs the engine — the caller owns closing it, after which the engine
// must not be used. Resident memory stays far below database size; the
// engine is read-only.
//
// With mmap false the snapshot is fully verified and materialized into
// RAM (the store is closed before returning, and the returned store is
// nil): the engine is then indistinguishable from a freshly built one,
// writable included.
func OpenSnapshotV3(path string, opts Options, mmap bool) (*Engine, *MutationState, *lanstore.Store, error) {
	store, err := lanstore.Open(path)
	if err != nil {
		return nil, nil, nil, err
	}
	e, st, err := openV3(store, opts, mmap)
	if err != nil {
		store.Close()
		return nil, nil, nil, err
	}
	if !mmap {
		store.Close()
		return e, st, nil, nil
	}
	return e, st, store, nil
}

func openV3(store *lanstore.Store, opts Options, mmap bool) (*Engine, *MutationState, error) {
	var s snapshot
	if err := json.Unmarshal(store.Meta(), &s); err != nil {
		return nil, nil, fmt.Errorf("core: snapshot meta: %w", err)
	}
	if s.Version != SnapshotVersionV3 {
		return nil, nil, fmt.Errorf("core: binary snapshot carries metadata version %d, want %d", s.Version, SnapshotVersionV3)
	}
	n := store.Len()
	var st *MutationState
	if s.Epoch > 0 {
		if len(s.Born) != n || len(s.Died) != n {
			return nil, nil, fmt.Errorf("core: snapshot: %d/%d validity stamps for %d graphs", len(s.Born), len(s.Died), n)
		}
		st = &MutationState{Epoch: s.Epoch, Born: s.Born, Died: s.Died}
	}

	if !mmap {
		// RAM mode: verify everything (including the payload sections the
		// mmap path defers), then decode into ordinary heap structures.
		if err := store.VerifyPayload(); err != nil {
			return nil, nil, err
		}
		db, err := store.DecodeAll()
		if err != nil {
			return nil, nil, err
		}
		if err := db.Validate(); err != nil {
			return nil, nil, fmt.Errorf("core: snapshot: %w", err)
		}
		asm := assembly{}
		if store.NodeEmbeddingCount() == n {
			asm.nodeEmb = store.EmbeddingsFloat64()
		}
		e, err := assembleEngine(db, &s, store.AdjacencyCopy(), opts, asm)
		if err != nil {
			return nil, nil, err
		}
		return e, st, nil
	}

	// mmap mode: the database is a husk — only its length is real. The
	// vocabulary comes from the snapshot's label table (identical to what
	// a database scan would build: both are the sorted distinct labels),
	// so no assembly step touches graph bytes beyond what queries page in.
	db := make(graph.Database, n)
	vocab := cg.NewVocabFromLabels(store.Labels())
	cgs := models.NewCGStoreVocab(vocab, s.Layers, s.UseCG)
	cgs.SetCacheBound(mmapCGCacheBound)
	asm := assembly{
		graphs:   store,
		cgs:      cgs,
		embedder: cluster.NewFeatureEmbedderVocab(vocab),
		huskDB:   true,
	}
	if store.NodeEmbeddingCount() == n {
		asm.embSrc = store
	}
	e, err := assembleEngine(db, &s, store.Adjacency(), opts, asm)
	if err != nil {
		return nil, nil, err
	}
	return e, st, nil
}
