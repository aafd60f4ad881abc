package lanio

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/lansearch/lan"
	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/dataset"
)

func writeTempDB(t *testing.T, name string, db graph.Database) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if name[len(name)-5:] == ".json" {
		if err := graph.WriteJSON(f, db); err != nil {
			t.Fatal(err)
		}
	} else {
		if err := graph.WriteText(f, db); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

func TestReadDatabaseTextAndJSON(t *testing.T) {
	db := dataset.AIDS(0.001).Generate()
	for _, name := range []string{"db.txt", "db.json"} {
		path := writeTempDB(t, name, db)
		got, err := ReadDatabase(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != len(db) {
			t.Fatalf("%s: %d graphs; want %d", name, len(got), len(db))
		}
		for i := range db {
			if !db[i].Equal(got[i]) {
				t.Fatalf("%s: graph %d differs", name, i)
			}
		}
	}
}

func TestReadDatabaseMissingFile(t *testing.T) {
	if _, err := ReadDatabase(filepath.Join(t.TempDir(), "nope.txt")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestReadQueriesStripsIDs(t *testing.T) {
	db := dataset.AIDS(0.001).Generate()
	path := writeTempDB(t, "q.txt", db)
	qs, err := ReadQueries(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		if q.ID != -1 {
			t.Fatalf("query %d kept ID %d", i, q.ID)
		}
	}
}

// TestSaveLoadIndexRoundTrip: an index built from BuildParams saves
// atomically (no temp file left next to the snapshot) and reopens, on
// both store tiers, to an index that answers every query identically.
func TestSaveLoadIndexRoundTrip(t *testing.T) {
	spec := dataset.AIDS(0.002)
	db := spec.Generate()
	queries := dataset.Workload(db, spec, 12, 3)
	train, _, test := dataset.Split(queries)
	idx, err := BuildIndex(db, train, BuildParams{Dim: 6, M: 4, Epochs: 1, GammaKNN: 5, Seed: 3})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	defer idx.Close()

	path := filepath.Join(t.TempDir(), "idx.lansnap")
	if err := idx.SaveSnapshot(path, lan.SnapshotOptions{}); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("stray files after SaveSnapshot: %v", entries)
	}

	so := lan.SearchOptions{K: 3, Beam: 10}
	for _, store := range []string{lan.StoreRAM, lan.StoreMMap} {
		loaded, err := lan.OpenSnapshot(path, lan.Options{Store: store})
		if err != nil {
			t.Fatalf("OpenSnapshot(%s): %v", store, err)
		}
		if loaded.Len() != idx.Len() {
			t.Fatalf("%s: Len = %d; want %d", store, loaded.Len(), idx.Len())
		}
		for qi, q := range test {
			want, _, err := idx.Search(q, so)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := loaded.Search(q, so)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s query %d: %v != %v", store, qi, got, want)
			}
		}
		if err := loaded.Close(); err != nil {
			t.Fatalf("%s: Close: %v", store, err)
		}
	}
}

func TestSaveIndexUnwritableDir(t *testing.T) {
	spec := dataset.AIDS(0.001)
	db := spec.Generate()
	idx, err := BuildIndex(db, dataset.Workload(db, spec, 4, 1), BuildParams{Dim: 4, M: 3, Epochs: 1, GammaKNN: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	if err := idx.SaveSnapshot(filepath.Join(t.TempDir(), "missing", "idx.lansnap"), lan.SnapshotOptions{}); err == nil {
		t.Fatal("SaveSnapshot into a missing directory succeeded")
	}
}

func TestBuildIndexFromParams(t *testing.T) {
	spec := dataset.AIDS(0.002)
	db := spec.Generate()
	queries := dataset.Workload(db, spec, 10, 1)
	idx, err := BuildIndex(db, queries, BuildParams{Dim: 6, M: 4, Epochs: 1, GammaKNN: 5, Seed: 1})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	if idx.Len() != len(db) {
		t.Fatalf("Len = %d", idx.Len())
	}
	if _, err := BuildIndex(db, nil, BuildParams{}); err == nil {
		t.Fatal("empty workload accepted")
	}
}
