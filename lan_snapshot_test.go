package lan

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/lansearch/lan/ged"
	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/dataset"
)

// snapshotPath saves idx as a v3 binary snapshot in a temp dir.
func snapshotPath(t *testing.T, idx *Index, so SnapshotOptions) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "idx.lansnap")
	if err := idx.SaveSnapshot(path, so); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	return path
}

// buildTinyIndex builds the smallest useful index: fast enough for the
// persistence tests to run in -short mode.
func buildTinyIndex(t *testing.T) (*Index, []*graph.Graph) {
	t.Helper()
	spec := dataset.AIDS(0.002)
	db := spec.Generate()
	queries := dataset.Workload(db, spec, 10, 5)
	train, _, test := dataset.Split(queries)
	idx, err := Build(db, train, Options{M: 4, Dim: 6, GammaKNN: 5, Epochs: 1, Seed: 9})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return idx, test
}

func TestSnapshotRoundTripBothTiers(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping in -short mode: builds a full index end to end")
	}
	idx, db, test := buildSmallIndex(t)
	path := snapshotPath(t, idx, SnapshotOptions{})

	so := SearchOptions{K: 4, Beam: 10}
	for _, store := range []string{StoreRAM, StoreMMap} {
		opened, err := OpenSnapshot(path, Options{Store: store})
		if err != nil {
			t.Fatalf("OpenSnapshot(%s): %v", store, err)
		}
		if opened.Len() != len(db) {
			t.Fatalf("%s: Len = %d; want %d", store, opened.Len(), len(db))
		}
		for qi, q := range test {
			want, wantStats, err := idx.Search(q, so)
			if err != nil {
				t.Fatal(err)
			}
			got, gotStats, err := opened.Search(q, so)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s query %d: results diverge from the index that wrote the snapshot\nwant: %v\ngot:  %v", store, qi, want, got)
			}
			if wantStats.NDC != gotStats.NDC {
				t.Fatalf("%s query %d: NDC %d != %d", store, qi, gotStats.NDC, wantStats.NDC)
			}
		}
		if err := opened.Close(); err != nil {
			t.Fatalf("%s: Close: %v", store, err)
		}
	}
}

func TestSnapshotMMapIsReadOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping in -short mode: builds a full index end to end")
	}
	idx, _, test := buildSmallIndex(t)
	path := snapshotPath(t, idx, SnapshotOptions{})

	mm, err := OpenSnapshot(path, Options{}) // mmap is the default tier
	if err != nil {
		t.Fatal(err)
	}
	defer mm.Close()
	if _, err := mm.Insert(test[0]); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Insert on mmap index: err = %v; want ErrReadOnly", err)
	}
	if err := mm.Delete(0); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Delete on mmap index: err = %v; want ErrReadOnly", err)
	}
	if _, err := mm.Compact(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Compact on mmap index: err = %v; want ErrReadOnly", err)
	}
	// Searches still serve.
	if res, _, err := mm.Search(test[0], SearchOptions{K: 3, Beam: 8}); err != nil || len(res) != 3 {
		t.Fatalf("Search on mmap index: res=%v err=%v", res, err)
	}

	// The same snapshot opened on the RAM tier accepts writes.
	ram, err := OpenSnapshot(path, Options{Store: StoreRAM})
	if err != nil {
		t.Fatal(err)
	}
	defer ram.Close()
	if _, err := ram.Insert(test[0]); err != nil {
		t.Fatalf("Insert on ram-materialized index: %v", err)
	}
}

func TestSnapshotPrecisionOptions(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping in -short mode: builds a full index end to end")
	}
	idx, _, test := buildSmallIndex(t)
	if err := idx.SaveSnapshot(filepath.Join(t.TempDir(), "x.lansnap"), SnapshotOptions{Precision: "f16"}); err == nil {
		t.Fatal("unknown precision accepted")
	}
	for _, prec := range []string{"f32", "int8"} {
		path := snapshotPath(t, idx, SnapshotOptions{Precision: prec})
		opened, err := OpenSnapshot(path, Options{})
		if err != nil {
			t.Fatalf("%s: %v", prec, err)
		}
		res, _, err := opened.Search(test[0], SearchOptions{K: 3, Beam: 8})
		if err != nil || len(res) != 3 {
			t.Fatalf("%s: res=%v err=%v", prec, res, err)
		}
		// Quantization perturbs only the learned ranking: result distances
		// stay exact float64 GEDs of the returned graphs under the default
		// query metric.
		for _, r := range res {
			if exact := ged.Hungarian(opened.Graph(r.ID), test[0]); r.Dist != exact {
				t.Fatalf("%s: result %d dist %v != exact GED %v", prec, r.ID, r.Dist, exact)
			}
		}
		opened.Close()
	}
}

func TestOpenSnapshotErrors(t *testing.T) {
	dir := t.TempDir()
	garbage := filepath.Join(dir, "garbage.lansnap")
	if err := os.WriteFile(garbage, []byte("definitely not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSnapshot(garbage, Options{}); !errors.Is(err, ErrNotSnapshot) {
		t.Fatalf("garbage: err = %v; want ErrNotSnapshot", err)
	}
	if _, err := OpenSnapshot(filepath.Join(dir, "x.lansnap"), Options{Store: "floppy"}); err == nil {
		t.Fatal("unknown store accepted")
	}
}

// TestSnapshotMutatedRoundTrip: a mutated index carries its write history
// through SaveSnapshot and OpenSnapshot on both tiers — the epoch, the
// inserted graph as a searchable member and the tombstone of the deleted
// one — and answers every query exactly like the index that wrote it.
func TestSnapshotMutatedRoundTrip(t *testing.T) {
	idx, test := buildTinyIndex(t)
	defer idx.Close()
	insID, err := idx.Insert(test[0])
	if err != nil {
		t.Fatal(err)
	}
	const deleted = 0
	if err := idx.Delete(deleted); err != nil {
		t.Fatal(err)
	}
	// Quiesce so the background optimizer cannot move the epoch between
	// the save and the comparisons.
	idx.Quiesce()
	path := snapshotPath(t, idx, SnapshotOptions{})

	so := SearchOptions{K: 3, Beam: 12}
	for _, store := range []string{StoreRAM, StoreMMap} {
		opened, err := OpenSnapshot(path, Options{Store: store})
		if err != nil {
			t.Fatalf("OpenSnapshot(%s): %v", store, err)
		}
		if opened.Epoch() != idx.Epoch() || opened.Len() != idx.Len() {
			t.Fatalf("%s: epoch %d/%d, len %d/%d", store, opened.Epoch(), idx.Epoch(), opened.Len(), idx.Len())
		}
		for qi, q := range test {
			want, wantStats, err := idx.Search(q, so)
			if err != nil {
				t.Fatal(err)
			}
			got, gotStats, err := opened.Search(q, so)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) || wantStats.NDC != gotStats.NDC {
				t.Fatalf("%s query %d: got %v (NDC %d); want %v (NDC %d)", store, qi, got, gotStats.NDC, want, wantStats.NDC)
			}
			for _, r := range got {
				if r.ID == deleted {
					t.Fatalf("%s query %d: deleted graph %d came back: %v", store, qi, deleted, got)
				}
			}
			if qi == 0 && (len(got) == 0 || got[0].ID != insID || got[0].Dist != 0) {
				t.Fatalf("%s: inserted graph %d lost in the round trip: %+v", store, insID, got)
			}
		}
		if store == StoreRAM {
			if err := opened.Delete(deleted); err == nil {
				t.Fatalf("graph %d came back from the dead after the round trip", deleted)
			}
		}
		if err := opened.Close(); err != nil {
			t.Fatalf("%s: Close: %v", store, err)
		}
	}
}

// TestOpenSnapshotDamagedFiles pins the failure modes of damaged or
// foreign files: truncation and bit corruption surface as ErrCorrupt
// (never a panic), a snapshot from a future format version is refused
// by name, and a JSON index from an older release is not a snapshot.
func TestOpenSnapshotDamagedFiles(t *testing.T) {
	idx, _ := buildTinyIndex(t)
	raw, err := os.ReadFile(snapshotPath(t, idx, SnapshotOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, data []byte) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	truncated := write("truncated.lansnap", raw[:len(raw)*3/5])
	if _, err := OpenSnapshot(truncated, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated: err = %v; want ErrCorrupt", err)
	}

	// Flip a byte in the meta section (just past the fixed-size header):
	// meta is structurally verified at open on both tiers, unlike the
	// graph payload whose checksum the mmap tier defers so opening does
	// not page the whole file.
	flipped := append([]byte(nil), raw...)
	flipped[200] ^= 0xff
	corrupt := write("corrupt.lansnap", flipped)

	bumped := append([]byte(nil), raw...)
	bumped[7] = '9' // magic is "LANSNAP" + version digit
	future := write("future.lansnap", bumped)

	jsonIndex := write("idx.lan", []byte(`{"version":2,"gamma_star":3,"adj":[[1],[0]]}`+"\n"))

	for _, store := range []string{StoreMMap, StoreRAM} {
		if _, err := OpenSnapshot(corrupt, Options{Store: store}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("corrupt (%s): err = %v; want ErrCorrupt", store, err)
		}
		if _, err := OpenSnapshot(future, Options{Store: store}); !errors.Is(err, ErrFutureVersion) {
			t.Fatalf("future (%s): err = %v; want ErrFutureVersion", store, err)
		}
		if _, err := OpenSnapshot(jsonIndex, Options{Store: store}); !errors.Is(err, ErrNotSnapshot) {
			t.Fatalf("JSON index (%s): err = %v; want ErrNotSnapshot", store, err)
		}
	}
}

// TestSaveSnapshotAtomicWrite: a save leaves exactly the snapshot behind
// (the temp file it writes through is renamed away), and a save that
// cannot create its temp file fails instead of pretending.
func TestSaveSnapshotAtomicWrite(t *testing.T) {
	idx, _ := buildTinyIndex(t)
	path := snapshotPath(t, idx, SnapshotOptions{})
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != filepath.Base(path) {
		t.Fatalf("files after SaveSnapshot: %v; want only %s", entries, filepath.Base(path))
	}
	if err := idx.SaveSnapshot(filepath.Join(t.TempDir(), "missing", "idx.lansnap"), SnapshotOptions{}); err == nil {
		t.Fatal("SaveSnapshot into a missing directory succeeded")
	}
}

// TestSnapshotBuildWorkersByteIdentical is the strongest end-to-end
// determinism check: indexes built with one and with four workers save
// to byte-identical snapshots.
func TestSnapshotBuildWorkersByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping in -short mode: builds a full index twice")
	}
	spec := dataset.AIDS(0.003)
	db := spec.Generate()
	train, _, _ := dataset.Split(dataset.Workload(db, spec, 16, 9))
	var files [][]byte
	for _, workers := range []int{1, 4} {
		idx, err := Build(db, train, Options{M: 5, Dim: 8, GammaKNN: 10, Epochs: 2, Seed: 2, Workers: workers})
		if err != nil {
			t.Fatalf("Build(workers=%d): %v", workers, err)
		}
		raw, err := os.ReadFile(snapshotPath(t, idx, SnapshotOptions{}))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, raw)
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatalf("snapshots differ between 1 and 4 build workers (%d vs %d bytes)", len(files[0]), len(files[1]))
	}
}
