package mutable

import (
	"errors"
	"testing"
)

// TestReadOnlyRejectsWrites pins the read-only gate mmap-backed indexes
// rely on: every write entry point returns ErrReadOnly before touching
// the index, while reads — searches, snapshots, accessors — keep
// working. Quiesce and Close stay harmless no-ops (no optimizer ever
// starts on an index that cannot accept writes).
func TestReadOnlyRejectsWrites(t *testing.T) {
	eng, db, test := smallEngine(t)
	x, err := NewReadOnly(eng, nil)
	if err != nil {
		t.Fatalf("NewReadOnly: %v", err)
	}
	t.Cleanup(func() { x.Close() })

	if _, err := x.Insert(test[0]); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Insert: err = %v; want ErrReadOnly", err)
	}
	if err := x.Delete(0); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Delete: err = %v; want ErrReadOnly", err)
	}
	if _, err := x.Compact(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Compact: err = %v; want ErrReadOnly", err)
	}
	if x.Epoch() != 0 || x.Len() != len(db) {
		t.Fatalf("rejected writes left a mark: epoch %d, len %d", x.Epoch(), x.Len())
	}

	snap := x.Snapshot()
	if snap.Live != len(db) || snap.Engine == nil {
		t.Fatalf("read view broken: %+v", snap)
	}
	x.Quiesce() // must not hang without an optimizer

	if err := x.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Closed read-only index still reports ErrReadOnly (the stronger,
	// earlier gate) rather than a closed-index error.
	if _, err := x.Insert(test[0]); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Insert after Close: err = %v; want ErrReadOnly", err)
	}
}
