# Development entry points. Everything is stdlib Go; no tools beyond the
# toolchain are required.

GO ?= go

.PHONY: all build vet lint lint-fix lint-baseline test race bench bench-smoke experiments examples serve-smoke store-smoke mutate-smoke clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Repo-specific invariants (context propagation, hot-path allocations,
# atomic-field hygiene, goroutine leaks, float equality, global rand,
# library panics, matrix dimensions, metric naming); see DESIGN.md
# "Static analysis & determinism policy".
lint:
	$(GO) run ./cmd/lan-lint ./...

# Format the tree, then lint with a per-analyzer tally — the loop for
# working a finding list down to zero.
lint-fix:
	gofmt -w .
	$(GO) run ./cmd/lan-lint -counts ./...

# Golden-file check: lan-lint output must match the committed (empty)
# baseline in scripts/lint-baseline.txt.
lint-baseline:
	scripts/lint-baseline

test:
	$(GO) test ./...

# Race-detect the concurrent paths (sharded search, distance-table and
# ground-truth fan-outs) on the fast test subset.
race:
	$(GO) test -race -short ./...

# Micro-benchmarks (mat kernels, GED beam kernel, parallel vs sequential
# PG build, pool resize, root package ablations) plus one end-to-end run
# of the repository benchmark's syn-mmap workload (BENCHMARK.json,
# lanbench/README.md), which prints its metrics as JSON on stdout.
bench:
	$(GO) test -bench=. -benchmem -run='^$$' ./internal/mat ./internal/pg ./ged .
	bash lanbench/run.sh --workload syn-mmap --seed 1 --seconds 16 --trace 0

# Benchmark smoke for CI: every benchmark runs exactly once so a
# regression that panics or deadlocks is caught without paying for
# statistically meaningful timings.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./internal/mat ./internal/pg ./ged

# Regenerate the paper's evaluation on the dataset simulators.
experiments:
	$(GO) run ./cmd/lan-bench -exp all

# Boot lan-serve on a tiny generated database, hit /search and /metrics,
# and verify it drains within 5s of SIGTERM.
serve-smoke:
	$(GO) run ./scripts/serve-smoke

# Storage-tier smoke: save a binary snapshot, serve it with -store mmap
# and -store ram, and require bit-identical /search answers from both
# (plus the -writable refusal on the read-only mmap tier).
store-smoke:
	$(GO) run ./scripts/store-smoke

# Churn soak for the mutable index: concurrent searches, streaming
# inserts and deletes against one index (with a pinned snapshot checked
# for bit-identity throughout), then lan-serve's -writable endpoints,
# epoch-keyed cache invalidation and write metrics over HTTP.
mutate-smoke:
	$(GO) run ./scripts/mutate-smoke

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/cheminformatics
	$(GO) run ./examples/codeclone
	$(GO) run ./examples/scalability

clean:
	$(GO) clean ./...
