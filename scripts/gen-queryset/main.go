// Command gen-queryset regenerates testdata/bench_queries.json: the
// pinned per-dataset query workloads lan-bench runs by default, so that
// its recall and NDC rows stay comparable across commits. Each entry pins one query as (base graph id,
// edit-op count, private generator seed); dataset.FixedWorkload turns
// them back into the exact same query graphs run after run.
//
// Re-run after changing the default protocol's scale, seed or workload
// size — the sets are keyed by the generated dataset names, and base ids
// only fit the dataset size they were sampled against (lan-bench falls
// back to fresh sampling on mismatch).
//
// Usage:
//
//	go run ./scripts/gen-queryset [-out testdata/bench_queries.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"github.com/lansearch/lan/internal/dataset"
	"github.com/lansearch/lan/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gen-queryset: ")
	out := flag.String("out", "testdata/bench_queries.json", "output path")
	flag.Parse()

	p := experiments.DefaultProtocol()
	sets := make(map[string][]dataset.QuerySpec)
	for _, spec := range p.Specs() {
		// Workload samples with seed p.Seed+7; pinning from the same seed
		// keeps the base-id and op-count streams identical to what a fresh
		// sample at the default protocol would draw.
		sets[spec.Name] = dataset.SampleQuerySpecs(spec.Graphs, p.Queries, p.Seed+7)
		fmt.Printf("%-16s %d queries over %d graphs\n", spec.Name, p.Queries, spec.Graphs)
	}

	buf, err := json.MarshalIndent(sets, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
}
