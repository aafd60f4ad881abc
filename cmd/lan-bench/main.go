// Command lan-bench regenerates the paper's tables and figures on the
// synthetic dataset simulators.
//
// Usage:
//
//	lan-bench -exp fig5 -scale 0.01 -k 10
//	lan-bench -exp all
//
// Valid experiment ids: tab1, fig5..fig12, scal (storage-tier
// scalability sweep: RAM vs mmap vs quantized snapshots), all.
//
// By default the query workloads come from the pinned per-dataset query
// sets in testdata/bench_queries.json, so recall and NDC columns are
// comparable across commits; -queryset points at a different set, and an
// explicit -queries (or -queryset off) samples a fresh workload instead.
//
// lan-bench prints text rows only and writes no file. The repository's
// performance benchmark is the separate lanbench module (see
// BENCHMARK.json and lanbench/README.md); bare routing-trace JSON lines
// come from lan-search -trace.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"github.com/lansearch/lan/ged"
	"github.com/lansearch/lan/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lan-bench: ")
	p := experiments.DefaultProtocol()
	var (
		exp      = flag.String("exp", "all", "experiment id: "+strings.Join(experiments.Names(), ", "))
		beams    = flag.String("beams", "", "comma-separated beam sizes (default from protocol)")
		budget   = flag.Int("exact-budget", 150, "A* expansion budget of the query GED ensemble (0 = approximations only)")
		data     = flag.String("datasets", "", "comma-separated dataset filter (aids,linux,pubchem,syn; default all)")
		queryset = flag.String("queryset", "testdata/bench_queries.json", `pinned per-dataset query sets ("off" samples fresh; explicit -queries also samples fresh)`)
	)
	flag.Float64Var(&p.Scale, "scale", p.Scale, "dataset scale relative to Table I")
	flag.IntVar(&p.Queries, "queries", p.Queries, "query workload size")
	flag.IntVar(&p.K, "k", p.K, "answers per query")
	flag.IntVar(&p.Dim, "dim", p.Dim, "embedding dimension")
	flag.IntVar(&p.TrainEpochs, "epochs", p.TrainEpochs, "training epochs")
	flag.IntVar(&p.Workers, "workers", p.Workers, "index-build worker goroutines (0 = NumCPU; results are identical for every setting)")
	flag.Int64Var(&p.Seed, "seed", p.Seed, "seed")
	flag.Parse()

	if *beams != "" {
		p.Beams = nil
		for _, f := range strings.Split(*beams, ",") {
			b, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || b <= 0 {
				log.Fatalf("bad -beams entry %q", f)
			}
			p.Beams = append(p.Beams, b)
		}
	}
	p.QueryMetric = ged.Ensemble{ExactBudget: *budget, BeamWidth: 4}
	// Pinned query sets regenerate the same workload run after run, which
	// is what makes the printed rows comparable across commits. An explicit
	// -queries asks for a different workload size, so it falls back to
	// fresh sampling (the pinned sets have a fixed size).
	queriesFlagSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "queries" {
			queriesFlagSet = true
		}
	})
	if *queryset != "off" && !queriesFlagSet {
		if buf, err := os.ReadFile(*queryset); err == nil {
			if err := json.Unmarshal(buf, &p.QuerySets); err != nil {
				log.Fatalf("bad query set %s: %v", *queryset, err)
			}
		} else if *queryset != "testdata/bench_queries.json" {
			// The default path is best-effort (absent outside the repo
			// checkout); an explicit one must exist.
			log.Fatalf("-queryset %s: %v", *queryset, err)
		}
	}
	if *data != "" {
		for _, d := range strings.Split(*data, ",") {
			p.Datasets = append(p.Datasets, strings.TrimSpace(d))
		}
	}

	fmt.Printf("protocol: scale=%g queries=%d k=%d beams=%v dim=%d epochs=%d seed=%d\n\n",
		p.Scale, p.Queries, p.K, p.Beams, p.Dim, p.TrainEpochs, p.Seed)
	if err := experiments.Run(os.Stdout, *exp, p); err != nil {
		log.Fatal(err)
	}
}
