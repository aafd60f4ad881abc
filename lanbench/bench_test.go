package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"github.com/lansearch/lan"
	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/lanserve"
)

// benchSpec is the part of ../BENCHMARK.json the smoke test checks
// against: every named metric and its unit.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c benchSpec
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// runTiny runs one shrunk workload and returns its exit code, its result
// line and the stamp line before it.
func runTiny(t *testing.T, workload string, trace string, h hooks) (int, result, map[string]stamp) {
	t.Helper()
	var out, errs bytes.Buffer
	code := run([]string{"-workload", workload, "-seed", "7", "-seconds", "1", "-trace", trace, "-tiny", "-workdir", t.TempDir()}, &out, &errs, h)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("%s: want a stamp and a result line, got %q (stderr %s)", workload, out.String(), errs.String())
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: result line: %v", workload, err)
	}
	var st map[string]stamp
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &st); err != nil {
		t.Fatalf("%s: stamp line: %v", workload, err)
	}
	if code != 0 {
		t.Logf("%s stderr:\n%s", workload, errs.String())
	}
	return code, res, st
}

// TestSmoke runs every workload at tiny size, untraced and traced, and
// checks that each prints every metric BENCHMARK.json names, with its
// unit, and a machine stamp.
func TestSmoke(t *testing.T) {
	c := loadBenchSpec(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(c.Workloads), len(workloads))
	}
	for _, w := range c.Workloads {
		for _, trace := range []string{"0", "1"} {
			code, res, st := runTiny(t, w.Name, trace, hooks{})
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%s: exit %d, result %+v", w.Name, trace, code, res)
			}
			s := st["stamp"]
			if s.Workload != w.Name || s.Seed != 7 || s.GOMAXPROCS < 1 || s.NProc < 1 || s.GoVersion == "" || s.CPUModel == "" || s.Commit == "" {
				t.Errorf("%s: incomplete stamp %+v", w.Name, s)
			}
			want := c.EndToEnd
			if trace == "1" {
				want = c.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%s: metric %s missing", w.Name, trace, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s trace=%s: metric %s has unit %q, BENCHMARK.json says %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				}
				if trace == "0" && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s reads %v", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// corrupt is a lanserve.Searcher that damages every answer of the index
// it wraps.
type corrupt struct {
	lanserve.Searcher
	damage func([]lan.Result) []lan.Result
}

func (c corrupt) SearchContext(ctx context.Context, q *graph.Graph, so lan.SearchOptions) ([]lan.Result, lan.Stats, error) {
	res, st, err := c.Searcher.SearchContext(ctx, q, so)
	if err == nil && len(res) > 0 {
		res = c.damage(append([]lan.Result(nil), res...))
	}
	return res, st, err
}

// TestWrongSearcherFails checks that the correctness checks catch a
// Searcher that drops or perturbs a result, on the closed-loop and the
// serving path alike.
func TestWrongSearcherFails(t *testing.T) {
	damages := map[string]func([]lan.Result) []lan.Result{
		"drop":    func(r []lan.Result) []lan.Result { return r[:len(r)-1] },
		"perturb": func(r []lan.Result) []lan.Result { r[0].Dist += 0.5; return r },
		"swap": func(r []lan.Result) []lan.Result {
			r[0], r[len(r)-1] = r[len(r)-1], r[0]
			return r
		},
	}
	for name, damage := range damages {
		for _, w := range []string{"syn-mmap", "serve-churn"} {
			h := hooks{wrap: func(s lanserve.Searcher) lanserve.Searcher { return corrupt{Searcher: s, damage: damage} }}
			code, res, _ := runTiny(t, w, "0", h)
			if code == 0 || res.Correct {
				t.Errorf("%s with a %s searcher: exit %d, correct %v; the checks must fail the run", w, name, code, res.Correct)
			}
		}
	}
}

// TestPinsRegenerate checks that the pinned query sets and ground truth
// regenerate byte for byte from their seed.
func TestPinsRegenerate(t *testing.T) {
	if testing.Short() {
		t.Skip("brute-forces the exact-GED ground truth")
	}
	for _, w := range pinnedWorkloads() {
		want, err := pins.ReadFile("testdata/" + w.pin)
		if err != nil {
			t.Fatal(err)
		}
		got, err := regeneratePin(w)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("testdata/%s does not regenerate byte for byte; rerun with -pin testdata if the generator changed on purpose", w.pin)
		}
	}
}
