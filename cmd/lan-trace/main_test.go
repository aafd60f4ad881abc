package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/lansearch/lan/internal/obs"
)

// exportFixture writes n traces (with span trees) into a fresh segment
// directory and returns it.
func exportFixture(t *testing.T, n int) string {
	t.Helper()
	dir := t.TempDir()
	exp, err := obs.NewExporter(obs.ExportConfig{Dir: dir, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		tr := obs.NewTrace(fmt.Sprintf("q%02d", i))
		tr.SetConfig("lan", "lan", 5, 10)
		tr.SetEntry(3)
		tr.Step(3, 4.0, 10, 6, 4.0, 6)
		tr.Step(9, 2.0, 8, 2, 2.0, 8)
		tr.Gamma(2)
		init := tr.StartSpan("initial")
		tr.RecordSpan("embed", time.Now(), 200*time.Microsecond, 0, 1)
		tr.EndSpan(init, 4)
		routing := tr.StartSpan("routing")
		tr.RecordSpan("store_fetch", time.Now(), 50*time.Microsecond, 0, 6)
		tr.EndSpan(routing, 4)
		tr.Finalize(8, 5, time.Duration(i+1)*time.Millisecond)
		exp.Submit(tr)
	}
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestReadFileRoundTrip pins that the CLI's reader hands back every span
// field the exporter wrote — the offline analyzer must see exactly what
// the query path recorded.
func TestReadFileRoundTrip(t *testing.T) {
	dir := exportFixture(t, 1)
	names, err := filepath.Glob(filepath.Join(dir, "traces-*.jsonl"))
	if err != nil || len(names) != 1 {
		t.Fatalf("segments: %v, %v", names, err)
	}
	var got []*obs.Trace
	stats, err := readFile(names[0], func(tr *obs.Trace) error { got = append(got, tr); return nil })
	if err != nil || stats.Traces != 1 {
		t.Fatalf("readFile: %+v, %v", stats, err)
	}
	tr := got[0]
	if tr.QueryID != "q00" || tr.K != 5 || tr.Entry != 3 || len(tr.Steps) != 2 || len(tr.Gammas) != 1 {
		t.Fatalf("trace fields lost: %+v", tr)
	}
	if len(tr.Spans) != 2 {
		t.Fatalf("span forest lost: %+v", tr.Spans)
	}
	init, routing := tr.Spans[0], tr.Spans[1]
	if init.Name != "initial" || init.NDC != 4 || len(init.Children) != 1 || init.Children[0].Name != "embed" || init.Children[0].US != 200 || init.Children[0].N != 1 {
		t.Errorf("initial span lost fields: %+v children %+v", init, init.Children)
	}
	if routing.Name != "routing" || len(routing.Children) != 1 || routing.Children[0].Name != "store_fetch" || routing.Children[0].N != 6 {
		t.Errorf("routing span lost fields: %+v children %+v", routing, routing.Children)
	}
}

// TestReadFileBareJSONL reads the lan-search -trace format: trace JSON
// lines with no segment header.
func TestReadFileBareJSONL(t *testing.T) {
	tr := obs.NewTrace("bare")
	tr.Step(1, 2.0, 3, 2, 2.0, 3)
	tr.Finalize(3, 1, time.Millisecond)
	data, err := tr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "samples.jsonl")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	var got []*obs.Trace
	stats, err := readFile(path, func(tr *obs.Trace) error { got = append(got, tr); return nil })
	if err != nil || stats.Traces != 1 || got[0].QueryID != "bare" {
		t.Fatalf("bare replay: %+v, %v, %v", stats, got, err)
	}
}

// TestSummarize pins the analysis output on a known fixture: counts,
// per-stage lines, distributions and the slowest span tree.
func TestSummarize(t *testing.T) {
	dir := exportFixture(t, 4)
	var traces []*obs.Trace
	stats, err := obs.ReadSegments(dir, func(tr *obs.Trace) error { traces = append(traces, tr); return nil })
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := summarize(&sb, traces, stats, 2); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"traces: 4  segments: 1  truncated tails skipped: 0",
		"total:   us p50=2000",    // totals 1..4ms, nearest-rank p50 = 2ms
		"ndc p50=8",               // every fixture trace finalizes NDC=8
		"gammas:  steps p50=1",    // one γ per trace
		"opened/ranked: p50=0.44", // (6+2)/(10+8)
		"initial",                 // stage table rows
		"routing",
		"embed",
		"store_fetch",
		"batch_total=24", // 4 store_fetch leaves × n=6
		"slowest 2:",
		"q03  total=4000us  ndc=8  steps=2  results=5", // slowest first
		"store_fetch", // span tree includes leaves
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q\n%s", want, out)
		}
	}
	// The slowest section lists q03 before q02.
	if strings.Index(out, "q03") > strings.Index(out, "q02") || !strings.Contains(out, "q02") {
		t.Errorf("slowest traces not ordered by total time:\n%s", out)
	}
}

// TestSummarizeEmpty keeps the no-traces path quiet and error-free.
func TestSummarizeEmpty(t *testing.T) {
	var sb strings.Builder
	if err := summarize(&sb, nil, obs.ReplayStats{}, 3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "traces: 0") {
		t.Errorf("empty summary: %q", sb.String())
	}
}
