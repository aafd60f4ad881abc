// Command lanbench is the LAN repository's benchmark. It runs one workload
// against the library's public surfaces — lan.Build, lan.Index.Search,
// SaveSnapshot/OpenSnapshot and an in-process lanserve.Server taking
// inserts and deletes — checks every answer, and prints one JSON result
// line. With -trace 1 it instead prints per-layer metrics, measured by
// wrappers around the calls it makes into each layer.
//
// Run it from the repository root through the wrapper script, which
// builds it first:
//
//	bash lanbench/run.sh --workload syn-mmap --seed 1 --seconds 16 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"

	"github.com/lansearch/lan/lanserve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, hooks{}))
}

// hooks are seams for the benchmark's own tests.
type hooks struct {
	// wrap, when set, interposes on every search the benchmark issues,
	// so a test can corrupt answers and watch the checks catch it.
	wrap func(lanserve.Searcher) lanserve.Searcher
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a run's metrics and correctness verdict.
type report struct {
	metrics   map[string]metric
	problems  []string
	attempted int
	failed    int
	log       io.Writer
}

func newReport(log io.Writer) *report {
	return &report{metrics: map[string]metric{}, log: log}
}

// set records a metric; non-finite values (an empty sample) record as 0.
func (r *report) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// fail records a correctness violation. Only the first few of a kind are
// printed; every one fails the run.
func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
	if len(r.problems) <= 20 {
		fmt.Fprintf(r.log, "lanbench: CHECK FAILED: %s\n", r.problems[len(r.problems)-1])
	}
}

// stamp identifies the machine and code a run measured.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      int    `json:"trace"`
	Seconds    int    `json:"seconds"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func newStamp(workload string, seed int64, trace, seconds int) stamp {
	return stamp{
		Workload: workload, Seed: seed, Trace: trace, Seconds: seconds,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
	}
}

// cpuModel reads the processor name from /proc/cpuinfo ("unknown" off
// Linux).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// commit returns the VCS revision the binary was built from, as the go
// tool stamps it when building inside a git checkout ("unknown" when the
// source tree is not a repository).
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// residentMB is the resident set size in MiB after a forced collection
// has returned freed memory to the OS: the steady footprint of what the
// process still holds.
func residentMB() float64 {
	runtime.GC()
	debug.FreeOSMemory()
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(v), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}

func run(args []string, stdout, stderr io.Writer, h hooks) int {
	fs := flag.NewFlagSet("lanbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed: query order, serve schedule, replay sample")
	seconds := fs.Int("seconds", 16, "measurement time in seconds")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	workdir := fs.String("workdir", ".bench_build/tmp", "scratch directory for snapshots")
	tiny := fs.Bool("tiny", false, "shrink every size (smoke tests)")
	pin := fs.String("pin", "", "regenerate the pinned query sets and ground truth into this directory and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *pin != "" {
		if err := writePins(*pin); err != nil {
			fmt.Fprintln(stderr, "lanbench:", err)
			return 1
		}
		return 0
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "lanbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "lanbench: -trace must be 0 or 1")
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(stderr, "lanbench: -seconds must be at least 1")
		return 2
	}
	if *tiny {
		w = w.shrunk()
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "lanbench:", err)
		return 1
	}

	st := newStamp(w.name, *seed, *trace, *seconds)
	line, err := json.Marshal(map[string]stamp{"stamp": st})
	if err != nil {
		fmt.Fprintln(stderr, "lanbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))

	rep := newReport(stderr)
	cfg := runConfig{seed: *seed, seconds: float64(*seconds), trace: *trace == 1, workdir: *workdir, hooks: h}
	if err := w.run(cfg, rep); err != nil {
		fmt.Fprintln(stderr, "lanbench:", err)
		return 1
	}
	if cfg.trace {
		rep.set("process.peak_rss_mb", "MB", peakRSSMB())
	}
	out := result{
		Correct:   len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	}
	if out.Attempted < 1 {
		out.Attempted = 1
		out.Correct = false
		fmt.Fprintln(stderr, "lanbench: no operation was attempted")
	}
	line, err = json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "lanbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		fmt.Fprintf(stderr, "lanbench: %d correctness check(s) failed\n", len(rep.problems))
		return 1
	}
	return 0
}

// runConfig is what every workload run receives.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	workdir string
	hooks   hooks
}

// searcher returns the search surface the benchmark drives: the index
// itself, or the test hook's wrapper around it.
func (c runConfig) searcher(s lanserve.Searcher) lanserve.Searcher {
	if c.hooks.wrap != nil {
		return c.hooks.wrap(s)
	}
	return s
}
