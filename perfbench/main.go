// Command perfbench is the repository's end-to-end benchmark. It drives
// four workloads through the program's public entry points — the
// serving gateway, ServingTier, Platform + SentimentMiner, and the
// wfrouter/wfnode binaries — checks every output against a computation
// made apart from the program, and prints the result as one JSON line:
//
//	perfbench -bin <dir with wfnode, wfrouter> -work <scratch dir> \
//	    --workload served-ingest --seed 1 --seconds 12 --trace 0
//
// With --trace 0 the JSON line holds the gated end-to-end metrics; with
// --trace 1 it holds the per-layer metrics of a traced run. --steady N
// runs the named workload (or all of them) N times as child processes
// with seeds 1..N and prints each metric's median, quartiles and
// relative spread. See README.md for the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Workload names, in the order BENCHMARK.json lists them.
var workloads = []string{"served-ingest", "dashboard-reads", "batch-mine", "routed-w2"}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	bin      string // directory holding the wfnode and wfrouter binaries
	work     string // scratch directory for this run's files
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// opCount is the attempts and failures of one operation type.
type opCount struct {
	attempted, failed int
	// fault names the program fault behind the failures, if known.
	fault string
}

// report is what a workload hands back to main.
type report struct {
	// e2e are the gated end-to-end metrics (untraced runs).
	e2e map[string]metric
	// named are the workload's figures under their descriptive names,
	// printed for readers; they are not part of the JSON line.
	named map[string]metric
	// layers are the per-layer metrics (traced runs).
	layers map[string]metric
	ops    map[string]*opCount
	// errs are correctness failures: any one makes the run incorrect.
	errs []string
	// notes are free-form lines printed before the result.
	notes []string
}

func newReport() *report {
	return &report{
		e2e: map[string]metric{}, named: map[string]metric{},
		layers: map[string]metric{}, ops: map[string]*opCount{},
	}
}

// op returns the counter of one operation type.
func (r *report) op(name string) *opCount {
	c := r.ops[name]
	if c == nil {
		c = &opCount{}
		r.ops[name] = c
	}
	return c
}

// fail records a correctness failure.
func (r *report) fail(format string, args ...any) {
	if len(r.errs) < 20 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// check records err as a correctness failure when it is non-nil.
func (r *report) check(what string, err error) {
	if err != nil {
		r.fail("%s: %v", what, err)
	}
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var seconds int
	var trace, steady int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloads, ", ")+" (with --steady: all when empty)")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.IntVar(&seconds, "seconds", 20, "how long one run measures")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&cfg.bin, "bin", "", "directory holding the wfnode and wfrouter binaries")
	flag.StringVar(&cfg.work, "work", "", "scratch directory (default: a directory under the current one)")
	flag.IntVar(&steady, "steady", 0, "run each workload this many times with seeds 1..N and print the spread of every metric")
	flag.Parse()
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1

	if steady > 0 {
		if err := runSteady(cfg, seconds, trace, steady); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := map[string]func(config) (*report, error){
		"served-ingest":   runServedIngest,
		"dashboard-reads": runDashboard,
		"batch-mine":      runBatchMine,
		"routed-w2":       runRouted,
	}[cfg.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", cfg.workload, strings.Join(workloads, ", "))
		os.Exit(2)
	}
	if seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1")
		os.Exit(2)
	}
	if cfg.work == "" {
		cfg.work = ".perfbench-work"
	}
	dir, err := os.MkdirTemp(mustMkdir(cfg.work), cfg.workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg.work = dir
	rep, err := run(cfg)
	code := 1
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	} else {
		code = finish(cfg, rep)
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// mustMkdir creates dir (and parents) or exits.
func mustMkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return dir
	}
	return abs
}

// finish prints the human-readable lines and the JSON result line, and
// returns the exit code.
func finish(cfg config, rep *report) int {
	fmt.Printf("workload %s seed %d seconds %.0f trace %v\n", cfg.workload, cfg.seed, cfg.seconds.Seconds(), cfg.trace)
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	var names []string
	for n := range rep.ops {
		names = append(names, n)
	}
	sort.Strings(names)
	res := result{Correct: len(rep.errs) == 0}
	for _, n := range names {
		c := rep.ops[n]
		line := fmt.Sprintf("ops %-12s attempted %d failed %d", n, c.attempted, c.failed)
		if c.failed > 0 && c.fault != "" {
			line += " (" + c.fault + ")"
		}
		fmt.Println(line)
		res.Attempted += c.attempted
		res.Failed += c.failed
	}
	printMetrics("metric", rep.named)
	if cfg.trace {
		printMetrics("layer", rep.layers)
		res.Metrics = rep.layers
	} else {
		printMetrics("e2e", rep.e2e)
		res.Metrics = rep.e2e
	}
	for _, e := range rep.errs {
		fmt.Println("INCORRECT:", e)
	}
	if res.Attempted < 1 {
		fmt.Println("INCORRECT: no operation attempted")
		res.Correct = false
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func printMetrics(prefix string, ms map[string]metric) {
	var names []string
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s %-44s %14.4f %s\n", prefix, n, ms[n].Value, ms[n].Unit)
	}
}
