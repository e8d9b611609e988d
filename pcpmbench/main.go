// Command pcpmbench is the repository benchmark: one command that runs one
// workload against the PCPM PageRank system, checks its outputs, and prints
// every metric by name with its unit. The last line of standard output is a
// JSON object {"correct", "attempted", "failed", "metrics"}.
//
//	bash pcpmbench/run.sh --workload kernel-rmat21 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end metrics, the same three on
// every workload, measured with tracing off. With --trace 1 the run runs every workload with spans
// recorded around each call into a layer, and reports the per-layer metrics
// plus the tracing overhead, taken on the named workload by alternating
// traced and untraced operations.
// See README.md in this directory for the workloads and the metric map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one workload phase produced.
type outcome struct {
	e2e       map[string]metric
	layer     map[string]metric
	notes     []string // human-readable report lines (sample counts, checks)
	attempted int
	failed    int
	checkErr  error // first failed output check; fails the run
	sizes     sizes // regime figures for the header
	// byTrace holds the op_ms samples of the overhead phase,
	// [0] from untraced operations and [1] from traced ones.
	byTrace [2][]float64
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]metric{}, layer: map[string]metric{}}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// sample files one sample of op_ms, taken by operation i, by
// whether that operation was traced. Only the overhead phase keeps them.
func (o *outcome) sample(e *env, i int, v float64) {
	if !e.overhead {
		return
	}
	k := 0
	if e.opTracer(i) != nil {
		k = 1
	}
	o.byTrace[k] = append(o.byTrace[k], v)
}

func (o *outcome) fail(err error) {
	if o.checkErr == nil {
		o.checkErr = err
	}
}

// env is the per-run context every workload reads.
type env struct {
	work     string // build/cache directory inside the checkout
	seed     uint64
	window   time.Duration // measuring time of one phase
	quick    bool          // one set-up per phase, for traced runs
	tr       *tracer       // nil when untraced
	overhead bool          // alternate tracing of the primary operations
	shardBin string
}

// opTracer is the tracer for the i-th primary operation (a solve, a read or
// a write). In the overhead phase the operations go untraced, traced,
// traced, untraced, and so on, so a drift in the host's speed falls on both
// sides alike.
func (e *env) opTracer(i int) *tracer {
	if e.overhead && (i%4 == 0 || i%4 == 3) {
		return nil
	}
	return e.tr
}

// minOps is how many primary operations a phase makes at least: one, or
// two untraced and two traced in the overhead phase.
func (e *env) minOps() int {
	if e.overhead {
		return 4
	}
	return 1
}

// e2eMetrics are the end-to-end metrics every workload reports: set-up time,
// the time of one primary operation (a solve, a PPR query or an edge-delta
// write) and peak memory.
var e2eMetrics = []string{"setup_s", "op_ms", "rss_mb"}

type workload struct {
	name string
	run  func(*env) (*outcome, error)
}

var workloads = []workload{
	{"kernel-rmat21", runKernel},
	{"serve-ppr", runServePPR},
	{"serve-writes", runServeWrites},
	{"shard-rmat21", runShard},
}

// setups is how many set-ups a phase makes; setup_s is their median.
func (e *env) setups(n int) int {
	if e.quick {
		return 1
	}
	return n
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	var (
		name     = flag.String("workload", "", "workload name")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 20, "measuring time of one run, seconds")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		work     = flag.String("work", ".bench_build", "directory for cached inputs, traces and run state")
		shardBin = flag.String("shard-bin", "", "pcpm-shard binary started as fleet workers")
		prep     = flag.String("prep", "", "internal: generate one cached input by key and exit")
	)
	flag.Parse()
	if *prep != "" {
		if err := prepInput(*work, *prep); err != nil {
			fmt.Fprintln(os.Stderr, "pcpmbench: prep:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*name, *seed, *seconds, *trace == 1, *work, *shardBin); err != nil {
		fmt.Fprintln(os.Stderr, "pcpmbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds int, traced bool, work, shardBin string) error {
	w, ok := lookup(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	work, err := filepath.Abs(work)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	base := env{work: work, seed: seed, window: time.Duration(seconds) * time.Second, shardBin: shardBin}
	reg := readRegime()

	if !traced {
		o, err := w.run(&base)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		for _, k := range e2eMetrics {
			if _, ok := o.e2e[k]; !ok {
				return fmt.Errorf("%s: reported no %s", name, k)
			}
		}
		printReport(reg, name, []*outcome{o}, nil)
		return emit(o.checkErr == nil, o.attempted, o.failed, o.e2e, o.checkErr)
	}

	// Traced run: every workload runs once with spans recorded, so one run
	// reports every layer. The named workload runs for the whole window and
	// alternates tracing of its primary operations, which gives the tracing
	// overhead; the others run a quarter window each, with one set-up, to
	// fit into one run's time.
	tr := newTracer()
	layer := map[string]metric{}
	var outs []*outcome
	attempted, failed := 0, 0
	var checkErr error
	var mine *outcome
	for _, x := range workloads {
		tenv := base
		tenv.quick = true
		tenv.tr = tr
		if x.name == name {
			tenv.overhead = true
		} else {
			tenv.window = base.window / 4
		}
		freeMemory()
		o, err := x.run(&tenv)
		if err != nil {
			return fmt.Errorf("%s traced: %w", x.name, err)
		}
		if x.name == name {
			mine = o
		}
		outs = append(outs, o)
		for k, v := range o.layer {
			layer[k] = v
		}
		attempted += o.attempted
		failed += o.failed
		if checkErr == nil && o.checkErr != nil {
			checkErr = fmt.Errorf("%s: %w", x.name, o.checkErr)
		}
	}
	pct, summary := traceOverhead(mine)
	layer["bench.trace_overhead_pct"] = metric{pct, "%"}
	self := tr.selfTimes()
	path := filepath.Join(work, "traces", fmt.Sprintf("%s-seed%d.json", name, seed))
	if err := tr.write(path, self); err != nil {
		return err
	}
	printReport(reg, name, outs, self)
	fmt.Printf("# trace: %d spans written to %s\n", tr.count(), path)
	fmt.Printf("# trace overhead on %s op_ms: %s\n", name, summary)
	return emit(checkErr == nil, attempted, failed, layer, checkErr)
}

// traceOverhead compares the traced and untraced samples of the overhead
// phase: the difference of their medians as a share of the untraced median.
// It is resolved only when it is wider than the samples' own spread, the
// larger quartile spread of the two sides as a share of its median.
func traceOverhead(o *outcome) (float64, string) {
	u, t := o.byTrace[0], o.byTrace[1]
	if len(u) == 0 || len(t) == 0 {
		return 0, fmt.Sprintf("unresolved: %d traced and %d untraced operations", len(t), len(u))
	}
	mu, mt := median(u), median(t)
	pct := 100 * (mt - mu) / mu
	spread := 0.0
	for _, xs := range o.byTrace {
		spread = max(spread, 100*(quantile(xs, 0.75)-quantile(xs, 0.25))/median(xs))
	}
	verdict := "resolved"
	if math.Abs(pct) <= spread {
		verdict = "unresolved: within the spread"
	}
	return pct, fmt.Sprintf("%+.2f%% (traced median %.6g over %d operations, untraced %.6g over %d, alternating; spread %.1f%%, %s)",
		pct, mt, len(t), mu, len(u), spread, verdict)
}

// emit prints the result line. A failed output check still prints it, with
// correct=false, and then fails the process.
func emit(correct bool, attempted, failed int, metrics map[string]metric, checkErr error) error {
	if attempted < 1 {
		return errors.New("no operation was attempted")
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, attempted, failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if checkErr != nil {
		return fmt.Errorf("output check failed: %w", checkErr)
	}
	return nil
}

func printReport(reg regime, name string, outs []*outcome, self map[string]float64) {
	reg.print()
	for i, o := range outs {
		label := name
		if len(outs) > 1 {
			label = fmt.Sprintf("%s (phase %d)", o.sizes.workload, i)
		}
		fmt.Printf("# workload %s: attempted %d, failed %d\n", label, o.attempted, o.failed)
		o.sizes.print(reg)
		for _, n := range o.notes {
			fmt.Printf("#   %s\n", n)
		}
		printMetrics(o.e2e)
		printMetrics(o.layer)
	}
	if self != nil {
		fmt.Println("# self time by layer (span time not covered by child spans):")
		for _, k := range sortedKeys(self) {
			fmt.Printf("#   %-8s %10.3f s\n", k, self[k])
		}
	}
}

func printMetrics(m map[string]metric) {
	for _, k := range sortedKeys(m) {
		fmt.Printf("#   %-36s %14.6f %s\n", k, m[k].Value, m[k].Unit)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// freeMemory returns the previous phase's heap to the OS so one phase's
// garbage does not inflate the next phase's peak.
func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}
