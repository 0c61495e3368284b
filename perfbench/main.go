// Command perfbench is heisendump's end-to-end reproduction benchmark.
// It drives the program only through its public surface — the
// heisendump Session API in-process, and heisend's HTTP API served by
// internal/server on a loopback listener — and reports what a user of
// each surface sees, per workload:
//
//	corpus-triage  thousands of distinct generated programs, each
//	               reproduced cold (front end plus a short search)
//	deep-search    the 15 curated bugs under the paper's three Table 4
//	               search modes, over cached programs (search-bound)
//	service-mix    heisend with a bulk tenant and an interactive
//	               tenant over two loopback connections
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload corpus-triage --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload deep-search --seed 1 --trace 1   # per-layer spans
//	bash perfbench/run.sh --workload all --seed 1                      # every workload
//	bash perfbench/run.sh --workload service-mix --spread 10           # run-to-run spread
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics (the end-to-end metrics with --trace
// 0, the per-layer metrics with --trace 1). See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one run's settings.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	out     string // directory for trace files
}

// inputSeed is the seed the workloads derive their program seeds
// from: --seed reduced below 10⁹, so that every derived program seed
// fits an int64.
func (c config) inputSeed() int64 { return c.seed % 1_000_000_000 }

func (c config) duration() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// more reports whether the timed phase that m meters, holding samples
// request-to-report times, starts another round: until its time is up,
// and past that, for at most twice as long again, while a p99 would
// not yet have minTail samples beyond it or the peak resident set has
// not yet been read.
func (c config) more(m *meter, samples int) bool {
	el := time.Since(m.start.wall)
	if el < c.duration() {
		return true
	}
	return (samples < 100*minTail || !m.rssRead()) && el < 3*c.duration()
}

// workload runs one workload: set-up, the timed phase, and the checks.
type workload struct {
	name string
	run  func(context.Context, config) (*outcome, error)
}

var workloads = []workload{
	{"corpus-triage", runTriage},
	{"deep-search", runDeep},
	{"service-mix", runService},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// A run sets up at least minSetups times, and goes on setting up until
// its set-ups have taken minSetupTime in all; setup_s is their median.
// The time floor spreads the set-ups over a stretch of the host's
// varying speed, as the timed phase is spread over --seconds.
const (
	minSetups    = 9
	minSetupTime = 4 * time.Second
)

// procs is the benchmark's GOMAXPROCS. The reference machine gives it
// two vCPUs of a shared host. A process that keeps both busy (a search
// pool of two, two heisend job workers, or one worker next to the
// garbage collector and the HTTP handlers) measures how much of the
// host its neighbours leave free: under one competing busy loop, the
// two-worker deep-search lost 37 % of its reproductions per second and
// service-mix 36 %, and in two sets of ten runs their rates and
// latencies spread up to 0.6. On one P the goroutines of a run take
// turns on a single vCPU and leave the other to the host; under the
// same busy loop neither workload moved by more than its run-to-run
// noise. Concurrency (the job workers, the tenants, the garbage
// collector) is kept; parallelism is not.
const procs = 1

// outcome is what a workload measured and checked.
type outcome struct {
	setup     []time.Duration
	phase     phase
	windows   []phase // the phase cut into windows
	attempted int
	failed    int
	// broken counts failed checks that span operations, such as the
	// modes of a workload reproducing different failures; any makes
	// correct false.
	broken  int
	latency []float64 // request-to-report, ms
	analyze []float64 // Analyze call or /v1/analyze round trip, ms
	rss     float64   // peak resident set after a fixed count of reproductions, MiB

	// Traced runs only.
	rec    *recorder
	layers []layerMetric
}

// failOp counts one failed operation, logging the first few.
func (o *outcome) failOp(what string, err error) {
	o.failed++
	if o.failed <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: FAILED %s: %v\n", what, err)
	}
}

func (o *outcome) breakRun(format string, args ...any) {
	o.broken++
	if o.broken <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// timeSetup runs fn as often as minSetups and minSetupTime ask and
// records each duration; the state of the last call is what the timed
// phase uses. Before each call, untimed, it runs reset (when not nil)
// to tear down what the previous call set up, and collects the
// garbage, so that every set-up starts from the same heap.
func timeSetup(o *outcome, reset func() error, fn func() error) error {
	var total time.Duration
	for i := 0; i < minSetups || total < minSetupTime; i++ {
		if reset != nil {
			if err := reset(); err != nil {
				return err
			}
		}
		runtime.GC()
		t0 := time.Now()
		if err := fn(); err != nil {
			return err
		}
		d := time.Since(t0)
		o.setup = append(o.setup, d)
		total += d
	}
	return nil
}

// metricOut is one reported metric.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// endToEnd turns an untraced outcome into the end-to-end metrics.
// repro_p99_ms is left out when fewer than minTail samples lie beyond
// it.
func endToEnd(o *outcome) map[string]metricOut {
	secs := make([]float64, len(o.setup))
	for i, d := range o.setup {
		secs[i] = d.Seconds()
	}
	m := map[string]metricOut{
		"setup_s":          {median(secs), "s"},
		"repro_per_s":      {windowMedian(o.phase, o.windows, phase.perSecond), "1/s"},
		"repro_p50_ms":     {median(o.latency), "ms"},
		"cpu_ms_per_repro": {windowMedian(o.phase, o.windows, phase.cpuMsPerRepro), "ms"},
		"peak_rss_mb":      {o.rss, "MiB"},
		"analyze_p50_ms":   {median(o.analyze), "ms"},
	}
	if p99, ok := tailPercentile(o.latency, 0.99); ok {
		m["repro_p99_ms"] = metricOut{p99, "ms"}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: repro_p99_ms not reported: %d samples leave fewer than %d beyond the 99th percentile\n",
			len(o.latency), minTail)
	}
	return m
}

func main() {
	var (
		name   = flag.String("workload", "", "workload: corpus-triage, deep-search, service-mix, or all")
		seed   = flag.Int64("seed", 1, "input seed (non-negative); the same seed gives the same inputs")
		secs   = flag.Float64("seconds", 20, "length of the timed phase; whole rounds run until it has passed")
		trace  = flag.Int("trace", 0, "1 = traced run: per-layer spans and metrics instead of end-to-end metrics")
		out    = flag.String("out", ".bench_build/perfbench", "directory for trace files")
		spread = flag.Int("spread", 0, "run the workload this many times (seeds seed, seed+1, ...) and print each end-to-end metric's quartiles")
	)
	flag.Parse()
	runtime.GOMAXPROCS(procs)
	if *seed < 0 || *secs <= 0 || (*trace != 0 && *trace != 1) || *spread < 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seed must be >= 0, --seconds > 0, --trace 0 or 1, --spread >= 0")
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *secs, trace: *trace == 1, out: *out}

	switch {
	case *name == "all":
		os.Exit(runAll(cfg))
	case workloadByName(*name) == nil:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	case *spread > 0:
		os.Exit(runSpread(*name, cfg, *spread))
	}
	res, err := runOne(context.Background(), *name, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// runOne runs one workload in this process and builds its result.
func runOne(ctx context.Context, name string, cfg config) (*result, error) {
	w := workloadByName(name)
	o, err := w.run(ctx, cfg)
	if err != nil {
		return nil, err
	}
	res := &result{
		Correct:   o.broken == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricOut{},
	}
	if !cfg.trace {
		res.Metrics = endToEnd(o)
		return res, nil
	}
	for _, m := range o.layers {
		res.Metrics[m.name] = metricOut{m.value, m.unit}
	}
	if err := writeTrace(cfg, name, o); err != nil {
		return nil, err
	}
	return res, nil
}

// writeTrace writes the traced run's spans as Chrome trace-event JSON
// and the per-layer table next to it, and prints the table.
func writeTrace(cfg config, name string, o *outcome) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d", name, cfg.seed))
	spans := o.rec.snapshot()
	f, err := os.Create(stem + ".json")
	if err != nil {
		return err
	}
	werr := writeChromeTrace(f, spans)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("writing trace: %w", werr)
	}
	table := fmt.Sprintf("%s, seed %d, %.1fs traced phase, %d reproductions, GOMAXPROCS %d\n\n%s",
		name, cfg.seed, o.phase.elapsed.Seconds(), o.phase.repros, runtime.GOMAXPROCS(0),
		layerTable(spans, o.phase.repros, o.layers))
	if err := os.WriteFile(stem+".txt", []byte(table), 0o644); err != nil {
		return err
	}
	fmt.Fprint(os.Stderr, table)
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s.json, table to %s.txt\n", len(spans), stem, stem)
	return nil
}

// child runs this binary once for one workload, as its own process,
// and returns the result from the last line of its output.
func child(name string, cfg config) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", fmt.Sprint(cfg.seed),
		"--seconds", fmt.Sprint(cfg.seconds), "--trace", trace, "--out", cfg.out)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("reading result: %w", err)
	}
	return &res, nil
}

// runAll runs every workload once, each in its own process, and
// prints every metric by name and unit with each run's attempted and
// failed counts. Its last line is one JSON object keyed
// "<workload>.<metric>".
func runAll(cfg config) int {
	all := &result{Correct: true, Metrics: map[string]metricOut{}}
	code := 0
	for _, w := range workloads {
		res, err := child(w.name, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			all.Correct = false
			code = 1
			continue
		}
		fmt.Printf("%s: correct=%v attempted=%d failed=%d\n", w.name, res.Correct, res.Attempted, res.Failed)
		for _, k := range sortedKeys(res.Metrics) {
			m := res.Metrics[k]
			fmt.Printf("  %-36s %14.6g %s\n", k, m.Value, m.Unit)
			all.Metrics[w.name+"."+k] = m
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
	}
	b, _ := json.Marshal(all) // plain maps and numbers always marshal
	fmt.Println(string(b))
	return code
}

// runSpread runs one workload n times, each in its own process with
// its own seed, and prints each metric's median and quartiles (as
// Python's statistics.quantiles(values, n=4) gives them) and the
// quartile distance as a share of the median.
func runSpread(name string, cfg config, n int) int {
	values := map[string][]float64{}
	units := map[string]string{}
	var shares []float64
	for i := 0; i < n; i++ {
		c := cfg
		c.seed = cfg.seed + int64(i)
		res, err := child(name, c)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", name, c.seed, err)
			return 1
		}
		fmt.Printf("seed %d: correct=%v attempted=%d failed=%d\n", c.seed, res.Correct, res.Attempted, res.Failed)
		shares = append(shares, float64(res.Failed)/float64(max(res.Attempted, 1)))
		for k, m := range res.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
	}
	fmt.Printf("\n%-36s %6s %14s %14s %14s %9s\n", "metric", "unit", "q1", "median", "q3", "iqr/med")
	for _, k := range sortedKeys(units) {
		q1, q2, q3 := quartiles(values[k])
		rel := 0.0
		if q2 != 0 {
			rel = (q3 - q1) / q2
		}
		fmt.Printf("%-36s %6s %14.6g %14.6g %14.6g %9.4f\n", k, units[k], q1, q2, q3, rel)
	}
	fmt.Printf("failed share per run: %v\n", shares)
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
