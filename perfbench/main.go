// Command perfbench is the repository's benchmark: it runs one named
// workload in-process against the program's Go API, checks the program's
// outputs against independent references, and prints one JSON result line.
//
//	perfbench --workload table1-steady --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// the run records spans around its calls into each layer and the result
// carries the per-layer metrics instead (see README.md).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// smoke selects the tiny size of every workload: fewer programs,
	// short runs, all output checks still on.
	smoke bool
	// root is the repository checkout the inputs are read from.
	root string
	// work is a private working directory inside the checkout (the
	// serve-mixed stores); removed when the run ends.
	work string
	// host collects the run's probe times (see probe.go).
	host hostSpeed
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupRuns is how many times each run sets its workload up; setup_s is
// the median.
const setupRuns = 5

// endToEnd lists the metrics of an untraced run, on every workload.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"go_allocs_per_op", "allocs"},
	{"go_bytes_per_op", "B"},
	{"live_heap_mb", "MB"},
}

// outcome is what a workload hands back to main.
type outcome struct {
	attempted, failed int64
	// mismatch is set when an output check found a wrong result (the
	// operation also counts in failed).
	mismatch bool
	e2e      map[string]float64
	layer    map[string]float64
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// fail records one failed operation with its reason on stderr.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAILED: "+format+"\n", args...)
}

// wrong records a failed operation whose output was checked and found
// wrong.
func (o *outcome) wrong(format string, args ...any) {
	o.mismatch = true
	o.fail(format, args...)
}

var workloads = map[string]func(*config) (*outcome, error){
	"table1-steady": runSteady,
	"compile-cold":  runCompileCold,
	"serve-mixed":   runServeMixed,
}

func main() {
	var c config
	var seconds, trace int
	flag.StringVar(&c.workload, "workload", "", "workload name: table1-steady, compile-cold, serve-mixed")
	flag.Int64Var(&c.seed, "seed", 1, "input seed")
	flag.IntVar(&seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.BoolVar(&c.smoke, "smoke", false, "tiny size of the workload (for tests)")
	flag.Parse()
	c.seconds = time.Duration(seconds) * time.Second
	c.trace = trace == 1
	out, err := run(&c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// run executes the configured workload and shapes its result.
func run(c *config) (*result, error) {
	fn, ok := workloads[c.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", c.workload)
	}
	if c.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	c.root = root
	c.work = filepath.Join(root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(c.work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(c.work)
	// The benchmark's own goroutines never exceed two busy ones; pin the
	// scheduler to the same so hosts with more CPUs measure the same shape.
	runtime.GOMAXPROCS(2)
	out, err := fn(c)
	if err != nil {
		return nil, err
	}
	res := &result{
		Correct:   !out.mismatch,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	if res.Attempted < 1 {
		return nil, errors.New("no operation attempted")
	}
	if c.trace {
		for _, m := range perLayer() {
			res.Metrics[m.name] = metric{out.layer[m.name], m.unit}
		}
		return res, nil
	}
	fmt.Fprintf(os.Stderr, "perfbench: host probe median %.1f us (reference %.1f us)\n",
		median(c.host.samples)/1e3, float64(probeRef)/1e3)
	out.e2e["setup_s"] *= c.host.runScale()
	for _, m := range endToEnd {
		v, ok := out.e2e[m.name]
		if !ok {
			return nil, fmt.Errorf("workload did not measure %s", m.name)
		}
		res.Metrics[m.name] = metric{v, m.unit}
	}
	return res, nil
}

// findRoot walks up from the working directory to the repository root (the
// directory holding examples/ and internal/).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if st, err := os.Stat(filepath.Join(dir, "examples", "callheavy.mj")); err == nil && !st.IsDir() {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("repository root (examples/callheavy.mj) not found above the working directory")
		}
		dir = parent
	}
}

// median returns the middle of xs (mean of the middle two for even n).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentileUS returns the q-quantile (0..1) of sorted nanosecond samples
// in microseconds, by the nearest-rank rule.
func percentileUS(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i]) / 1e3
}

// latencies fills the shared latency metrics from per-operation samples.
func latencies(e2e map[string]float64, ns []int64) {
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	e2e["latency_p50_us"] = percentileUS(s, 0.50)
	e2e["latency_p99_us"] = percentileUS(s, 0.99)
}

// setupTimes runs setup n times and returns the median of the CPU time
// each took on its goroutine's thread, in seconds (run scales it), together
// with the last setup's product. Earlier products are dropped before the
// next setup starts so they cannot inflate its heap. The thread's time
// leaves out the collector's background workers, which on an otherwise
// idle CPU soak up however much of it a cycle happens to overlap.
func setupTimes[T any](n int, setup func() (T, error)) (float64, T, error) {
	var last T
	var secs []float64
	for i := 0; i < n; i++ {
		var zero T
		last = zero
		runtime.GC()
		runtime.LockOSThread()
		start := threadCPU()
		v, err := setup()
		cpu := (threadCPU() - start).Seconds()
		runtime.UnlockOSThread()
		if err != nil {
			return 0, last, err
		}
		last = v
		secs = append(secs, cpu)
	}
	return median(secs), last, nil
}

// memSample is a point-in-time reading of the Go heap counters.
type memSample struct {
	mallocs, bytes uint64
	numGC          uint32
}

// exclude runs f and adds the Go heap allocations it made to m, so they
// can be taken out of a measurement that f interrupts.
func (m *memSample) exclude(f func()) {
	a := readMem()
	f()
	b := readMem()
	m.mallocs += b.mallocs - a.mallocs
	m.bytes += b.bytes - a.bytes
}

// minus returns m less the allocations in skip.
func (m memSample) minus(skip memSample) memSample {
	m.mallocs -= skip.mallocs
	m.bytes -= skip.bytes
	return m
}

func readMem() memSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSample{ms.Mallocs, ms.TotalAlloc, ms.NumGC}
}

// goAllocs fills the Go-heap allocation metrics for ops operations between
// two samples.
func goAllocs(out *outcome, before, after memSample, ops int64) {
	out.e2e["go_allocs_per_op"] = float64(after.mallocs-before.mallocs) / float64(ops)
	out.e2e["go_bytes_per_op"] = float64(after.bytes-before.bytes) / float64(ops)
	out.layer["go.gc_cycles"] = float64(after.numGC - before.numGC)
}

// heapInUse returns the Go heap in use after a forced collection, in MB.
func heapInUse() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// liveHeap measures the heap in use. Workloads call it once their own
// sample buffers are unreachable, so it reads the program's state, not the
// benchmark's.
func liveHeap(out *outcome) { out.e2e["live_heap_mb"] = heapInUse() }

// split divides a traced run's timed phase between untraced and traced
// rounds. They alternate, so drift over the run (a growing store, a warmer
// heap) falls on both sides alike and the difference is the tracing
// overhead. An untraced run has no tracer and every round is untraced.
type split struct {
	ops [2]int64
	cpu [2]time.Duration
}

// tracer returns the tracer for round: tr on odd rounds, nil otherwise.
func (s *split) tracer(tr *tracer, round int) *tracer {
	if round%2 == 1 {
		return tr
	}
	return nil
}

// add counts a round of ops that took cpu (in reference-host time), traced
// when tr is non-nil.
func (s *split) add(tr *tracer, ops int64, cpu time.Duration) {
	i := 0
	if tr != nil {
		i = 1
	}
	s.ops[i] += ops
	s.cpu[i] += cpu
}

// total returns the operations and the CPU time of all rounds.
func (s *split) total() (int64, time.Duration) {
	return s.ops[0] + s.ops[1], s.cpu[0] + s.cpu[1]
}

// report sets the tracing-overhead metrics.
func (s *split) report(out *outcome) {
	untraced := float64(s.ops[0]) / s.cpu[0].Seconds()
	traced := float64(s.ops[1]) / s.cpu[1].Seconds()
	out.layer["trace.untraced_ops_per_s"] = untraced
	out.layer["trace.traced_ops_per_s"] = traced
	out.layer["trace.overhead_pct"] = (untraced/traced - 1) * 100
}

// minRounds is the least number of rounds a timed phase runs: a traced run
// needs an untraced and a traced one.
func (c *config) minRounds() int {
	if c.trace {
		return 2
	}
	return 1
}
