// Command perfbench is the repository's benchmark. One invocation runs one
// workload for one seed as a single closed-loop client, checks the
// outputs, prints every metric with its unit, and ends with one JSON line:
//
//	bash perfbench/run.sh --workload discover --seed 1 --seconds 20 --trace 0
//
// The engines run single-threaded (Workers 1, GOMAXPROCS 1). With
// --trace 0 the JSON carries the end-to-end metrics, measured with
// every layer's stage stats off. With --trace 1 every other operation is
// traced: spans recorded around each call into a layer and the counters
// the layers expose, reported as per-layer metrics together with the
// traced-minus-untraced overhead. NOTES.md describes the workloads and the
// metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// outDir holds the traces and the restart snapshot, relative to the
// directory the benchmark runs in.
const outDir = ".bench_build/perfbench"

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	workers  int
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome. e2e holds the end-to-end metrics, layer the
// per-layer ones (filled only by a traced run), and figures the
// workload-specific numbers that are printed but not part of the JSON
// line.
type result struct {
	e2e, layer, figures map[string]metric
	attempted, failed   int
	problems            []string
}

func newResult() *result {
	return &result{e2e: map[string]metric{}, layer: map[string]metric{}, figures: map[string]metric{}}
}

// op counts one attempted operation, failed when err is non-nil.
func (r *result) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.problems = append(r.problems, err.Error())
	}
}

// check counts a failed correctness check as a failed operation: one of
// the operations attempted so far, or, when all of them already count as
// failed, one more.
func (r *result) check(ok bool, format string, args ...any) {
	if ok {
		return
	}
	if r.failed == r.attempted {
		r.attempted++
	}
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) errorRate() float64 {
	if r.attempted == 0 {
		return 1
	}
	return float64(r.failed) / float64(r.attempted)
}

var workloads = map[string]func(context.Context, config, *tracer) (*result, error){
	"discover": runDiscover,
	"ingest-mixed": func(ctx context.Context, c config, t *tracer) (*result, error) {
		return runIngest(ctx, c, t, mixedSpec)
	},
	"ingest-append": func(ctx context.Context, c config, t *tracer) (*result, error) {
		return runIngest(ctx, c, t, appendSpec)
	},
	"clean": runClean,
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		cfg   config
		secs  int
		trace int
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload: discover, ingest-mixed, ingest-append or clean")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&secs, "seconds", 20, "how long the measured loop runs")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.Parse()
	fn, ok := workloads[cfg.workload]
	if !ok || secs < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of discover, ingest-mixed, ingest-append, clean), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	cfg.seconds = time.Duration(secs) * time.Second
	cfg.trace = trace == 1
	// One thread runs the engines and the collector alike. On a machine of
	// a few shared cores a second thread measured the host's scheduler:
	// with Workers and GOMAXPROCS at 2 the same clean run varied by a
	// fifth from run to run, and its CPU time with it; on one thread it
	// varied by a few percent.
	runtime.GOMAXPROCS(1)
	cfg.workers = 1

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	res, err := fn(context.Background(), cfg, tr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if tr != nil {
		path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
		if err := tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write trace: %v\n", err)
			return 1
		}
		fmt.Printf("trace: %d spans in %s\n", len(tr.spans), path)
	}
	fmt.Printf("workload %s  seed %d  workers %d  GOMAXPROCS %d  num_cpu %d\n",
		cfg.workload, cfg.seed, cfg.workers, runtime.GOMAXPROCS(0), runtime.NumCPU())
	printMetrics("end-to-end", res.e2e)
	printMetrics("workload figures", res.figures)
	if cfg.trace {
		printMetrics("per-layer", res.layer)
	}
	fmt.Printf("error_rate %.6g ratio (%d failed of %d attempted)\n", res.errorRate(), res.failed, res.attempted)
	for _, p := range res.problems {
		fmt.Printf("FAILED: %s\n", p)
	}

	metrics := res.e2e
	if cfg.trace {
		metrics = res.layer
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if res.failed > 0 {
		return 1
	}
	return 0
}

func printMetrics(title string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("-- %s\n", title)
	for _, n := range names {
		fmt.Printf("%-28s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// liveHeapMB is the live heap once collections stop freeing anything. One
// collection is not enough: memory reachable only from a finalizer or
// freed by one stays until a later cycle, which left the reading 50%
// high on some runs. The caller keeps the engine reachable across the
// call.
func liveHeapMB() float64 {
	var st runtime.MemStats
	prev := uint64(0)
	for i := 0; i < 4; i++ {
		runtime.GC()
		runtime.ReadMemStats(&st)
		if i > 0 && st.HeapAlloc >= prev-prev/100 {
			break
		}
		prev = st.HeapAlloc
	}
	return float64(st.HeapAlloc) / (1 << 20)
}

func memStats() runtime.MemStats {
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return st
}
