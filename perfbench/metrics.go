package main

import (
	"fmt"
	"time"
)

// e2eUnits are the end-to-end metrics every workload reports with
// --trace 0, as listed under "end_to_end" in BENCHMARK.json.
var e2eUnits = map[string]string{
	"setup_s":      "s",
	"op_ms":        "ms",
	"live_heap_mb": "MB",
}

// layerUnits are the per-layer metrics every workload reports with
// --trace 1, as listed under "per_layer" in BENCHMARK.json. A layer the
// workload does not run reads 0. Per-operation figures are averaged over
// the traced operations.
var layerUnits = map[string]string{
	"op.p90_ms":                  "ms",
	"op.samples":                 "count",
	"relation.single_col_ms":     "ms",
	"cache.hit_ratio":            "ratio",
	"cache.misses":               "count",
	"cache.evictions":            "count",
	"cache.peak_mb":              "MB",
	"cache.entries_end":          "count",
	"repair_cache.entries_end":   "count",
	"repair_cache.evictions":     "count",
	"discover.partitions_ms":     "ms",
	"discover.build_ms":          "ms",
	"discover.verify_ms":         "ms",
	"discover.nodes":             "count",
	"discover.verified":          "count",
	"discover.rediscover_ms":     "ms",
	"maintain.apply_ms":          "ms",
	"maintain.append_ms":         "ms",
	"pipeline.maintain_ms":       "ms",
	"pipeline.detect_ms":         "ms",
	"maintain.scans":             "count",
	"maintain.skips":             "count",
	"maintain.refines":           "count",
	"maintain.kernel_traversals": "count",
	"maintain.kernel_probes":     "count",
	"maintain.effective_writes":  "count",
	"maintain.cover_churn":       "count",
	"monitor.reverified":         "count",
	"monitor.violations":         "count",
	"overlays.mb":                "MB",
	"snapshot.save_s":            "s",
	"snapshot.open_s":            "s",
	"snapshot.mb":                "MB",
	"snapshot.encode_ms":         "ms",
	"snapshot.decode_ms":         "ms",
	"snapshot.write_ms":          "ms",
	"snapshot.read_ms":           "ms",
	"clean.assign_ms":            "ms",
	"clean.refine_ms":            "ms",
	"clean.beam_ms":              "ms",
	"clean.materialize_ms":       "ms",
	"clean.classes":              "count",
	"clean.edges":                "count",
	"clean.candidates":           "count",
	"clean.repair_f1":            "ratio",
	"self.discovery_ms":          "ms/op",
	"self.core_ms":               "ms/op",
	"self.pipeline_ms":           "ms/op",
	"self.repair_ms":             "ms/op",
	"self.bench_ms":              "ms/op",
	"coverage":                   "ratio",
	"trace_overhead_pct":         "%",
	"alloc_mb":                   "MB/op",
	"gc_cycles":                  "count/op",
}

func (r *result) setE2E(name string, v float64) {
	r.e2e[name] = metric{v, mustUnit(e2eUnits, name)}
}

func (r *result) setLayer(name string, v float64) {
	r.layer[name] = metric{v, mustUnit(layerUnits, name)}
}

func (r *result) figure(name, unit string, v float64) {
	r.figures[name] = metric{v, unit}
}

func mustUnit(units map[string]string, name string) string {
	u, ok := units[name]
	if !ok {
		panic(fmt.Sprintf("perfbench: metric %q is not declared", name))
	}
	return u
}

// minOps is the fewest operations a run measures, however short its
// --seconds: a traced run then has a traced and an untraced one.
const minOps = 2

// ops collects the closed loop's operation latencies, split by whether the
// operation was traced, and groups the untraced ones into rounds. A round
// is the unit a run repeats: one operation on each of the run's inputs
// (discover, clean) or one replay of the whole stream on a fresh pipeline
// (ingest).
type ops struct {
	plain, traced []float64   // milliseconds
	rounds        [][]float64 // the untraced latencies of each round
}

// nextRound starts a round; add files latencies under the latest one.
func (o *ops) nextRound() { o.rounds = append(o.rounds, nil) }

func (o *ops) add(d time.Duration, traced bool) {
	if traced {
		o.traced = append(o.traced, ms(d))
		return
	}
	o.plain = append(o.plain, ms(d))
	if len(o.rounds) == 0 {
		o.nextRound()
	}
	last := len(o.rounds) - 1
	o.rounds[last] = append(o.rounds[last], ms(d))
}

// roundMS is op_ms: the median over rounds of a round's mean untraced
// operation time. A round's mean weighs every input, or every batch of the
// stream, once, so which inputs or batches land near the middle of the
// latency distribution does not move it, and the median over rounds
// leaves out a round a burst of machine noise slowed.
func (o *ops) roundMS() float64 {
	var means []float64
	for _, r := range o.rounds {
		if len(r) > 0 {
			means = append(means, mean(r))
		}
	}
	return quantile(means, 0.5)
}

func mean(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// finish fills the metrics every workload shares. The run's allocation and
// collection counts are the deltas from before to after.
func (r *result) finish(o *ops, setups []time.Duration, before, after memDelta, tr *tracer) {
	setup := make([]float64, len(setups))
	for i, d := range setups {
		setup[i] = d.Seconds()
	}
	r.setE2E("setup_s", quantile(setup, 0.5))
	r.setE2E("op_ms", o.roundMS())
	r.figure("op_p50_ms", "ms", quantile(o.plain, 0.5))
	r.figure("op_p90_ms", "ms", quantile(o.plain, 0.9))
	r.figure("op_samples", "count", float64(len(o.plain)))
	r.figure("rounds", "count", float64(len(o.rounds)))
	if tr == nil {
		return
	}
	all := append(append([]float64(nil), o.plain...), o.traced...)
	r.setLayer("op.p90_ms", quantile(all, 0.9))
	r.setLayer("op.samples", float64(len(all)))
	n := float64(len(all))
	r.setLayer("alloc_mb", float64(after.alloc-before.alloc)/(1<<20)/n)
	r.setLayer("gc_cycles", float64(after.gcs-before.gcs)/n)
	if len(o.plain) > 0 && len(o.traced) > 0 {
		r.setLayer("trace_overhead_pct", 100*(quantile(o.traced, 0.5)/quantile(o.plain, 0.5)-1))
	}
	self, wallRoots := tr.selfTimes()
	nt := float64(len(o.traced))
	for l, d := range self {
		name := "self." + l + "_ms"
		if _, ok := layerUnits[name]; ok && nt > 0 {
			r.setLayer(name, ms(d)/nt)
		}
	}
	if wallRoots > 0 {
		r.setLayer("coverage", 1-float64(self["bench"])/float64(wallRoots))
	}
}

// zeroLayers declares every per-layer metric at 0, so a traced run reports
// the full list whichever layers its workload runs.
func (r *result) zeroLayers() {
	for name := range layerUnits {
		r.setLayer(name, 0)
	}
}

type memDelta struct{ alloc, gcs uint64 }

func readMem() memDelta {
	st := memStats()
	return memDelta{st.TotalAlloc, uint64(st.NumGC)}
}

// opRun names the trace run of the i-th measured operation; isOp accepts
// exactly those runs, leaving set-up and check spans out of the per-op
// figures.
func opRun(i int) string { return fmt.Sprintf("op-%d", i) }

func isOp(run string) bool { return len(run) > 3 && run[:3] == "op-" }
