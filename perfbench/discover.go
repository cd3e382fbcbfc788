package main

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"github.com/fastofd/fastofd/internal/discovery"
	"github.com/fastofd/fastofd/internal/exec"
	"github.com/fastofd/fastofd/internal/gen"
	"github.com/fastofd/fastofd/internal/ontology"
	"github.com/fastofd/fastofd/internal/relation"
)

// discoverRows sizes the discover workload: cold FastOFD on Clinical.
const discoverRows = 25000

// refWorkers is the worker count of the reference discovery the timed,
// single-threaded ones are checked against.
const refWorkers = 2

// runDiscover repeats a cold DiscoverContext on one sampled relation for
// the run's duration, each discovery a round of its own. Every cover must
// equal a reference run with refWorkers workers, which takes the parallel
// paths the timed runs leave out.
func runDiscover(ctx context.Context, cfg config, tr *tracer) (*result, error) {
	res := newResult()
	if tr != nil {
		res.zeroLayers()
	}
	type input struct {
		rel *relation.Relation
		ont *ontology.Ontology
	}
	in, setups, err := timedSetups(func(i int) (input, error) {
		run := fmt.Sprintf("setup-%d", i)
		s := tr.begin("gen.Clinical", run, -1)
		pool := gen.Clinical(poolFactor*discoverRows, structureSeed)
		rel, _ := sampleRows(pool.Rel, discoverRows, cfg.seed)
		tr.end(s)
		return input{rel, pool.FullOnt}, nil
	}, nil)
	if err != nil {
		return nil, err
	}

	// The reference run is also the warm-up: it faults in the heap the
	// timed runs reuse.
	parallel := discovery.DefaultOptions()
	parallel.Workers = refWorkers
	ref, err := discovery.DiscoverContext(ctx, in.rel, in.ont, parallel)
	if err != nil {
		return nil, fmt.Errorf("reference discovery: %w", err)
	}
	res.check(len(ref.OFDs) > 0, "reference discovery found an empty cover")

	var (
		o      ops
		stages = exec.NewStats()
	)
	runtime.GC()
	before := readMem()
	start := time.Now()
	for i := 0; i < minOps || time.Since(start) < cfg.seconds; i++ {
		o.nextRound()
		traced := tr != nil && i%2 == 1
		opts := discovery.DefaultOptions()
		opts.Workers = cfg.workers
		var t *tracer
		if traced {
			t, opts.Stats = tr, stages
		}
		root := t.begin("bench.op", opRun(i), -1)
		s := t.begin("discovery.DiscoverContext", opRun(i), root)
		t0 := time.Now()
		out, err := discovery.DiscoverContext(ctx, in.rel, in.ont, opts)
		d := time.Since(t0)
		t.end(s)
		t.end(root)
		o.add(d, traced)
		res.op(err)
		if err == nil {
			res.check(reflect.DeepEqual(out.OFDs, ref.OFDs), "discovery %d: cover differs from the Workers=%d run", i, refWorkers)
		}
	}
	after := readMem()

	res.figure("first_cover_s", "s", o.roundMS()/1000)
	res.figure("cover_size", "count", float64(len(ref.OFDs)))
	res.setE2E("live_heap_mb", liveHeapMB())
	runtime.KeepAlive(in)
	res.finish(&o, setups, before, after, tr)
	if tr != nil {
		discoverStages(res, stages, len(o.traced))
		sc, err := singleColMS(ctx, in.rel, cfg.workers)
		if err != nil {
			return nil, err
		}
		res.setLayer("relation.single_col_ms", sc)
	}
	return res, nil
}

// discoverStages reports the stage table of n discovery runs as per-run
// averages: partition, lattice-build and verification time, lattice nodes
// built above level 1, and candidates verified.
func discoverStages(res *result, stages *exec.Stats, n int) {
	snap, _ := stages.Snapshot()
	for _, st := range snap {
		switch st.Name {
		case "discover.partitions", "discover.build", "discover.verify":
			res.setLayer(st.Name+"_ms", ms(st.Wall)/float64(n))
		}
		switch st.Name {
		case "discover.build":
			res.setLayer("discover.nodes", float64(st.Items)/float64(n))
		case "discover.total":
			res.setLayer("discover.verified", float64(st.Items)/float64(n))
		}
	}
}

// singleColMS is the median time of building a relation's single-column
// partition cache, the relation layer's share of every discovery.
func singleColMS(ctx context.Context, rel *relation.Relation, workers int) (float64, error) {
	var xs []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := relation.NewPartitionCacheContext(ctx, rel, workers); err != nil {
			return 0, fmt.Errorf("single-column partitions: %w", err)
		}
		xs = append(xs, ms(time.Since(t0)))
	}
	return quantile(xs, 0.5), nil
}
