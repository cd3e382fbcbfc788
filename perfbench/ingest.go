package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"github.com/fastofd/fastofd/internal/core"
	"github.com/fastofd/fastofd/internal/discovery"
	"github.com/fastofd/fastofd/internal/exec"
	"github.com/fastofd/fastofd/internal/gen"
	"github.com/fastofd/fastofd/internal/ontology"
	"github.com/fastofd/fastofd/internal/pipeline"
	"github.com/fastofd/fastofd/internal/relation"
	"github.com/fastofd/fastofd/internal/snapshot"
)

// ingestSpec is one ingest workload: the base relation, the planned
// stream, how many rounds replay it, and whether the run ends with a
// snapshot restart. A round is one set-up's pipeline replaying the whole
// stream; the first rounds set-ups replay, so rounds is at most
// minSetups.
type ingestSpec struct {
	baseRows int
	stream   streamSpec
	rounds   int
	restart  bool
}

// replaySlack sets how long the replays of one run may take: up to
// replaySlack × --seconds together, shared equally by the rounds, before a
// replay stops short of the stream's end. A whole replay is the unit
// op_ms averages over, so the limit sits well above a replay's length on
// the machine the sizes were chosen on (17 s of 40 on ingest-mixed, 4.3 s
// of 13 on ingest-append) and only a much slower program or machine cuts
// a stream.
const replaySlack = 2

var (
	// mixedSpec: 2 cell updates and 40 appended tuples per batch on a
	// 4K-row relation. One replay of its 38 batches fills a run.
	mixedSpec = ingestSpec{baseRows: 4000, stream: streamSpec{Batches: 38, Updates: 2, Appends: 40}, rounds: 1}
	// appendSpec: 1% append batches, no updates, then one restart. One
	// replay takes a few seconds, so three set-ups replay it.
	appendSpec = ingestSpec{baseRows: 25000, stream: streamSpec{Batches: 120, Appends: 250}, rounds: 3, restart: true}
)

// ingestSetup is what one set-up builds: the ontology, the planned stream
// and the pipeline.
type ingestSetup struct {
	ont    *ontology.Ontology
	stream []Batch
	p      *pipeline.Pipeline
}

// replay is what one round did to its pipeline: the counts the checks and
// the per-layer metrics read, as deltas over the round.
type replay struct {
	p                                   *pipeline.Pipeline
	batches, items, appended, planned   int
	writes, churn                       int
	scans, skips, refines, trav, probes int64
	reverified                          int
	applyMS, appendMS                   []float64
	maintainMS, detectMS                []float64
	wall                                time.Duration
	mem                                 memDelta
}

// runIngest replays the planned stream on the pipelines of the first
// spec.rounds set-ups, each replay a round, then checks the last round's
// evolved state against fresh engines and every other round's against the
// last.
func runIngest(ctx context.Context, cfg config, tr *tracer, spec ingestSpec) (*result, error) {
	res := newResult()
	if tr != nil {
		res.zeroLayers()
	}
	stages := exec.NewStats()
	var (
		o      ops
		ont    *ontology.Ontology
		rounds []replay
		// Every round but the last keeps only its cover, report and
		// batch count, so live_heap_mb counts one engine.
		covers  []core.Set
		reports []*core.Report
	)
	_, setups, err := timedSetups(func(i int) (ingestSetup, error) {
		run := fmt.Sprintf("setup-%d", i)
		s := tr.begin("gen.Clinical", run, -1)
		ds := gen.Clinical(spec.baseRows+spec.stream.Batches*spec.stream.Appends, structureSeed)
		stream, err := makeStream(ds.Rel, spec.baseRows, spec.stream, cfg.seed)
		if err != nil {
			return ingestSetup{}, err
		}
		rel := prefix(ds.Rel, spec.baseRows)
		tr.end(s)
		opts := pipeline.Options{FollowCover: true, Workers: cfg.workers}
		if tr != nil && i == 0 {
			opts.Stats = stages
		}
		s = tr.begin("pipeline.New", run, -1)
		p, err := pipeline.New(ctx, rel, ds.FullOnt, opts)
		tr.end(s)
		return ingestSetup{ds.FullOnt, stream, p}, err
	}, func(i int, set ingestSetup) error {
		if i >= spec.rounds {
			return nil
		}
		ont = set.ont
		o.nextRound()
		r := replayStream(ctx, tr, &o, res, set.p, set.stream, i, replaySlack*cfg.seconds/time.Duration(spec.rounds))
		if i < spec.rounds-1 {
			covers = append(covers, r.p.Cover())
			reports = append(reports, r.p.Report())
			r.p = nil
		}
		rounds = append(rounds, r)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	var before, after memDelta
	for _, r := range rounds {
		after.alloc += r.mem.alloc
		after.gcs += r.mem.gcs
	}

	last := rounds[len(rounds)-1]
	p, mt := last.p, last.p.Maintainer()
	cover, rep := p.Cover(), p.Report()
	for i, r := range rounds {
		res.check(r.appended == r.planned && (i < len(rounds)-1 || p.Relation().NumRows() == spec.baseRows+r.planned),
			"round %d: appended %d tuples, planned %d on %d base rows", i, r.appended, r.planned, spec.baseRows)
		if spec.stream.Updates > 0 {
			res.check(r.writes > 0, "round %d: no effective writes: the stream did no update work", i)
			res.check(r.scans > 0, "round %d: no maintainer scans: the stream never reached cover repair", i)
		}
	}
	res.check(len(cover) > 0, "the final cover is empty")
	for i := range covers {
		if rounds[i].batches != last.batches {
			// A round the time limit cut short ends on another relation.
			res.check(len(covers[i]) > 0, "round %d: the final cover is empty", i)
			continue
		}
		res.check(reflect.DeepEqual(covers[i], cover), "round %d: final cover differs from the last round's", i)
		res.check(sameReport(reports[i], rep), "round %d: final report differs from the last round's", i)
	}
	rediscover, err := checkEvolved(ctx, res, p.Relation(), ont, cover, rep, cfg.workers)
	if err != nil {
		return nil, err
	}

	res.setE2E("live_heap_mb", liveHeapMB())
	runtime.KeepAlive(p)
	res.finish(&o, setups, before, after, tr)
	var (
		items int
		wall  time.Duration
	)
	for _, r := range rounds {
		items += r.items
		wall += r.wall
	}
	res.figure("batch_p50_ms", "ms", quantile(o.plain, 0.5))
	res.figure("batch_p90_ms", "ms", quantile(o.plain, 0.9))
	res.figure("batch_mean_ms", "ms", o.roundMS())
	res.figure("ingest_ops_per_s", "1/s", float64(items)/wall.Seconds())
	res.figure("batches", "count", float64(last.batches))
	res.figure("cover_size", "count", float64(len(cover)))
	res.figure("effective_writes", "count", float64(last.writes))
	res.figure("maintain_scans", "count", float64(last.scans))
	res.figure("rediscover_ms", "ms", rediscover)

	if tr != nil {
		cs := p.CacheStats()
		if n := cs.Hits + cs.Misses; n > 0 {
			res.setLayer("cache.hit_ratio", float64(cs.Hits)/float64(n))
		}
		res.setLayer("cache.misses", float64(cs.Misses))
		res.setLayer("cache.evictions", float64(cs.Evictions))
		res.setLayer("cache.peak_mb", float64(cs.PeakBytes)/(1<<20))
		res.setLayer("cache.entries_end", float64(cs.Entries))
		rc := mt.RepairCache().Stats()
		res.setLayer("repair_cache.entries_end", float64(rc.Entries))
		res.setLayer("repair_cache.evictions", float64(rc.Evictions))
		discoverStages(res, stages, 1)
		res.setLayer("discover.rediscover_ms", rediscover)
		res.setLayer("maintain.apply_ms", quantile(last.applyMS, 0.5))
		res.setLayer("maintain.append_ms", quantile(last.appendMS, 0.5))
		res.setLayer("pipeline.maintain_ms", quantile(last.maintainMS, 0.5))
		res.setLayer("pipeline.detect_ms", quantile(last.detectMS, 0.5))
		res.setLayer("maintain.scans", float64(last.scans))
		res.setLayer("maintain.skips", float64(last.skips))
		res.setLayer("maintain.refines", float64(last.refines))
		res.setLayer("maintain.kernel_traversals", float64(last.trav))
		res.setLayer("maintain.kernel_probes", float64(last.probes))
		res.setLayer("maintain.effective_writes", float64(last.writes))
		res.setLayer("maintain.cover_churn", float64(last.churn))
		res.setLayer("monitor.reverified", float64(last.reverified))
		res.setLayer("monitor.violations", float64(p.Monitor().ViolationCount()))
		res.setLayer("overlays.mb", float64(p.Overlays().OverlayBytes())/(1<<20))
		sc, err := singleColMS(ctx, p.Relation(), cfg.workers)
		if err != nil {
			return nil, err
		}
		res.setLayer("relation.single_col_ms", sc)
	}
	if spec.restart {
		if err := restart(ctx, res, tr, p, cover, rep, cfg.workers); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// replayStream feeds stream to p batch by batch, the client submitting a
// batch only after the previous one returned, until the stream ends or
// limit has passed. Batch latencies go to o; a failed call counts in res.
func replayStream(ctx context.Context, tr *tracer, o *ops, res *result, p *pipeline.Pipeline, stream []Batch, round int, limit time.Duration) replay {
	mt := p.Maintainer()
	r := replay{p: p}
	scans0, skips0, refines0 := mt.Scans(), mt.Skips(), mt.Refines()
	trav0, probes0 := mt.KernelStats()
	rever0 := p.Monitor().Reverified()
	runtime.GC()
	before := readMem()
	start := time.Now()
	for b, batch := range stream {
		if b >= minOps && time.Since(start) >= limit {
			break
		}
		traced := tr != nil && b%2 == 1
		var t *tracer
		if traced {
			t = tr
		}
		run := opRun(round*len(stream) + b)
		root := t.begin("bench.op", run, -1)
		var (
			maintain, detect int64
			errs             []error
		)
		t0 := time.Now()
		if len(batch.Updates) > 0 {
			s := t.begin("pipeline.ApplyBatch", run, root)
			a0 := time.Now()
			br, err := p.ApplyBatch(ctx, batch.Updates)
			r.applyMS = append(r.applyMS, ms(time.Since(a0)))
			t.end(s)
			errs = append(errs, err)
			if err == nil {
				r.writes += len(mt.LastWrites())
				r.churn += len(br.Diff.Added) + len(br.Diff.Removed)
				maintain, detect = br.MaintainNanos, br.DetectNanos
				tracePhases(t, s, br)
			}
		}
		if len(batch.Appends) > 0 {
			s := t.begin("pipeline.AppendRows", run, root)
			a0 := time.Now()
			br, err := p.AppendRows(batch.Appends)
			r.appendMS = append(r.appendMS, ms(time.Since(a0)))
			t.end(s)
			errs = append(errs, err)
			if err == nil {
				r.appended += len(batch.Appends)
				r.churn += len(br.Diff.Added) + len(br.Diff.Removed)
				maintain += br.MaintainNanos
				detect += br.DetectNanos
				tracePhases(t, s, br)
			}
		}
		d := time.Since(t0)
		t.end(root)
		o.add(d, traced)
		res.op(errors.Join(errs...))
		r.items += len(batch.Updates) + len(batch.Appends)
		r.planned += len(batch.Appends)
		r.maintainMS = append(r.maintainMS, float64(maintain)/1e6)
		r.detectMS = append(r.detectMS, float64(detect)/1e6)
		r.batches++
	}
	r.wall = time.Since(start)
	after := readMem()
	r.mem = memDelta{after.alloc - before.alloc, after.gcs - before.gcs}
	trav, probes := mt.KernelStats()
	r.scans, r.skips, r.refines = mt.Scans()-scans0, mt.Skips()-skips0, mt.Refines()-refines0
	r.trav, r.probes = trav-trav0, probes-probes0
	r.reverified = p.Monitor().Reverified() - rever0
	return r
}

// tracePhases records the maintain and detect phases a pipeline call
// reports in its BatchResult as children of the call's span s.
func tracePhases(t *tracer, s int, br pipeline.BatchResult) {
	t.derived("discovery.maintain", s, 0, br.MaintainNanos)
	t.derived("core.detect", s, br.MaintainNanos, br.DetectNanos)
}

// checkEvolved compares the maintained cover and the published report with
// a fresh Discover and a fresh Detect of the evolved relation, counting a
// mismatch as a failure, and returns the fresh discovery's time in ms.
func checkEvolved(ctx context.Context, res *result, rel *relation.Relation, ont *ontology.Ontology, cover core.Set, rep *core.Report, workers int) (float64, error) {
	opts := discovery.DefaultOptions()
	opts.Workers = workers
	t0 := time.Now()
	fresh, err := discovery.DiscoverContext(ctx, rel, ont, opts)
	d := time.Since(t0)
	if err != nil {
		return 0, fmt.Errorf("fresh discovery of the evolved relation: %w", err)
	}
	res.check(reflect.DeepEqual(cover, fresh.OFDs), "maintained cover (%d OFDs) differs from a fresh Discover (%d OFDs)", len(cover), len(fresh.OFDs))
	want, err := core.DetectContext(ctx, rel, ont, fresh.OFDs, workers, nil)
	if err != nil {
		return 0, fmt.Errorf("fresh detect of the evolved relation: %w", err)
	}
	res.check(sameReport(rep, want), "published report differs from a fresh Detect under the fresh cover")
	return ms(d), nil
}

// sameReport compares two reports byte for byte in their JSON form.
func sameReport(a, b *core.Report) bool {
	ja, errA := json.Marshal(a)
	jb, errB := json.Marshal(b)
	return errA == nil && errB == nil && string(ja) == string(jb)
}

// restart saves the pipeline to a snapshot file and reopens it, timing
// both, and checks the reopened cover and report against the saved ones.
// A traced run then repeats the four steps Save and Open are made of
// (Encode, file write, file read, Decode) as separate timed calls.
func restart(ctx context.Context, res *result, tr *tracer, p *pipeline.Pipeline, cover core.Set, rep *core.Report, workers int) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("restart-%d.snap", os.Getpid()))
	defer os.Remove(path)

	s := tr.begin("snapshot.Save", "restart", -1)
	t0 := time.Now()
	err := snapshot.Save(path, &snapshot.State{Pipeline: p})
	save := time.Since(t0)
	tr.end(s)
	res.op(err)
	if err != nil {
		return nil
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	s = tr.begin("snapshot.Open", "restart", -1)
	t0 = time.Now()
	st, err := snapshot.Open(path, snapshot.Options{Workers: workers})
	open := time.Since(t0)
	tr.end(s)
	if err != nil {
		res.check(false, "reopen snapshot: %v", err)
		return nil
	}
	res.check(st.Pipeline != nil, "reopened snapshot holds no pipeline")
	if st.Pipeline != nil {
		res.check(reflect.DeepEqual(st.Pipeline.Cover(), cover), "reopened cover differs from the saved one")
		res.check(sameReport(st.Pipeline.Report(), rep), "reopened report differs from the saved one")
	}
	mb := float64(fi.Size()) / (1 << 20)
	res.figure("snapshot_save_s", "s", save.Seconds())
	res.figure("snapshot_open_s", "s", open.Seconds())
	res.figure("snapshot_mb", "MB", mb)
	if tr == nil {
		return nil
	}
	res.setLayer("snapshot.save_s", save.Seconds())
	res.setLayer("snapshot.open_s", open.Seconds())
	res.setLayer("snapshot.mb", mb)
	steps := path + ".steps"
	defer os.Remove(steps)
	t0 = time.Now()
	img, err := snapshot.Encode(&snapshot.State{Pipeline: p})
	enc := time.Since(t0)
	if err != nil {
		return fmt.Errorf("encode snapshot: %w", err)
	}
	t0 = time.Now()
	if err := os.WriteFile(steps, img, 0o644); err != nil {
		return err
	}
	write := time.Since(t0)
	t0 = time.Now()
	img, err = os.ReadFile(steps)
	read := time.Since(t0)
	if err != nil {
		return err
	}
	t0 = time.Now()
	if _, err := snapshot.Decode(img, snapshot.Options{Workers: workers}); err != nil {
		return fmt.Errorf("decode snapshot: %w", err)
	}
	dec := time.Since(t0)
	res.setLayer("snapshot.encode_ms", ms(enc))
	res.setLayer("snapshot.write_ms", ms(write))
	res.setLayer("snapshot.read_ms", ms(read))
	res.setLayer("snapshot.decode_ms", ms(dec))
	return nil
}
