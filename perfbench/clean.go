package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"github.com/fastofd/fastofd/internal/core"
	"github.com/fastofd/fastofd/internal/gen"
	"github.com/fastofd/fastofd/internal/metrics"
	"github.com/fastofd/fastofd/internal/repair"
)

// cleanRows sizes the clean workload's dirty instance, sampled from a pool
// with 6% of consequent cells corrupted, 4% of the used ontology values
// removed and six planted OFDs as Σ.
const cleanRows = 50000

func cleanPool() gen.Config {
	return gen.Config{Rows: poolFactor * cleanRows, Seed: structureSeed, ErrRate: 0.06, IncRate: 0.04, NumOFDs: 6}
}

// cleanWindows is how many dirty instances a clean run samples from the
// pool. A round cleans each once. How long a clean takes depends on its
// window: one seed's window ran 8% faster than three others, on one
// thread and run after run. A round's mean over several windows moves
// less from seed to seed than one window's time.
const cleanWindows = 3

// runClean repeats OFDClean on cleanWindows sampled dirty instances in
// turn for the run's duration. Every run must produce a repair, the same
// one each time on the same instance, whose instance satisfies Σ under
// its repaired ontology.
func runClean(ctx context.Context, cfg config, tr *tracer) (*result, error) {
	res := newResult()
	if tr != nil {
		res.zeroLayers()
	}
	windows, setups, err := timedSetups(func(i int) ([]*gen.Dataset, error) {
		s := tr.begin("gen.Generate", fmt.Sprintf("setup-%d", i), -1)
		pool := gen.Generate(cleanPool())
		var ws []*gen.Dataset
		for _, seed := range windowSeeds(cfg.seed, cleanWindows) {
			ws = append(ws, sampleDataset(pool, cleanRows, seed))
		}
		tr.end(s)
		return ws, nil
	}, nil)
	if err != nil {
		return nil, err
	}

	var (
		o     ops
		first = make([]*repair.Result, len(windows))
		want  = make([][32]byte, len(windows))
		// Sums over the traced runs of the Result's own stage times and
		// counts.
		assign, refine, beam, mat time.Duration
		classes, edges, cands     int
	)
	runtime.GC()
	before := readMem()
	start := time.Now()
	for i := 0; i < minOps || time.Since(start) < cfg.seconds || i%len(windows) != 0; i++ {
		w := i % len(windows)
		if w == 0 {
			o.nextRound()
		}
		ds := windows[w]
		traced := tr != nil && i%2 == 1
		opts := repair.DefaultOptions()
		opts.Workers = cfg.workers
		var t *tracer
		if traced {
			t = tr
		}
		root := t.begin("bench.op", opRun(i), -1)
		s := t.begin("repair.CleanContext", opRun(i), root)
		t0 := time.Now()
		out, err := repair.CleanContext(ctx, ds.Rel, ds.Ont, ds.Sigma, opts)
		d := time.Since(t0)
		t.end(s)
		t.end(root)
		o.add(d, traced)
		res.op(err)
		if err != nil {
			continue
		}
		res.check(out.Best != nil, "clean %d: no repair within tau", i)
		fp, err := fingerprint(out)
		if err != nil {
			return nil, err
		}
		if first[w] == nil {
			first[w], want[w] = out, fp
		} else {
			res.check(fp == want[w], "clean %d: output differs from the first run on window %d", i, w)
		}
		if traced {
			assign += out.AssignElapsed
			refine += out.RefineElapsed
			beam += out.BeamElapsed
			mat += out.MaterializeElapsed
			classes += out.ClassCount
			edges += out.EdgeCount
			cands += out.Candidates
		}
	}
	after := readMem()

	// repair_f1 is the mean over the windows.
	f1 := 0.0
	for w, out := range first {
		if out == nil || out.Best == nil {
			continue
		}
		ds := windows[w]
		v := core.NewVerifier(out.Instance, out.Ontology, nil)
		res.check(v.SatisfiesAll(ds.Sigma), "window %d: the repaired instance violates sigma under the repaired ontology", w)
		f1 += metrics.DataRepairAccuracy(ds, out.Best.DataChanges, out.Instance).F1 / float64(len(windows))
	}
	res.figure("clean_s", "s", o.roundMS()/1000)
	res.figure("repair_f1", "ratio", f1)
	res.setE2E("live_heap_mb", liveHeapMB())
	runtime.KeepAlive(windows)
	runtime.KeepAlive(first)
	res.finish(&o, setups, before, after, tr)
	if tr != nil {
		nt := float64(len(o.traced))
		res.setLayer("clean.assign_ms", ms(assign)/nt)
		res.setLayer("clean.refine_ms", ms(refine)/nt)
		res.setLayer("clean.beam_ms", ms(beam)/nt)
		res.setLayer("clean.materialize_ms", ms(mat)/nt)
		res.setLayer("clean.classes", float64(classes)/nt)
		res.setLayer("clean.edges", float64(edges)/nt)
		res.setLayer("clean.candidates", float64(cands)/nt)
		res.setLayer("clean.repair_f1", f1)
		sc, err := singleColMS(ctx, windows[0].Rel, cfg.workers)
		if err != nil {
			return nil, err
		}
		res.setLayer("relation.single_col_ms", sc)
	}
	return res, nil
}

// fingerprint hashes everything a repair run outputs: the Pareto set, the
// chosen repair and the repaired instance.
func fingerprint(r *repair.Result) ([32]byte, error) {
	h := sha256.New()
	enc := json.NewEncoder(h)
	if err := enc.Encode(r.Pareto); err != nil {
		return [32]byte{}, err
	}
	if err := enc.Encode(r.Best); err != nil {
		return [32]byte{}, err
	}
	if r.Instance != nil {
		if err := enc.Encode(r.Instance.Rows()); err != nil {
			return [32]byte{}, err
		}
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out, nil
}
