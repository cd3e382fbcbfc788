package main

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"github.com/fastofd/fastofd/internal/core"
	"github.com/fastofd/fastofd/internal/gen"
	"github.com/fastofd/fastofd/internal/pipeline"
)

var testSpec = streamSpec{Batches: 40, Updates: 4, Appends: 5}

const testBase = 500

func testStream(t *testing.T, seed int64) (*gen.Dataset, []Batch) {
	t.Helper()
	ds := gen.Clinical(testBase+testSpec.Batches*testSpec.Appends, seed)
	stream, err := makeStream(ds.Rel, testBase, testSpec, seed)
	if err != nil {
		t.Fatal(err)
	}
	return ds, stream
}

func TestStreamIsSeeded(t *testing.T) {
	_, a := testStream(t, 3)
	_, b := testStream(t, 3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed generated two different streams")
	}
	_, c := testStream(t, 4)
	if reflect.DeepEqual(a, c) {
		t.Fatal("two seeds generated the same stream")
	}
}

// TestStreamUpdatesAllTakeEffect replays the stream on a copy of the base
// relation: every update must change its cell, so no batch dedupes to an
// all-no-op batch, the stream must end with every corruption reverted, and
// the appends must be the held-out tail, each row once.
func TestStreamUpdatesAllTakeEffect(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		ds, stream := testStream(t, seed)
		rel := prefix(ds.Rel, testBase)
		reverts := 0
		appended := map[string]int{} // by the NCTID key
		for b, batch := range stream {
			seen := map[cell]bool{}
			for _, u := range batch.Updates {
				at := cell{u.Row, u.Col}
				if seen[at] {
					t.Fatalf("seed %d batch %d: cell %v written twice", seed, b, at)
				}
				seen[at] = true
				if rel.String(u.Row, u.Col) == u.Value {
					t.Fatalf("seed %d batch %d: update %v is a no-op", seed, b, u)
				}
				if u.Value == ds.Rel.String(u.Row, u.Col) {
					reverts++
				}
				rel.SetString(u.Row, u.Col, u.Value)
			}
			for _, row := range batch.Appends {
				appended[row[0]]++
			}
		}
		for r := testBase; r < ds.Rel.NumRows(); r++ {
			if id := ds.Rel.String(r, 0); appended[id] != 1 {
				t.Fatalf("seed %d: tail row %s appended %d times", seed, id, appended[id])
			}
		}
		if reverts == 0 {
			t.Fatalf("seed %d: the stream never reverts a corruption", seed)
		}
		if n, err := rel.DiffCells(prefix(ds.Rel, testBase)); err != nil || n != 0 {
			t.Fatalf("seed %d: the stream leaves %d base cells corrupted (%v)", seed, n, err)
		}
	}
}

// TestFailedCheckAlwaysCounts checks that a failed check shows in the
// failure count even when no operation was attempted yet, or all failed.
func TestFailedCheckAlwaysCounts(t *testing.T) {
	res := newResult()
	res.check(false, "before any operation")
	res.op(errors.New("failed operation"))
	res.check(false, "after a failed operation")
	if res.failed != 3 || res.attempted != 3 {
		t.Fatalf("failed %d of %d attempted, want 3 of 3", res.failed, res.attempted)
	}
}

// TestCorruptedOutputsCount checks that the evolved-state check counts a
// wrong cover and a wrong report as failed operations.
func TestCorruptedOutputsCount(t *testing.T) {
	ctx := context.Background()
	ds, stream := testStream(t, 2)
	p, err := pipeline.New(ctx, prefix(ds.Rel, testBase), ds.FullOnt, pipeline.Options{FollowCover: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range stream[:10] {
		if _, err := p.ApplyBatch(ctx, b.Updates); err != nil {
			t.Fatal(err)
		}
		if _, err := p.AppendRows(b.Appends); err != nil {
			t.Fatal(err)
		}
	}
	cover, rep := p.Cover(), p.Report()
	if len(cover) == 0 {
		t.Fatal("empty cover: the check below would compare nothing")
	}
	run := func(cover core.Set, rep *core.Report) *result {
		res := newResult()
		for i := 0; i < 10; i++ {
			res.op(nil)
		}
		if _, err := checkEvolved(ctx, res, p.Relation(), ds.FullOnt, cover, rep, 2); err != nil {
			t.Fatal(err)
		}
		return res
	}
	if res := run(cover, rep); res.failed != 0 {
		t.Fatalf("the pipeline's own outputs failed the check: %v", res.problems)
	}
	if res := run(cover[1:], rep); res.failed != 1 || res.errorRate() != 0.1 {
		t.Fatalf("a cover missing one OFD: failed %d, error rate %v", res.failed, res.errorRate())
	}
	bad := *rep
	bad.TuplesFlagged++
	if res := run(cover, &bad); res.failed != 1 || res.errorRate() != 0.1 {
		t.Fatalf("a report with one more flagged tuple: failed %d, error rate %v", res.failed, res.errorRate())
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric names and units the
// program reports in step with BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		listed []struct{ Name, Unit string }
		units  map[string]string
	}{{spec.EndToEnd, e2eUnits}, {spec.PerLayer, layerUnits}} {
		got := map[string]string{}
		for _, m := range c.listed {
			got[m.Name] = m.Unit
		}
		if !reflect.DeepEqual(got, c.units) {
			t.Errorf("BENCHMARK.json lists %v, the program reports %v", got, c.units)
		}
	}
}

// TestSampleDatasetMovesErrors checks that a sampled window keeps the
// error ground truth aligned with its rows, which repair_f1 depends on.
func TestSampleDatasetMovesErrors(t *testing.T) {
	pool := gen.Generate(gen.Config{Rows: 2000, Seed: 1, ErrRate: 0.06, NumOFDs: 6})
	sub := sampleDataset(pool, 1000, 5)
	if len(sub.Errors) == 0 {
		t.Fatal("the window holds no injected errors")
	}
	for _, e := range sub.Errors {
		if got := sub.Rel.String(e.Row, e.Col); got != e.Injected {
			t.Fatalf("error at (%d,%d): instance holds %q, want the injected %q", e.Row, e.Col, got, e.Injected)
		}
		if got := sub.CleanRel.String(e.Row, e.Col); got != e.Original {
			t.Fatalf("error at (%d,%d): clean instance holds %q, want %q", e.Row, e.Col, got, e.Original)
		}
	}
}

// TestSelfTimes checks the self-time and coverage arithmetic on a
// hand-built trace: a 10 ns operation whose 8 ns call has a 5 ns child.
func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "bench.op", Start: 0, End: 10, Parent: -1, Run: opRun(0)},
		{Name: "pipeline.ApplyBatch", Start: 1, End: 9, Parent: 0, Run: opRun(0)},
		{Name: "discovery.maintain", Start: 1, End: 6, Parent: 1, Run: opRun(0)},
		{Name: "gen.Clinical", Start: 20, End: 30, Parent: -1, Run: "setup-0"},
	}}
	self, wall := tr.selfTimes()
	want := map[string]time.Duration{"bench": 2, "pipeline": 3, "discovery": 5}
	if !reflect.DeepEqual(self, want) || wall != 10 {
		t.Fatalf("self times %v over %v, want %v over 10ns", self, wall, want)
	}
}

// TestQuantile pins the interpolation rule, which matches Python's
// statistics.quantiles(method="inclusive").
func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {0.9, 3.7}, {1, 4}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
}

// TestRoundMS checks op_ms: the median over rounds of each round's mean
// untraced latency, traced operations left out.
func TestRoundMS(t *testing.T) {
	var o ops
	for _, round := range [][]float64{{1, 3}, {10, 30}, {5, 7}} {
		o.nextRound()
		for _, v := range round {
			o.add(time.Duration(v*float64(time.Millisecond)), false)
		}
		o.add(time.Second, true)
	}
	if got := o.roundMS(); math.Abs(got-6) > 1e-9 {
		t.Fatalf("roundMS = %v, want 6 (the median of the round means 2, 20 and 6)", got)
	}
}
