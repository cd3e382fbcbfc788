package main

import (
	"math/rand"
	"runtime"
	"time"

	"github.com/fastofd/fastofd/internal/gen"
	"github.com/fastofd/fastofd/internal/relation"
)

// The generator draws a dataset's structure (the ontology, each entity's
// true sense, the planted OFDs) and its rows from one seeded stream. On
// this schema a sample of some thousand rows also holds dozens of
// accidental dependencies, whose number sets the size of the minimal cover
// and with it the cost of maintenance: between generator seeds the cover
// of 25K Clinical rows ranged from 117 to 179 OFDs, and the ingest
// workloads' batch latency and heap nearly doubled. A spread across seeds
// would then measure the sample, not the program. So every workload
// generates its data with the generator's default seed, and the run's seed
// varies what the program can be given without changing the problem's
// size: which window of a pool discover and clean run on, and the update
// stream and the order of the appended tuples on the ingest workloads.
const (
	structureSeed = 1
	poolFactor    = 2
)

// sampleRows returns n consecutive rows of pool starting at a seeded even
// offset, and the offset. A window keeps what the generator ties to row
// numbers: ORG_STUDY_ID is shared by rows 2k and 2k+1, and a scattered
// sample would break those pairs and turn the column into a near-key whose
// status flips as appends complete them.
func sampleRows(pool *relation.Relation, n int, seed int64) (*relation.Relation, int) {
	off := 2 * rand.New(rand.NewSource(seed)).Intn((pool.NumRows()-n)/2+1)
	rel := relation.New(pool.Schema())
	for r := off; r < off+n; r++ {
		rel.AppendRow(pool.Row(r))
	}
	return rel, off
}

// windowSeeds draws k window seeds from the run's seed.
func windowSeeds(seed int64, k int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, k)
	for i := range out {
		out[i] = rng.Int63()
	}
	return out
}

// sampleDataset restricts a generated dataset to the n rows sampleRows
// picks, carrying the injected errors along under the new row numbers.
// The ontologies, Σ and the ontology omissions are the pool's.
func sampleDataset(ds *gen.Dataset, n int, seed int64) *gen.Dataset {
	rel, off := sampleRows(ds.Rel, n, seed)
	clean := relation.New(ds.CleanRel.Schema())
	for r := off; r < off+n; r++ {
		clean.AppendRow(ds.CleanRel.Row(r))
	}
	sub := &gen.Dataset{
		Rel: rel, CleanRel: clean, Ont: ds.Ont, FullOnt: ds.FullOnt,
		Sigma: ds.Sigma, InhSigma: ds.InhSigma, InhTheta: ds.InhTheta, Removals: ds.Removals,
	}
	for _, e := range ds.Errors {
		if e.Row >= off && e.Row < off+n {
			e.Row -= off
			sub.Errors = append(sub.Errors, e)
		}
	}
	return sub
}

// Each workload sets up at least minSetups times and until setupBudget has
// been spent, at most maxSetups times; setup_s is the median. Cheap
// set-ups repeat more, which keeps their median steady.
const (
	minSetups   = 3
	maxSetups   = 25
	setupBudget = 2 * time.Second
)

// timedSetups runs build repeatedly and returns the last build and every
// set-up time. build(i) may trace when i == 0; the kept build is always an
// untraced one. A non-nil use instead receives every build as soon as it
// is timed, outside the timed region, and timedSetups keeps none.
func timedSetups[T any](build func(i int) (T, error), use func(i int, b T) error) (T, []time.Duration, error) {
	var (
		last  T
		times []time.Duration
		spent time.Duration
	)
	for i := 0; i < maxSetups && (i < minSetups || spent < setupBudget); i++ {
		runtime.GC() // each set-up starts from a collected heap
		start := time.Now()
		b, err := build(i)
		d := time.Since(start)
		if err != nil {
			return last, nil, err
		}
		times = append(times, d)
		spent += d
		if use == nil {
			last = b
		} else if err := use(i, b); err != nil {
			return last, nil, err
		}
	}
	return last, times, nil
}
