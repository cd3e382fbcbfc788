package main

import (
	"fmt"
	"math/rand"

	"github.com/fastofd/fastofd/internal/core"
	"github.com/fastofd/fastofd/internal/relation"
)

// Batch is one logical ingest batch: its cell updates go through
// Pipeline.ApplyBatch, then its tuples through Pipeline.AppendRows, and the
// client submits the next batch only after both return.
type Batch struct {
	Updates []core.CellUpdate
	Appends [][]string
}

// streamSpec sizes an ingest stream.
type streamSpec struct {
	Batches int // planned batches
	Updates int // cell updates per batch
	Appends int // appended tuples per batch
}

// novelOneIn is the odds of a corruption writing a value no row and no
// ontology class holds (1 in 50, i.e. 2%).
const novelOneIn = 50

type cell struct{ row, col int }

// makeStream builds the seeded ingest stream over full, whose first
// baseRows rows are the relation the pipeline starts from and whose
// remaining rows are the held-out tail the appends take, each once, in a
// seeded order. The tail tuples are fresh: they carry their own keys, so
// no append re-enters an existing row.
//
// Updates alternate between corrupting a base-row cell and reverting a
// corruption made in an earlier batch, oldest first. Corruptions visit the
// columns round-robin in a seeded order, so every run spreads them evenly
// over the schema: how much repair a corruption costs depends mostly on
// its column, and an uneven mix would make one seed's run unlike
// another's. The row is uniform over the base rows. A corruption writes
// the value another base row holds in that column (so common values are
// written more often), or, one time in novelOneIn, a novel
// out-of-ontology value. No cell is corrupted while an earlier corruption
// of it is outstanding, and no batch writes a cell twice, so every update
// changes its cell: no batch dedupes to nothing. The last batch only
// reverts, every corruption still outstanding.
func makeStream(full *relation.Relation, baseRows int, spec streamSpec, seed int64) ([]Batch, error) {
	if need := baseRows + spec.Batches*spec.Appends; full.NumRows() < need {
		return nil, fmt.Errorf("stream needs %d rows, dataset has %d", need, full.NumRows())
	}
	rng := rand.New(rand.NewSource(seed))
	cols := full.NumCols()
	order := rng.Perm(cols)
	tail := rng.Perm(spec.Batches * spec.Appends)
	corruptions := 0
	type corruption struct {
		at   cell
		orig string
	}
	var outstanding []corruption
	held := map[cell]bool{} // cells whose corruption is outstanding
	batches := make([]Batch, spec.Batches)
	for b := range batches {
		touched := map[cell]bool{}
		var fresh []corruption
		ups := make([]core.CellUpdate, 0, spec.Updates)
		last := b == len(batches)-1 && len(outstanding) > 0
		if last {
			// The last batch reverts what is still corrupted instead, so
			// a run that completes the stream ends on the base rows plus
			// the whole tail whatever its seed. Its appends then leave
			// the caches as every other batch does.
			for _, c := range outstanding {
				ups = append(ups, core.CellUpdate{Row: c.at.row, Col: c.at.col, Value: c.orig})
			}
			outstanding = nil
		}
		for k := 0; k < spec.Updates && !last; k++ {
			if k%2 == 1 && len(outstanding) > 0 {
				fix := outstanding[0]
				outstanding = outstanding[1:]
				delete(held, fix.at)
				touched[fix.at] = true
				ups = append(ups, core.CellUpdate{Row: fix.at.row, Col: fix.at.col, Value: fix.orig})
				continue
			}
			col := order[corruptions%cols]
			corruptions++
			at := cell{rng.Intn(baseRows), col}
			for held[at] || touched[at] {
				at.row = rng.Intn(baseRows)
			}
			orig := full.String(at.row, at.col)
			val := full.String(rng.Intn(baseRows), at.col)
			for tries := 0; val == orig && tries < 16; tries++ {
				val = full.String(rng.Intn(baseRows), at.col)
			}
			if val == orig || rng.Intn(novelOneIn) == 0 {
				val = fmt.Sprintf("perfbench-novel-%d-%d", b, k)
			}
			touched[at] = true
			fresh = append(fresh, corruption{at, orig})
			ups = append(ups, core.CellUpdate{Row: at.row, Col: at.col, Value: val})
		}
		// This batch's corruptions become revertible only from the next
		// batch on, so a batch never undoes its own writes.
		for _, c := range fresh {
			held[c.at] = true
		}
		outstanding = append(outstanding, fresh...)
		apps := make([][]string, spec.Appends)
		for i := range apps {
			apps[i] = full.Row(baseRows + tail[b*spec.Appends+i])
		}
		batches[b] = Batch{Updates: ups, Appends: apps}
	}
	return batches, nil
}

// prefix returns a relation holding the first n rows of full.
func prefix(full *relation.Relation, n int) *relation.Relation {
	rel := relation.New(full.Schema())
	for r := 0; r < n; r++ {
		rel.AppendRow(full.Row(r))
	}
	return rel
}
