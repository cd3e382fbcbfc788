package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/fastofd/fastofd/internal/ontology"
	"github.com/fastofd/fastofd/internal/relation"
)

// randomSynInstance builds a small random relation plus a random synonym
// ontology over its value universe — covered and uncovered consequents mix
// freely, so the one-pass kernel's two per-class branches (sense test and
// FD-equality walk) both see traffic.
func randomSynInstance(rng *rand.Rand) (*relation.Relation, *ontology.Ontology) {
	cols := 2 + rng.Intn(4)
	rows := 2 + rng.Intn(14)
	domain := 1 + rng.Intn(5)
	names := make([]string, cols)
	for i := range names {
		names[i] = fmt.Sprintf("A%d", i)
	}
	rel := relation.New(relation.MustSchema(names...))
	row := make([]string, cols)
	for r := 0; r < rows; r++ {
		for c := range row {
			row[c] = fmt.Sprintf("v%d", rng.Intn(domain))
		}
		rel.AppendRow(row)
	}
	o := ontology.New()
	numClasses := rng.Intn(5)
	for c := 0; c < numClasses; c++ {
		var syn []string
		for v := 0; v < domain; v++ {
			if rng.Intn(2) == 0 {
				syn = append(syn, fmt.Sprintf("v%d", v))
			}
		}
		o.MustAddClass(fmt.Sprintf("cls%d", c), fmt.Sprintf("sense%d", c%2), ontology.NoClass, syn...)
	}
	return rel, o
}

// TestHoldsSynOnePassMatchesHoldsSyn is the repair kernel's correctness
// property: for every antecedent set and consequent, HoldsSynOnePass
// answers exactly HoldsSyn — through the per-class sense test on covered
// consequents and the dict-code walk on uncovered ones — with one
// ProductBuffer reused across every call, on a cold cache (a fresh
// verifier per probe, so every partition is a miss built in the buffer)
// and on a warm one (a shared verifier, probed twice).
func TestHoldsSynOnePassMatchesHoldsSyn(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	buf := &relation.ProductBuffer{}
	var sawCovered, sawUncovered bool
	for trial := 0; trial < 40; trial++ {
		rel, ont := randomSynInstance(rng)
		ref := NewVerifier(rel, ont, nil)
		warm := NewVerifier(rel, ont, nil)
		nCols := rel.NumCols()
		for pass := 0; pass < 2; pass++ {
			for bits := 0; bits < 1<<nCols; bits++ {
				for rhs := 0; rhs < nCols; rhs++ {
					d := OFD{LHS: relation.AttrSet(bits), RHS: rhs}
					if !d.Trivial() {
						if ref.covered[rhs].Load() {
							sawCovered = true
						} else {
							sawUncovered = true
						}
					}
					want := ref.HoldsSyn(d)
					if pass == 0 {
						if got := NewVerifier(rel, ont, nil).HoldsSynOnePass(d, buf); got != want {
							t.Fatalf("trial %d: cold HoldsSynOnePass(%v->%d)=%v, HoldsSyn=%v", trial, d.LHS, rhs, got, want)
						}
					}
					if got := warm.HoldsSynOnePass(d, buf); got != want {
						t.Fatalf("trial %d pass %d: warm HoldsSynOnePass(%v->%d)=%v, HoldsSyn=%v", trial, pass, d.LHS, rhs, got, want)
					}
				}
			}
		}
	}
	if !sawCovered || !sawUncovered {
		t.Fatalf("instances exercised covered=%v uncovered=%v consequents; want both", sawCovered, sawUncovered)
	}
}

// FuzzHoldsSynOnePass drives the same equivalence from fuzzed instance
// seeds and antecedent masks, so the corpus explores class shapes the
// fixed-seed property test does not.
func FuzzHoldsSynOnePass(f *testing.F) {
	f.Add(int64(1), uint8(0b01))
	f.Add(int64(42), uint8(0b11))
	f.Add(int64(-7), uint8(0xFF))
	f.Fuzz(func(t *testing.T, seed int64, lhsBits uint8) {
		rng := rand.New(rand.NewSource(seed))
		rel, ont := randomSynInstance(rng)
		ref := NewVerifier(rel, ont, nil)
		v := NewVerifier(rel, ont, nil)
		buf := &relation.ProductBuffer{}
		lhs := relation.AttrSet(lhsBits) & relation.AttrSet(uint64(1)<<uint(rel.NumCols())-1)
		for pass := 0; pass < 2; pass++ { // cold cache, then warm
			for c := 0; c < rel.NumCols(); c++ {
				d := OFD{LHS: lhs, RHS: c}
				if got, want := v.HoldsSynOnePass(d, buf), ref.HoldsSyn(d); got != want {
					t.Fatalf("seed %d lhs %v rhs %d pass %d: one-pass=%v HoldsSyn=%v", seed, lhs, c, pass, got, want)
				}
			}
		}
	})
}
