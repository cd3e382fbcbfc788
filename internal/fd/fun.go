package fd

import (
	"context"
	"sort"

	"github.com/fastofd/fastofd/internal/core"
	"github.com/fastofd/fastofd/internal/exec"
	"github.com/fastofd/fastofd/internal/relation"
)

// setCard records the partition cardinality of one examined attribute set;
// kept in slices sorted by attrs so subset lookups are binary searches.
type setCard struct {
	attrs relation.AttrSet
	card  int
}

func lookupCard(cards []setCard, x relation.AttrSet) (int, bool) {
	i := sort.Search(len(cards), func(i int) bool { return cards[i].attrs >= x })
	if i < len(cards) && cards[i].attrs == x {
		return cards[i].card, true
	}
	return 0, false
}

// DiscoverFUN implements FUN (Novelli & Cicchetti, 2001): a level-wise
// traversal restricted to free sets — attribute sets whose partition
// cardinality strictly exceeds that of every proper subset — using
// cardinality comparisons both to detect FDs (|Π_X| = |Π_{X∪A}| iff X → A)
// and to prune non-free sets, whose dependencies are all non-minimal.
func DiscoverFUN(rel *relation.Relation) *Result {
	return DiscoverFUNOpts(rel, DefaultOptions())
}

// DiscoverFUNOpts is DiscoverFUN with explicit options. Candidate
// partitions are computed by refining the parent partition with the added
// column's row→class vector over per-worker ProductBuffers (never through
// cache probes); per-level cardinalities live in sorted slices. Free sets
// are downward closed, so every proper subset of a candidate was itself a
// candidate one level earlier and its cardinality is one binary search
// away.
func DiscoverFUNOpts(rel *relation.Relation, opts Options) *Result {
	res, _ := DiscoverFUNContext(context.Background(), rel, opts)
	return res
}

// DiscoverFUNContext is DiscoverFUNOpts with cooperative cancellation: the
// free-set traversal stops between levels and between candidate-partition
// products, returning the minimal FDs from completed levels plus the
// wrapped context error.
func DiscoverFUNContext(ctx context.Context, rel *relation.Relation, opts Options) (*Result, error) {
	nAttrs := rel.NumCols()
	nRows := rel.NumRows()
	workers := exec.Workers(opts.Workers)
	span := opts.Stats.Span("fd.fun")
	span.Workers(workers)
	defer span.End()
	pc, err := relation.NewPartitionCacheContext(ctx, rel, workers)
	if err != nil {
		return &Result{Algorithm: FUN}, err
	}
	bufs := make([]relation.ProductBuffer, workers)

	// card(X) = |Π_X| from the stripped partition: stripped classes plus
	// the singletons they omit.
	cardOf := func(p *relation.Partition) int {
		return p.NumClasses() + (nRows - p.Size())
	}

	var sigma core.Set
	type funNode struct {
		attrs relation.AttrSet
		card  int
		part  *relation.Partition
	}

	// Level 0: the empty (free) set with cardinality 1 (or 0 on empty r).
	emptyCard := 1
	if nRows == 0 {
		emptyCard = 0
	}
	level := []funNode{{attrs: relation.EmptySet, card: emptyCard, part: pc.Get(relation.EmptySet)}}
	prevCards := []setCard{{attrs: relation.EmptySet, card: emptyCard}}

	type funCand struct {
		attrs  relation.AttrSet
		parent int
		added  int
		card   int
		part   *relation.Partition
	}
	for len(level) > 0 {
		// Generate X = free ∪ {a} candidates, deduplicated by sorting and
		// keeping the lowest parent (any parent yields the same canonical
		// partition; the choice is fixed for determinism).
		var cands []funCand
		for pi := range level {
			for a := 0; a < nAttrs; a++ {
				if level[pi].attrs.Has(a) {
					continue
				}
				cands = append(cands, funCand{attrs: level[pi].attrs.With(a), parent: pi, added: a})
			}
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].attrs != cands[j].attrs {
				return cands[i].attrs < cands[j].attrs
			}
			return cands[i].parent < cands[j].parent
		})
		keep := 0
		for i := range cands {
			if i == 0 || cands[i].attrs != cands[keep-1].attrs {
				cands[keep] = cands[i]
				keep++
			}
		}
		cands = cands[:keep]
		span.Items(len(cands))
		if err := exec.For(ctx, len(cands), workers, func(w, i int) {
			c := &cands[i]
			c.part = pc.Refine(level[c.parent].part, c.added, &bufs[w])
			c.card = cardOf(c.part)
		}); err != nil {
			// The interrupted level's partial products are discarded; sigma
			// holds only dependencies from fully examined levels.
			return &Result{Algorithm: FUN, FDs: minimize(sigma)}, err
		}
		// Free check + FD emission, sequential in sorted candidate order.
		curCards := make([]setCard, len(cands))
		var next []funNode
		for i := range cands {
			c := &cands[i]
			curCards[i] = setCard{attrs: c.attrs, card: c.card}
			// X is free iff |Π_X| > |Π_Y| for every maximal proper subset
			// Y; equivalently no Y = X\b has equal cardinality.
			free := true
			for _, b := range c.attrs.Attrs() {
				sub := c.attrs.Without(b)
				csub, ok := lookupCard(prevCards, sub)
				if !ok {
					// Defensive only: subsets of free sets are free, so sub
					// is always a previous-round candidate in practice.
					csub = cardOf(pc.GetWith(sub, &bufs[0]))
				}
				if csub == c.card {
					free = false
					// Y → b holds with Y = X\b; record when minimal.
					sigma = append(sigma, FD{LHS: sub, RHS: b})
				}
			}
			if free {
				next = append(next, funNode{attrs: c.attrs, card: c.card, part: c.part})
			}
		}
		prevCards = curCards
		level = next
	}

	raw := len(sigma)
	sigma = minimize(sigma)
	return &Result{Algorithm: FUN, FDs: sigma, RawCount: raw}, nil
}
