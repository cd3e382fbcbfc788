package fd

import (
	"context"
	"sort"

	"github.com/fastofd/fastofd/internal/core"
	"github.com/fastofd/fastofd/internal/exec"
	"github.com/fastofd/fastofd/internal/relation"
)

// taneNode is one lattice node: the attribute set, its rhs⁺ candidate set,
// and its stripped partition (kept on the node so validity tests are pure
// arithmetic on partition errors, with no cache probes).
type taneNode struct {
	attrs relation.AttrSet
	cplus relation.AttrSet
	part  *relation.Partition
}

// taneLevel is one lattice level, sorted ascending by attrs so sibling
// lookup is a binary search instead of a map probe.
type taneLevel []taneNode

func (lv taneLevel) find(x relation.AttrSet) *taneNode {
	i := sort.Search(len(lv), func(i int) bool { return lv[i].attrs >= x })
	if i < len(lv) && lv[i].attrs == x {
		return &lv[i]
	}
	return nil
}

// DiscoverTANE implements TANE (Huhtala et al., 1999): level-wise lattice
// traversal with rhs⁺ candidate sets, stripped-partition products, the
// partition-error validity test, and key-based pruning.
func DiscoverTANE(rel *relation.Relation) *Result {
	return DiscoverTANEOpts(rel, DefaultOptions())
}

// DiscoverTANEOpts is DiscoverTANE with explicit options. Levels live in
// sorted slices; next-level partition refinements fan out over opts.Workers
// goroutines with retained per-worker ProductBuffers, writing into
// per-candidate slots so the result is byte-identical for any worker count.
func DiscoverTANEOpts(rel *relation.Relation, opts Options) *Result {
	res, _ := DiscoverTANEContext(context.Background(), rel, opts)
	return res
}

// DiscoverTANEContext is DiscoverTANEOpts with cooperative cancellation:
// the lattice traversal stops between levels and between partition-product
// jobs, returning the minimal FDs established by completed levels plus the
// wrapped context error.
func DiscoverTANEContext(ctx context.Context, rel *relation.Relation, opts Options) (*Result, error) {
	n := rel.NumCols()
	all := rel.Schema().All()
	workers := exec.Workers(opts.Workers)
	span := opts.Stats.Span("fd.tane")
	span.Workers(workers)
	defer span.End()
	pc, err := relation.NewPartitionCacheContext(ctx, rel, workers)
	bufs := make([]relation.ProductBuffer, workers)
	var sigma core.Set
	if err != nil {
		return &Result{Algorithm: TANE, FDs: sigma}, err
	}

	emptyErr := pc.Get(relation.EmptySet).Error()

	level := make(taneLevel, 0, n)
	for a := 0; a < n; a++ {
		s := relation.Single(a)
		level = append(level, taneNode{attrs: s, cplus: all, part: pc.Get(s)})
	}
	// prev is the previous level after pruning. Every node of the current
	// level was generated only when all of its immediate subsets survived
	// pruning, so the lhs of every validity test is found in prev (or is ∅
	// at level 1) — holdsFD probes never touch the cache.
	var prev taneLevel

	for len(level) > 0 {
		if err := exec.Interrupted(ctx, "tane level"); err != nil {
			return &Result{Algorithm: TANE, FDs: minimize(sigma)}, err
		}
		// computeDependencies
		for i := range level {
			nd := &level[i]
			x := nd.attrs
			// C⁺(X) = ∩_{A∈X} C⁺(X\A) computed at node creation for l ≥ 2;
			// level 1 uses R.
			for _, a := range x.Intersect(nd.cplus).Attrs() {
				lhs := x.Without(a)
				lhsErr := emptyErr
				if !lhs.IsEmpty() {
					lhsErr = prev.find(lhs).part.Error()
				}
				if lhsErr == nd.part.Error() {
					sigma = append(sigma, FD{LHS: lhs, RHS: a})
					nd.cplus = nd.cplus.Without(a)
					// TANE rule: remove all B ∈ R \ X from C⁺(X). Valid for
					// FDs (by transitivity-style reasoning) though not for
					// OFDs — the distinction the paper highlights.
					nd.cplus = nd.cplus.Intersect(x)
				}
			}
		}
		// prune: emit superkey dependencies first (the minimality test
		// consults sibling nodes' C⁺ sets, so removals must wait), then
		// drop superkey nodes and nodes with empty C⁺.
		doomed := make([]bool, len(level))
		for i := range level {
			nd := &level[i]
			if nd.cplus.IsEmpty() {
				doomed[i] = true
				continue
			}
			if !nd.part.IsKeyOver() {
				continue
			}
			// X is a superkey: emit X → A for A ∈ C⁺(X)\X that pass the
			// key-based minimality test A ∈ ∩_{B∈X} C⁺(X ∪ A \ B).
			for _, a := range nd.cplus.Minus(nd.attrs).Attrs() {
				inAll := true
				for _, b := range nd.attrs.Attrs() {
					sub := nd.attrs.With(a).Without(b)
					// A sibling pruned from the level (superkey or empty
					// C⁺) does not exclude A; emissions here are sound in
					// any case (a superkey determines every attribute) and
					// the final minimize() removes non-minimal output.
					if other := level.find(sub); other != nil && !other.cplus.Has(a) {
						inAll = false
						break
					}
				}
				if inAll {
					sigma = append(sigma, FD{LHS: nd.attrs, RHS: a})
				}
			}
			doomed[i] = true
		}
		pruned := level[:0]
		for i := range level {
			if !doomed[i] {
				pruned = append(pruned, level[i])
			}
		}
		// generateNextLevel via prefix blocks: two pruned nodes combine
		// when they share all attributes but the largest. Sorting an index
		// by (prefix, attrs) makes blocks contiguous.
		order := make([]int, len(pruned))
		prefixes := make([]relation.AttrSet, len(pruned))
		for i := range pruned {
			order[i] = i
			prefixes[i] = pruned[i].attrs.Without(pruned[i].attrs.Last())
		}
		sort.Slice(order, func(i, j int) bool {
			pi, pj := prefixes[order[i]], prefixes[order[j]]
			if pi != pj {
				return pi < pj
			}
			return pruned[order[i]].attrs < pruned[order[j]].attrs
		})
		// Each candidate is built by refining its smallest-payload
		// drop-one parent with the missing column's row→class vector.
		type taneCand struct {
			attrs relation.AttrSet
			cplus relation.AttrSet
			base  *relation.Partition
			col   int
		}
		var cands []taneCand
		for start := 0; start < len(order); {
			end := start + 1
			for end < len(order) && prefixes[order[end]] == prefixes[order[start]] {
				end++
			}
			for i := start; i < end; i++ {
				for j := i + 1; j < end; j++ {
					c := taneCand{attrs: pruned[order[i]].attrs.Union(pruned[order[j]].attrs), cplus: all}
					ok := true
					for _, a := range c.attrs.Attrs() {
						sub := pruned.find(c.attrs.Without(a))
						if sub == nil {
							ok = false
							break
						}
						c.cplus = c.cplus.Intersect(sub.cplus)
						if c.base == nil || sub.part.Size() < c.base.Size() {
							c.base, c.col = sub.part, a
						}
					}
					if ok && !c.cplus.IsEmpty() {
						cands = append(cands, c)
					}
				}
			}
			start = end
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i].attrs < cands[j].attrs })
		next := make(taneLevel, len(cands))
		span.Items(len(cands))
		if err := exec.For(ctx, len(cands), workers, func(w, i int) {
			c := cands[i]
			p := pc.Refine(c.base, c.col, &bufs[w])
			next[i] = taneNode{attrs: c.attrs, cplus: c.cplus, part: p}
		}); err != nil {
			// Partial next-level slots are discarded; sigma holds only
			// dependencies from fully verified levels.
			return &Result{Algorithm: TANE, FDs: minimize(sigma)}, err
		}
		prev = append(taneLevel(nil), pruned...)
		level = next
	}
	sigma = minimize(sigma)
	return &Result{Algorithm: TANE, FDs: sigma, RawCount: len(sigma)}, nil
}
