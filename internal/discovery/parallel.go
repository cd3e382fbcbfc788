package discovery

import (
	"context"
	"sort"

	"github.com/fastofd/fastofd/internal/core"
	"github.com/fastofd/fastofd/internal/exec"
	"github.com/fastofd/fastofd/internal/relation"
)

// verifyWorkers returns the worker count for candidate verification.
// Parallel verification requires PruneAugmentation: the ablation path
// consults the evolving discovered set (impliedByDiscovered), which cannot
// be read concurrently. The constraint is documented on Options.Workers and
// logged once into the run's stage stats; partition products — the dominant
// cost — honor Options.Workers in every configuration.
func (d *discoverer) verifyWorkers() int {
	if d.opts.PruneAugmentation {
		return d.pool.Size()
	}
	if d.pool.Size() > 1 {
		d.pool.Stats().Note("verification running sequentially: Workers=%d requested but PruneAugmentation is disabled (the ablation path reads the evolving discovered set); partition products still use %d workers", d.opts.Workers, d.pool.Size())
	}
	return 1
}

// workerBufs returns w product buffers, allocating them on first use and
// retaining them across lattice levels (probe arrays are relation-sized;
// reallocating them per level would dominate small-level costs).
func (d *discoverer) workerBufs(w int) []relation.ProductBuffer {
	for len(d.prodBufs) < w {
		d.prodBufs = append(d.prodBufs, relation.ProductBuffer{})
	}
	return d.prodBufs
}

// computeOFDsParallel is the multi-worker form of Algorithm 4: nodes are
// verified concurrently (each node's candidate checks are independent once
// C⁺ sets are fixed at node creation), then results are merged in a
// deterministic order. Workers claim nodes through the shared exec
// substrate — work-stealing rather than static chunking — so one expensive
// node (a wide partition with many classes to verify) cannot strand the
// rest of a precomputed chunk behind it. Cache misses during verification
// are safe: the partition cache is sharded and locked.
//
// A cancelled context stops the fan-out between nodes; the level's partial
// verification results are discarded (Σ keeps only whole levels from this
// path) and the wrapped context error is returned.
func (d *discoverer) computeOFDsParallel(ctx context.Context, level map[relation.AttrSet]*node, stat *LevelStat) error {
	nodes := make([]*node, 0, len(level))
	for _, nd := range level {
		nodes = append(nodes, nd)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].attrs < nodes[j].attrs })

	type nodeResult struct {
		checked int
		valid   relation.AttrSet // consequents whose candidate held
	}
	results := make([]nodeResult, len(nodes))
	w := d.verifyWorkers()
	if err := exec.For(ctx, len(nodes), w, func(_, i int) {
		nd := nodes[i]
		var res nodeResult
		for _, a := range nd.attrs.Intersect(nd.cplus).Attrs() {
			candidate := core.OFD{LHS: nd.attrs.Without(a), RHS: a}
			res.checked++
			if d.valid(candidate, nd) {
				res.valid = res.valid.With(a)
			}
		}
		results[i] = res
	}); err != nil {
		return err
	}

	for i, nd := range nodes {
		stat.Candidates += results[i].checked
		d.result.CandidatesChecked += results[i].checked
		for _, a := range results[i].valid.Attrs() {
			d.sigma = append(d.sigma, core.OFD{LHS: nd.attrs.Without(a), RHS: a})
			stat.Discovered++
			nd.cplus = nd.cplus.Without(a)
		}
	}
	return nil
}

// nextLevel computes the next lattice level (Algorithm 3,
// calculateNextLevel). Candidates come from prefix blocks as in TANE, but
// each node X is built from whichever drop-one parent Y = X \ {a} has the
// smallest stripped payload: Π*_X is Π*_Y refined by column a's row→class
// vector, three passes over min‖Π*_Y‖ instead of a general product of the
// two prefix-block parents. A superkey parent therefore costs nothing,
// and with PruneKeys (Opt-3) its supersets skip the refinement entirely.
// stat receives the level's product count and refined payload.
//
// Candidate enumeration and map insertion stay serial; only the
// refinements — the dominant cost — run concurrently, with workers pulling
// jobs from the shared substrate and each reusing its own level-spanning
// ProductBuffer. Unlike verification, the refinements are independent of
// the discovered set, so they honor Options.Workers in every
// configuration (including the PruneAugmentation ablation). A cancelled
// context stops the fan-out between jobs and surfaces the wrapped error;
// the partially built level is discarded by the caller.
func (d *discoverer) nextLevel(ctx context.Context, level map[relation.AttrSet]*node, stat *LevelStat) (map[relation.AttrSet]*node, error) {
	type job struct {
		x    relation.AttrSet
		base *node // smallest-payload drop-one parent
		col  int   // the attribute x adds to base
		// skipProduct marks supersets of known superkeys (Opt-3).
		skipProduct bool
		cplus       relation.AttrSet
		part        *relation.Partition
	}
	blocks := make(map[relation.AttrSet][]*node)
	for _, nd := range level {
		prefix := nd.attrs.Without(nd.attrs.Last())
		blocks[prefix] = append(blocks[prefix], nd)
	}
	prefixes := make([]relation.AttrSet, 0, len(blocks))
	for p := range blocks {
		prefixes = append(prefixes, p)
	}
	sort.Slice(prefixes, func(i, j int) bool { return prefixes[i] < prefixes[j] })

	seen := make(map[relation.AttrSet]struct{})
	var jobs []*job
	for _, p := range prefixes {
		block := blocks[p]
		sort.Slice(block, func(i, j int) bool { return block[i].attrs < block[j].attrs })
		for i := 0; i < len(block); i++ {
			for j := i + 1; j < len(block); j++ {
				x := block[i].attrs.Union(block[j].attrs)
				if _, done := seen[x]; done {
					continue
				}
				seen[x] = struct{}{}
				jb := &job{x: x, cplus: d.all}
				ok := true
				for _, a := range x.Attrs() {
					sub, in := level[x.Without(a)]
					if !in {
						ok = false
						break
					}
					jb.cplus = jb.cplus.Intersect(sub.cplus)
					if jb.base == nil || sub.part.Size() < jb.base.part.Size() {
						jb.base, jb.col = sub, a
					}
				}
				if !ok {
					continue
				}
				if d.opts.PruneAugmentation && jb.cplus.IsEmpty() {
					continue
				}
				// A superkey parent has the empty (minimum) payload, so
				// base is a superkey iff any parent is.
				jb.skipProduct = d.opts.PruneKeys && jb.base.superkey
				if !jb.skipProduct {
					stat.Products++
					stat.ProductTuples += int64(jb.base.part.Size())
				}
				jobs = append(jobs, jb)
			}
		}
	}

	w := d.pool.Size()
	bufs := d.workerBufs(w)
	pc := d.verifier.Partitions()
	if err := exec.For(ctx, len(jobs), w, func(worker, i int) {
		jb := jobs[i]
		if jb.skipProduct {
			jb.part = &relation.Partition{N: d.rel.NumRows(), Stripped: true}
			return
		}
		jb.part = pc.Refine(jb.base.part, jb.col, &bufs[worker])
	}); err != nil {
		return nil, err
	}

	next := make(map[relation.AttrSet]*node, len(jobs))
	for _, jb := range jobs {
		pc.Put(jb.x, jb.part)
		next[jb.x] = &node{attrs: jb.x, cplus: jb.cplus, part: jb.part, superkey: jb.part.IsKeyOver(), base: jb.base.attrs}
	}
	return next, nil
}
