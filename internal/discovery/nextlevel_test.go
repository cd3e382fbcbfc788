package discovery

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/fastofd/fastofd/internal/exec"
	"github.com/fastofd/fastofd/internal/relation"
)

// TestNextLevelRefinesSmallestParent drives nextLevel level by level on
// random relations. Every node's partition must equal a from-scratch
// grouping of the relation on its attribute set, and must have been
// refined from a drop-one parent of minimum stripped payload. Across the
// run, the rule must pick a parent outside the prefix-block pair at least
// once, or the test would not tell it apart from the pairwise product.
func TestNextLevelRefinesSmallestParent(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	offPrefix := 0
	for trial := 0; trial < 30; trial++ {
		rel, ont := randomInstance(rng)
		for _, workers := range []int{1, 2} {
			for _, pruneKeys := range []bool{true, false} {
				opts := DefaultOptions()
				opts.Workers = workers
				opts.PruneKeys = pruneKeys
				d, err := newDiscoverer(context.Background(), rel, ont, opts, exec.NewStats())
				if err != nil {
					t.Fatal(err)
				}
				level := d.firstLevel()
				for len(level) > 0 {
					var stat LevelStat
					next, err := d.nextLevel(context.Background(), level, &stat)
					if err != nil {
						t.Fatal(err)
					}
					products, tuples := 0, int64(0)
					for x, nd := range next {
						where := func() string {
							return fmt.Sprintf("trial %d workers %d PruneKeys %v x %v", trial, workers, pruneKeys, x)
						}
						want := relation.PartitionOf(rel, x).Strip()
						if !reflect.DeepEqual(nd.part.ClassesAsInts(), want.ClassesAsInts()) {
							t.Fatalf("%s: partition %v, want %v", where(), nd.part.ClassesAsInts(), want.ClassesAsInts())
						}
						base, ok := level[nd.base]
						if !ok || !nd.base.SubsetOf(x) || nd.base.Len() != x.Len()-1 {
							t.Fatalf("%s: refined from %v, not a drop-one parent", where(), nd.base)
						}
						for _, a := range x.Attrs() {
							if p := level[x.Without(a)]; p.part.Size() < base.part.Size() {
								t.Fatalf("%s: refined %v (payload %d) over smaller parent %v (payload %d)",
									where(), nd.base, base.part.Size(), p.attrs, p.part.Size())
							}
						}
						last := x.Last()
						if nd.base != x.Without(last) && nd.base != x.Without(x.Without(last).Last()) {
							offPrefix++
						}
						if !(pruneKeys && base.superkey) {
							products++
							tuples += int64(base.part.Size())
						}
					}
					if stat.Products != products || stat.ProductTuples != tuples {
						t.Fatalf("trial %d: stat reports %d products over %d tuples, nodes show %d over %d",
							trial, stat.Products, stat.ProductTuples, products, tuples)
					}
					level = next
				}
			}
		}
	}
	if offPrefix == 0 {
		t.Fatal("every node was refined from a prefix-block parent; the smallest-parent rule went unexercised")
	}
}
