package discovery

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/fastofd/fastofd/internal/core"
)

// TestMaintainerWorkersRepairEquivalence is the level-parallel repair's
// stream-equivalence sweep: for random instances and mixed update/append
// streams, every worker count lands the same cover and the same diff
// after every batch, and the single-worker reference stays equivalent to
// fresh discovery. Determinism must come from the staged canonical-order
// commit and node-order verdict slots, not from scheduling luck.
func TestMaintainerWorkersRepairEquivalence(t *testing.T) {
	sweep := []int{1, 2, 0} // reference (caller's goroutine only), two workers, all CPUs
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 20; trial++ {
		rel, ont := randomInstance(rng)
		stream := randomStream(rng, rel, 4, 8)
		mts := make([]*Maintainer, len(sweep))
		for k, w := range sweep {
			opts := DefaultOptions()
			opts.Workers = w
			var err error
			mts[k], err = NewMaintainer(rel.Clone(), ont, opts)
			if err != nil {
				t.Fatalf("trial %d: NewMaintainer(Workers=%d): %v", trial, w, err)
			}
		}
		for b, op := range stream {
			var first core.Set
			var firstDiff Diff
			for k, mt := range mts {
				diff := applyOp(t, mt, op)
				got := mt.Cover()
				if k == 0 {
					first, firstDiff = got, diff
					want := Discover(mt.rel, ont, DefaultOptions()).OFDs
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("trial %d batch %d: Workers=1 cover diverged from fresh discovery\n got: %v\nwant: %v",
							trial, b, got, want)
					}
					continue
				}
				if !reflect.DeepEqual(got, first) {
					t.Fatalf("trial %d batch %d: Workers=%d cover differs from Workers=1\n got: %v\nwant: %v",
						trial, b, sweep[k], got, first)
				}
				if !reflect.DeepEqual(diff, firstDiff) {
					t.Fatalf("trial %d batch %d: Workers=%d diff differs from Workers=1\n got: %+v\nwant: %+v",
						trial, b, sweep[k], diff, firstDiff)
				}
			}
		}
	}
}

// TestMaintainerMidRepairCancellation interrupts repairs at varying
// depths, on two workers and on one (the caller's goroutine only), over
// the same instances: a cancelled batch must roll back atomically (cover,
// epoch, and relation exactly as before), the rolled-back state must
// still match a fresh discovery over the restored instance, no
// verification workers may outlive the call, and landing the same batch
// afterwards must behave as if the cancellation never happened. Each
// worker count must see at least one cancellation land inside the repair
// itself, not only at the dirty-phase boundary.
func TestMaintainerMidRepairCancellation(t *testing.T) {
	for _, workers := range []int{2, 1} {
		rng := rand.New(rand.NewSource(131))
		midRepair := 0
		for trial := 0; trial < 8; trial++ {
			rel, ont := randomInstance(rng)
			opts := DefaultOptions()
			opts.Workers = workers
			mt, err := NewMaintainer(rel.Clone(), ont, opts)
			if err != nil {
				t.Fatal(err)
			}
			stream := randomStream(rng, mt.rel, 4, 4)
			polls := []int{1, 2, 3, 5, 8}
			for b, op := range stream {
				if len(op.updates) == 0 {
					continue
				}
				coverBefore := mt.Cover()
				epochBefore := mt.Epoch()
				rowsBefore := mt.rel.Rows()
				before := runtime.NumGoroutine()
				_, err := mt.ApplyBatch(newCancelAfterPolls(polls[b%len(polls)]), op.updates)
				if err != nil {
					if !errors.Is(err, context.Canceled) {
						t.Fatalf("trial %d batch %d: want context.Canceled, got %v", trial, b, err)
					}
					if strings.Contains(err.Error(), "maintain.verify") {
						midRepair++
					}
					if got := mt.Cover(); !reflect.DeepEqual(got, coverBefore) {
						t.Fatalf("trial %d batch %d: cover changed across cancelled repair\n got: %v\nwant: %v",
							trial, b, got, coverBefore)
					}
					if mt.Epoch() != epochBefore {
						t.Fatalf("trial %d batch %d: epoch advanced across cancelled repair", trial, b)
					}
					if got := mt.rel.Rows(); !reflect.DeepEqual(got, rowsBefore) {
						t.Fatalf("trial %d batch %d: relation changed across cancelled repair", trial, b)
					}
					// Post-cancel Discover identity: the restored instance still
					// yields exactly the maintained cover.
					if want := Discover(mt.rel, ont, DefaultOptions()).OFDs; !reflect.DeepEqual(coverBefore, want) {
						t.Fatalf("trial %d batch %d: post-cancel discovery diverged\n got: %v\nwant: %v",
							trial, b, coverBefore, want)
					}
					waitGoroutines(t, before)
				}
				// Land the full op (updates and appends) for real; any state the
				// rollback failed to restore surfaces as a divergence here or on
				// a later batch.
				applyOp(t, mt, op)
				got := mt.Cover()
				want := Discover(mt.rel, ont, DefaultOptions()).OFDs
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d batch %d: post-cancellation cover diverged\n got: %v\nwant: %v",
						trial, b, got, want)
				}
			}
		}
		if midRepair == 0 {
			t.Fatalf("Workers=%d: no cancellation landed inside a repair", workers)
		}
	}
}
