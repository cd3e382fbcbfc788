package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"

	"github.com/fastofd/fastofd/internal/exec"
	"github.com/fastofd/fastofd/internal/live"
	"github.com/fastofd/fastofd/internal/relation"
)

// Monitor is the incremental detection engine: it maintains OFD violation
// state under batched cell updates and appended tuples —
// the "data evolves" scenario of the paper's introduction — without ever
// rebuilding partitions or re-verifying untouched classes.
//
// The state is sharded by LHS-key hash: for each OFD, every equivalence
// class (and lone row) is routed to one of NumShards() independent shards,
// each owning its own relation.PartitionOverlay view of the cached base
// partition, LHS-key index, consequent-value multisets, and violation
// maps. One batch engine (absorb) partitions a batch's cell writes by
// (OFD, shard) and fans the multiset maintenance and re-verification out
// over exec.For with no shared write state — the three stages are
// observable as monitor.route / monitor.apply / monitor.merge spans.
// ApplyBatch (standalone writes) and AbsorbBatch (writes another engine
// applied) both run it. Because ApplyBatch rejects antecedent updates, a
// tuple's shard per OFD is fixed between re-routes and routing is a table
// lookup.
//
// Violation state is published as epoch-stamped immutable snapshots:
// every mutating operation materializes the affected classes' Violation
// records eagerly and swaps in a fresh snapshot, so Report (and
// ReportAt) read only frozen data and may run concurrently with a
// subsequent AppendRow/ApplyBatch on the owner goroutine. The
// cross-shard merge is canonical — for any shard count and any Workers
// value, Report is byte-identical to running Detect from scratch on the
// current instance.
//
// A Monitor is single-writer: mutating methods must be called from one
// goroutine at a time. Report, ReportAt, Epoch, Satisfied, and
// ViolationCount are safe to call concurrently with the writer.
type Monitor struct {
	rel   *relation.Relation
	v     *Verifier
	sigma Set
	// Workers bounds the parallel fan-out of ApplyBatch's apply/merge
	// stages and the initial index build (0 selects all CPUs, as
	// everywhere on the exec substrate).
	Workers int
	// Stats, when non-nil, receives monitor.build, monitor.route,
	// monitor.apply, and monitor.merge stage spans.
	Stats *exec.Stats

	nShards int
	shards  []*monitorShard
	// lhsCols[i] = sigma[i].LHS.Attrs(), cached for key encoding.
	lhsCols [][]int
	// byRHS[col] lists the dependency indexes whose consequent is col.
	byRHS [][]int32
	// classOf[i][t] = shard-local class id of tuple t within shard
	// rowShard[i][t] under sigma[i], or -1 when the tuple is (still) in a
	// singleton class.
	classOf [][]int32
	// rowShard[i][t] = shard owning tuple t's antecedent key under
	// sigma[i]. Fixed until sigma[i] is re-routed.
	rowShard [][]uint8
	lhsAttrs relation.AttrSet

	epoch   uint64
	history historyPtr

	// needHydrate marks a snapshot-restored monitor whose LHS-key index
	// maps are still in frozen array form; the first AppendRow hydrates
	// them (no other operation consults the indexes).
	needHydrate bool

	keyBuf    []byte      // LHS-key encoding scratch (AppendRow)
	snapDirty []bool      // per-shard "snapshot stale" scratch
	writes    []CellWrite // ApplyBatch effective-write scratch
}

// CellWrite is one deduplicated effective cell write of a batch, with the
// pre-batch value retained for rollback. Both incremental engines speak
// it: both build their batch's write log with EffectiveWrites, and the
// maintainer exposes its log as []CellWrite so the merged pipeline can
// feed one engine's writes to the other without re-validating.
type CellWrite struct {
	Row, Col int
	Old, New relation.Value
}

// EffectiveWrites reduces a batch of updates to its write log: one
// last-write-wins CellWrite per cell, Old holding the cell's current
// value, with writes of a cell's current value dropped, sorted by
// (row, col). Values are interned in batch order; no cell is written.
// Every update must be in range (callers validate first). buf's storage
// is reused.
func EffectiveWrites(rel *relation.Relation, updates []CellUpdate, buf []CellWrite) []CellWrite {
	buf = buf[:0]
	for _, u := range updates {
		buf = append(buf, CellWrite{Row: u.Row, Col: u.Col, Old: rel.Value(u.Row, u.Col), New: rel.Dict(u.Col).Intern(u.Value)})
	}
	// Stable, so same-cell writes keep batch order and the last one wins.
	slices.SortStableFunc(buf, func(a, b CellWrite) int {
		if a.Row != b.Row {
			return cmp.Compare(a.Row, b.Row)
		}
		return cmp.Compare(a.Col, b.Col)
	})
	out := buf[:0]
	for k, wr := range buf {
		if k+1 < len(buf) && buf[k+1].Row == wr.Row && buf[k+1].Col == wr.Col {
			continue
		}
		if wr.New != wr.Old {
			out = append(out, wr)
		}
	}
	return out
}

// CellUpdate is one cell write of a batched update: set cell (Row, Col) to
// Value.
type CellUpdate struct {
	Row, Col int
	Value    string
}

// class verification outcome; ordered so "worse" states are larger.
const (
	classOK        uint8 = iota // consequent syntactically constant
	classFDOnly                 // an FD would flag it; the ontology clears it
	classViolating              // no common interpretation
)

// maxShards bounds the shard count: rowShard stores shard ids as uint8.
const maxShards = 256

// resolveShards maps a requested shard count to the effective one:
// positive counts are clamped to maxShards, zero selects the smallest
// power of two covering the resolved worker count (capped at 64), and
// negative counts fall back to a single shard.
func resolveShards(shards, workers int) int {
	if shards > 0 {
		if shards > maxShards {
			return maxShards
		}
		return shards
	}
	if shards < 0 {
		return 1
	}
	w := exec.Workers(workers)
	s := 1
	for s < w && s < 64 {
		s <<= 1
	}
	return s
}

// NewMonitor builds a monitor over v's relation and Σ and computes the
// initial violation state. v is the partition-cache-backed verifier the
// monitor reads its base partitions from: a private one for standalone
// monitoring, or the merged pipeline's verifier shared with the
// maintainer and the repair search. Whoever writes v's relation evicts
// the attribute sets it touched from v's cache (ApplyBatch does so for
// its own writes).
//
// shards > 0 uses that many LHS-key shards (clamped to 256), 0 derives
// the count from the worker count; workers bounds the index build and
// ApplyBatch's fan-out (0 = all CPUs); stats, when non-nil, receives
// monitor.build, monitor.route, monitor.apply, and monitor.merge spans.
// The violation state is identical for every shard and worker count.
//
// Σ may chain dependencies (A→B, B→C): updates touching any monitored
// antecedent are rejected, so a standalone batch never changes a class
// structure. A cancelled build stops between dependencies and returns a
// nil Monitor — a partially indexed monitor would report wrong violation
// counts — with an error satisfying errors.Is(err, ctx.Err()).
func NewMonitor(ctx context.Context, v *Verifier, sigma Set, shards, workers int, stats *exec.Stats) (*Monitor, error) {
	rel := v.Relation()
	var lhs relation.AttrSet
	for _, d := range sigma {
		lhs = lhs.Union(d.LHS)
	}
	w := exec.Workers(workers)
	nShards := resolveShards(shards, workers)
	span := stats.Span("monitor.build")
	span.Workers(w)
	span.Shards(nShards)
	span.Items(len(sigma))
	defer span.End()
	m := &Monitor{
		rel:       rel,
		v:         v,
		sigma:     sigma.Clone(),
		Workers:   workers,
		Stats:     stats,
		nShards:   nShards,
		shards:    make([]*monitorShard, nShards),
		lhsCols:   make([][]int, len(sigma)),
		byRHS:     make([][]int32, rel.NumCols()),
		classOf:   make([][]int32, len(sigma)),
		rowShard:  make([][]uint8, len(sigma)),
		lhsAttrs:  lhs,
		snapDirty: make([]bool, nShards),
	}
	for i, d := range m.sigma {
		m.byRHS[d.RHS] = append(m.byRHS[d.RHS], int32(i))
	}
	for s := range m.shards {
		m.shards[s] = newMonitorShard(len(sigma))
	}
	// Phase 1 — route: each dependency's classes and lone rows are hashed
	// to shards. Iteration i writes only index-i slots of per-shard
	// slices/maps, so the fan-out over dependencies is race-free.
	if err := exec.For(ctx, len(m.sigma), w, func(_, i int) {
		m.routeIndex(i)
	}); err != nil {
		return nil, err
	}
	// Phase 2 — per-shard state: multisets, initial class states, and
	// materialized violation records, fully shard-local.
	if err := exec.For(ctx, nShards, w, func(_, s int) {
		m.shards[s].buildState(m)
	}); err != nil {
		return nil, err
	}
	m.publishInit()
	st := m.v.Partitions().Stats()
	span.Cache(st.Hits, st.Misses)
	return m, nil
}

// checkUpdate validates one cell write against the monitor's scope.
func (m *Monitor) checkUpdate(row, col int) error {
	if row < 0 || row >= m.rel.NumRows() || col < 0 || col >= m.rel.NumCols() {
		return fmt.Errorf("core: cell (%d,%d) out of range", row, col)
	}
	if m.lhsAttrs.Has(col) {
		return fmt.Errorf("core: attribute %s is an antecedent; monitored updates must touch consequents only", m.rel.Schema().Name(col))
	}
	return nil
}

// AppendRow appends one tuple (strings in schema order) to the monitored
// relation and joins it to its equivalence class under every OFD via the
// owning shard's LHS-key index — O(|X|) per dependency, no partition
// rebuild. A tuple whose antecedent key matches a formerly-singleton row
// births a new two-tuple class in that shard's overlay; a fresh key
// records a new singleton. Only the joined classes are re-verified.
// Returns the new row id.
func (m *Monitor) AppendRow(row []string) (int, error) {
	if len(row) != m.rel.NumCols() {
		return 0, fmt.Errorf("core: append of %d cells into %d attributes", len(row), m.rel.NumCols())
	}
	if m.needHydrate {
		m.hydrateIndexes()
	}
	t := int32(m.rel.NumRows())
	m.rel.AppendRow(row)
	m.absorbRow(t)
	m.refreshSnaps()
	m.publish()
	return int(t), nil
}

// absorbRow joins already-appended row t to its equivalence class under
// every OFD via the owning shard's live class index, re-verifying only the
// joined classes and marking their shards' snapshots dirty. The caller
// refreshes snapshots and publishes (AppendRow per row; AbsorbAppends once
// per batch).
func (m *Monitor) absorbRow(t int32) {
	for i := range m.sigma {
		m.keyBuf = EncodeLHSKey(m.rel, m.lhsCols[i], int(t), m.keyBuf)
		s := shardOfKey(m.keyBuf, m.nShards)
		sh := m.shards[s]
		m.rowShard[i] = append(m.rowShard[i], s)
		ci, partner, kind := sh.idx[i].JoinKey(m.rel, m.keyBuf, t)
		switch kind {
		case live.JoinLone:
			m.classOf[i] = append(m.classOf[i], -1)
			continue
		case live.JoinBirth:
			m.classOf[i][partner] = ci
		}
		m.classOf[i] = append(m.classOf[i], ci)
		if sh.reverifyOne(m, i, ci) {
			m.snapDirty[s] = true
		}
	}
}

// ApplyBatch applies a batch of cell updates and re-verifies every
// affected equivalence class exactly once. It validates every update
// before any write, reduces the batch to its effective writes
// (EffectiveWrites), writes the cells, evicts the written attribute sets
// from the partition cache, and folds the writes in through absorb. The
// result is byte-identical for every worker and shard count.
//
// The batch is atomic: a cancelled apply stage rolls the cell writes and
// multiset deltas back and leaves the violation state — and the published
// snapshot — exactly as before the call, returning an error satisfying
// errors.Is(err, ctx.Err()). Updates that rewrite a cell's current value
// are skipped and dirty no classes.
func (m *Monitor) ApplyBatch(ctx context.Context, updates []CellUpdate) error {
	for _, u := range updates {
		if err := m.checkUpdate(u.Row, u.Col); err != nil {
			return err
		}
	}
	m.writes = EffectiveWrites(m.rel, updates, m.writes)
	if len(m.writes) == 0 {
		return nil
	}
	var touched relation.AttrSet
	for _, wr := range m.writes {
		m.rel.SetValue(wr.Row, wr.Col, wr.New)
		touched = touched.With(wr.Col)
	}
	m.v.Partitions().InvalidateTouched(touched)
	if err := m.absorb(ctx, m.writes); err != nil {
		// Interned strings stay in the dictionaries and memoized names
		// tables, which is harmless — both are monotone.
		for _, wr := range m.writes {
			m.rel.SetValue(wr.Row, wr.Col, wr.Old)
		}
		return err
	}
	return nil
}

// AbsorbBatch folds a batch of cell writes another engine already
// validated, applied, and evicted from the shared partition cache (the
// merged pipeline's maintainer) into the monitor's live state and
// publishes one epoch. Writes carry the pre-batch values; antecedent
// writes are allowed here and re-route their dependencies. It cannot fail
// and is not cancellable — the pipeline's atomicity boundary is the
// maintainer's verify, before this call.
func (m *Monitor) AbsorbBatch(writes []CellWrite) {
	_ = m.absorb(context.Background(), writes)
}

// absorb is the monitor's one batch engine, over writes already applied
// to the relation (no-op-free, one per cell). Route (sequential) assigns
// each consequent delta and dirtied (OFD, class) pair to its owning
// shard. Apply (parallel over shards, up to m.Workers goroutines) replays
// the multiset deltas and re-verifies each shard's dirty classes with no
// shared write state, staging materialized violation records. Merge
// commits the staged state and rebuilds the changed shards' snapshots,
// and one epoch is published. Dependencies whose antecedent was written
// lost their class structure; they take no deltas and are re-routed
// wholesale between apply and merge.
//
// Cancellation lands only up to the apply stage: a cancelled ctx reverses
// any applied multiset deltas, leaves the violation state untouched, and
// returns an error satisfying errors.Is(err, ctx.Err()); the caller
// restores the cells. Re-routing is not undoable, so it runs after apply.
func (m *Monitor) absorb(ctx context.Context, writes []CellWrite) error {
	if len(writes) == 0 {
		return nil
	}
	routeSpan := m.Stats.Span("monitor.route")
	routeSpan.Items(len(writes))
	var touched relation.AttrSet
	for _, wr := range writes {
		touched = touched.With(wr.Col)
	}
	var reroute []int
	rerouted := make([]bool, len(m.sigma))
	for i, d := range m.sigma {
		if !d.LHS.Intersect(touched).IsEmpty() {
			rerouted[i] = true
			reroute = append(reroute, i)
		}
	}
	for _, wr := range writes {
		for _, i := range m.byRHS[wr.Col] {
			ci := m.classOf[i][wr.Row]
			if rerouted[i] || ci < 0 {
				continue
			}
			sh := m.shards[m.rowShard[i][wr.Row]]
			sh.bumps = append(sh.bumps, shardBump{ofd: i, class: ci, from: wr.Old, to: wr.New})
			sh.dirty = append(sh.dirty, int64(i)<<32|int64(uint32(ci)))
		}
	}
	var active []int
	for s, sh := range m.shards {
		if len(sh.bumps) > 0 || len(sh.dirty) > 0 {
			active = append(active, s)
		}
	}
	routeSpan.End()
	// The one cancellation point between the route and the shard fan-out:
	// a context cancelled here (or before the call) leaves no multiset
	// applied anywhere.
	if err := exec.Interrupted(ctx, "monitor.apply"); err != nil {
		for _, s := range active {
			m.shards[s].clearBatch()
		}
		return err
	}

	w := exec.Workers(m.Workers)
	if len(active) > 0 {
		applySpan := m.Stats.Span("monitor.apply")
		applySpan.Workers(w)
		applySpan.Shards(len(active))
		applied := make([]bool, len(active))
		err := exec.For(ctx, len(active), w, func(_, k int) {
			sh := m.shards[active[k]]
			sh.applyBatch(m)
			applySpan.Items(len(sh.dirty))
			applied[k] = true
		})
		applySpan.End()
		if err != nil {
			// Shards whose task ran to completion reverse their multiset
			// deltas (exec.For finishes started items, and its WaitGroup
			// ordering makes applied[k] safe to read here); the rest never
			// applied anything.
			for k, s := range active {
				if applied[k] {
					m.shards[s].rollbackBatch()
				} else {
					m.shards[s].clearBatch()
				}
			}
			return err
		}
	}

	// Nothing below is cancellable. Re-routing rebuilds the written-
	// antecedent dependencies' whole shard state over the current
	// partitions (the writer evicted the stale ones).
	if len(reroute) > 0 {
		rerouteSpan := m.Stats.Span("monitor.route")
		rerouteSpan.Workers(w)
		rerouteSpan.Items(len(reroute))
		_ = exec.For(context.Background(), len(reroute), w, func(_, k int) {
			m.routeIndex(reroute[k])
		})
		_ = exec.For(context.Background(), m.nShards, w, func(_, s int) {
			for _, i := range reroute {
				m.shards[s].buildStateOFD(m, i)
			}
			m.shards[s].rebuildSnap()
		})
		rerouteSpan.End()
	}
	// Merge: every staged state lands, per shard in parallel, then one
	// snapshot publish makes the epoch visible.
	mergeSpan := m.Stats.Span("monitor.merge")
	mergeSpan.Workers(w)
	mergeSpan.Shards(len(active))
	_ = exec.For(context.Background(), len(active), w, func(_, k int) {
		sh := m.shards[active[k]]
		mergeSpan.Items(len(sh.dirty))
		sh.commitBatch()
	})
	m.publish()
	mergeSpan.End()
	return nil
}

// Satisfied reports whether the instance currently satisfies every OFD.
// Safe to call concurrently with a writer (reads the latest snapshot).
func (m *Monitor) Satisfied() bool {
	return m.latest().violations() == 0
}

// ViolationCount returns the current number of violating equivalence
// classes across all OFDs. Safe to call concurrently with a writer.
func (m *Monitor) ViolationCount() int {
	return m.latest().violations()
}

// Reverified returns the number of class re-verifications performed since
// construction — the monitor's unit of incremental work (a no-op update
// leaves it unchanged). Not synchronized with a concurrent writer.
func (m *Monitor) Reverified() int {
	n := 0
	for _, sh := range m.shards {
		n += sh.reverified
	}
	return n
}

// NumRows returns the current number of monitored tuples.
func (m *Monitor) NumRows() int { return m.rel.NumRows() }

// NumShards returns the effective LHS-key shard count.
func (m *Monitor) NumShards() int { return m.nShards }

// CacheStats returns the partition cache counters behind the monitor's
// base partitions (hits/misses/entries/bytes), for benchmark reports.
func (m *Monitor) CacheStats() relation.CacheStats {
	return m.v.Partitions().Stats()
}

// ViolatingClasses returns, for each OFD index, the violating classes'
// tuple lists ordered by first tuple id — a canonical order independent
// of the shard count. Not safe to call concurrently with a writer.
func (m *Monitor) ViolatingClasses() map[int][][]int {
	out := make(map[int][][]int)
	for _, sh := range m.shards {
		for i := range sh.viol {
			for ci := range sh.viol[i] {
				class := sh.idx[i].Part.StableView(int(ci))
				tuples := make([]int, len(class))
				for j, t := range class {
					tuples[j] = int(t)
				}
				out[i] = append(out[i], tuples)
			}
		}
	}
	for i := range out {
		sort.Slice(out[i], func(a, b int) bool { return out[i][a][0] < out[i][b][0] })
	}
	return out
}
