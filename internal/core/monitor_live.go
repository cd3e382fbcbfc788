package core

import (
	"context"
	"fmt"

	"github.com/fastofd/fastofd/internal/exec"
)

// This file is the monitor's live-Σ surface: registration of
// dependencies as a discovered cover drifts, and absorption of appends
// the merged pipeline's maintainer already wrote. Everything here reuses
// the same shard state and publish protocol as ApplyBatch and AppendRow,
// so reports remain byte-identical to a fresh Detect either way.

// Register adds dependency d to the monitored set and builds its live
// index state: routing, shard overlays, multisets, and violation records,
// exactly as construction would have. The new dependency's violations
// appear in the next published epoch.
func (m *Monitor) Register(d OFD) error {
	for _, e := range m.sigma {
		if e.LHS == d.LHS && e.RHS == d.RHS {
			return fmt.Errorf("core: dependency already monitored")
		}
	}
	i := len(m.sigma)
	m.sigma = append(m.sigma, d)
	m.lhsCols = append(m.lhsCols, nil)
	m.classOf = append(m.classOf, nil)
	m.rowShard = append(m.rowShard, nil)
	m.byRHS[d.RHS] = append(m.byRHS[d.RHS], int32(i))
	for _, sh := range m.shards {
		sh.idx = append(sh.idx, nil)
		sh.viol = append(sh.viol, nil)
		sh.fdOnly = append(sh.fdOnly, nil)
	}
	m.lhsAttrs = m.lhsAttrs.Union(d.LHS)
	m.routeIndex(i)
	w := exec.Workers(m.Workers)
	_ = exec.For(context.Background(), m.nShards, w, func(_, s int) {
		m.shards[s].buildStateOFD(m, i)
		m.shards[s].rebuildSnap()
	})
	m.publish()
	return nil
}

// Unregister removes dependency d from the monitored set, dropping its
// index state and violation records. Epochs already published keep
// reporting it (snapshots are immutable); the next epoch no longer does.
func (m *Monitor) Unregister(d OFD) error {
	at := -1
	for i, e := range m.sigma {
		if e.LHS == d.LHS && e.RHS == d.RHS {
			at = i
			break
		}
	}
	if at < 0 {
		return fmt.Errorf("core: dependency not monitored")
	}
	m.sigma = append(m.sigma[:at], m.sigma[at+1:]...)
	m.lhsCols = append(m.lhsCols[:at], m.lhsCols[at+1:]...)
	m.classOf = append(m.classOf[:at], m.classOf[at+1:]...)
	m.rowShard = append(m.rowShard[:at], m.rowShard[at+1:]...)
	for c := range m.byRHS {
		m.byRHS[c] = m.byRHS[c][:0]
	}
	for i, e := range m.sigma {
		m.byRHS[e.RHS] = append(m.byRHS[e.RHS], int32(i))
	}
	m.lhsAttrs = 0
	for _, e := range m.sigma {
		m.lhsAttrs = m.lhsAttrs.Union(e.LHS)
	}
	for _, sh := range m.shards {
		sh.idx = append(sh.idx[:at], sh.idx[at+1:]...)
		sh.viol = append(sh.viol[:at], sh.viol[at+1:]...)
		sh.fdOnly = append(sh.fdOnly[:at], sh.fdOnly[at+1:]...)
		sh.rebuildSnap()
	}
	m.publish()
	return nil
}

// AbsorbAppends joins rows [t0, NumRows()) — already appended to the
// relation by the co-located maintainer — under every dependency and
// publishes one epoch for the whole batch.
func (m *Monitor) AbsorbAppends(t0 int) {
	end := m.rel.NumRows()
	if t0 >= end {
		return
	}
	if m.needHydrate {
		m.hydrateIndexes()
	}
	for t := t0; t < end; t++ {
		m.absorbRow(int32(t))
	}
	m.refreshSnaps()
	m.publish()
}

// Verifier returns the monitor's verifier (shared across the pipeline's
// engines).
func (m *Monitor) Verifier() *Verifier { return m.v }
