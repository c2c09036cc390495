package server

import (
	"fmt"
	"sync"

	"abg/internal/alloc"
)

// ShareTable is the capacity model a cluster installs into each engine shard:
// the shard's effective processor count at quantum q is the capacity share the
// cluster-level allocator assigned it for that quantum, further clamped by any
// fault-plan capacity model (capacity churn applies to the whole machine, so a
// shard can never use more of it than its share).
//
// The table is the hinge that keeps sharded runs exactly recoverable: a
// shard's share for quantum q depends on the *other* shards' desires, which
// its own journal cannot reconstruct. The driver therefore journals each
// assigned share inside the shard's step record (see stepRecord), and
// applying a step record installs its share before the quantum re-executes —
// making every shard's replay a pure function of its own journal bytes again.
//
// Quanta with no entry fall back to the full machine clamped by the base
// model, so a ShareTable with no shares installed behaves exactly like its
// base model — which is also why single-engine journals (whose step records
// carry no shares) replay unchanged under one.
type ShareTable struct {
	total int
	base  alloc.Capacity // optional fault-plan model, nil for a fixed machine

	mu     sync.Mutex
	shares map[int]int // quantum index q (1-based, == boundary+1) → share
}

// NewShareTable builds a share table for a machine of total processors whose
// baseline availability is base (nil means the fixed machine).
func NewShareTable(total int, base alloc.Capacity) *ShareTable {
	return &ShareTable{total: total, base: base, shares: make(map[int]int)}
}

// Set pins the shard's capacity share for quantum q. Negative shares clear
// the entry (full machine again).
func (t *ShareTable) Set(q, share int) {
	t.mu.Lock()
	if share < 0 {
		delete(t.shares, q)
	} else {
		t.shares[q] = share
	}
	t.mu.Unlock()
}

// ShareAt returns the share pinned for quantum q, if any.
func (t *ShareTable) ShareAt(q int) (int, bool) {
	t.mu.Lock()
	share, ok := t.shares[q]
	t.mu.Unlock()
	return share, ok
}

// PruneBelow drops entries for quanta before q — the engine has executed
// them, so they can never be read again. Keeps a long-running table bounded.
func (t *ShareTable) PruneBelow(q int) {
	t.mu.Lock()
	for k := range t.shares {
		if k < q {
			delete(t.shares, k)
		}
	}
	t.mu.Unlock()
}

// At implements alloc.Capacity: min(assigned share, base availability),
// defaulting to the base availability when no share is pinned.
func (t *ShareTable) At(q int) int {
	base := alloc.CapAt(t.base, q, t.total)
	share, ok := t.ShareAt(q)
	if !ok || share > base {
		return base
	}
	return share
}

// Name implements alloc.Capacity.
func (t *ShareTable) Name() string {
	if t.base != nil {
		return fmt.Sprintf("cluster-share(%s)", t.base.Name())
	}
	return "cluster-share"
}
