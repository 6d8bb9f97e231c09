package reclaim

import (
	"sort"
	"sync/atomic"

	"qsense/internal/fence"
	"qsense/internal/mem"
)

// hpSlot is a single hazard-pointer cell, padded to a cache line so that a
// worker's publications do not false-share with its neighbours' — the same
// layout discipline the paper's C implementation (and ASCYLIB) uses.
type hpSlot struct {
	v atomic.Uint64
	_ [56]byte
}

// hprec is one worker's hazard pointer record.
//
// shared is the array scans read — the paper's globally visible HP array.
// pending is where Cadence and QSense publish, with no fence: a plain store
// (fence.Publish) wherever the process registered for asymmetric fences,
// an atomic store otherwise. Only a rooster pass makes pending visible to
// scans: it issues one process-wide fence.Heavy, then copies pending into
// shared (FlushHP). A plain-store entry may sit in its core's store buffer
// until that barrier, and an unflushed entry is invisible to scans either
// way — exactly the fenceless HP store of the paper, which a reclaimer on
// another core cannot see before the rooster's context switch. Classic HP
// bypasses pending and stores straight to shared, paying the modeled
// fence. README.md, "Hazard-pointer publication and the rooster", has the
// safety argument.
//
// leased mirrors the record's slot lease (slots.go): scans and rooster
// flushes skip unleased records. An unleased record's slots are all nil
// (Release drains both arrays), so the skip changes no scan outcome; it
// keeps scan cost proportional to the leased worker count rather than the
// arena size, which matters when MaxWorkers is sized generously. Skipping
// a record whose lease races the snapshot is safe for the same reason a
// protection published after a snapshot may be missed: the new tenant's
// link re-validation (§3.2) rejects any node that was unlinked — and thus
// retired — before it could be scanned.
type hprec struct {
	leased  atomic.Bool
	pending []hpSlot
	shared  []hpSlot
}

func newHPRec(k int) *hprec {
	return &hprec{pending: make([]hpSlot, k), shared: make([]hpSlot, k)}
}

// publishPending is the fence-free assign_HP of Cadence/QSense.
func (h *hprec) publishPending(i int, r mem.Ref) {
	fence.Publish(&h.pending[i].v, uint64(r.Untagged()))
}

// publishShared is classic HP's assign_HP minus the fence; the caller pays
// the fence model.
func (h *hprec) publishShared(i int, r mem.Ref) {
	h.shared[i].v.Store(uint64(r.Untagged()))
}

// FlushHP copies pending slots into shared slots; called by rooster passes,
// after the pass's fence.Heavy has made every earlier publication visible.
// It also refreshes pending copies into shared for the worker's own later
// clears: flushing a zero clears the shared slot too, so protections do not
// outlive their release by more than one pass. Unleased records are skipped
// (their slots are already drained); a flush racing a Release can at worst
// re-publish a stale shared entry, which the next pass after re-lease
// clears — stale entries delay reclamation, never unblock it.
func (h *hprec) FlushHP() {
	if !h.leased.Load() {
		return
	}
	for i := range h.pending {
		h.shared[i].v.Store(h.pending[i].v.Load())
	}
}

// clearPending is the fence-free clear of every pending slot, published
// like publishPending.
func (h *hprec) clearPending() {
	for i := range h.pending {
		fence.Publish(&h.pending[i].v, 0)
	}
}

func (h *hprec) clearShared() {
	for i := range h.shared {
		h.shared[i].v.Store(0)
	}
}

// hpSnapshot is a sorted snapshot of every worker's shared hazard pointers,
// built once per scan (Michael's scan, stage 1).
type hpSnapshot struct {
	vals []uint64
}

// recFlusher is the rooster flush target of the fence-free schemes
// (Cadence, QSense): ONE registered target per SHARD that walks its own
// pool's occupancy index (shard-local indices) and flushes only occupied
// records. It replaces the old per-record registration, so rooster passes
// cost O(live occupancy) too, parked segments are skipped outright (their
// records were drained at release and cannot re-lease while parked), and
// growth no longer touches the rooster at all. A record whose lease races
// a pass publishes its first pending protection after its occupancy bit
// was set, so the pass that must flush it (the one defining its nodes'
// old-enough ticks) walks after the bit is visible — the tick-rule
// argument in rooster's package doc is unchanged. (The snapshot builder
// that scans these flushed arrays across all shards is snapshotShared in
// shard.go.)
type recFlusher struct {
	p    *slotPool
	recs *arena[*hprec]
	cnt  *counters
}

// FlushHP implements rooster.Target. An idle shard (zero live occupancy)
// is skipped outright — not even its segment-0 states are loaded; sound by
// the same SC edge walk skipping uses (shard.go's file comment).
func (f *recFlusher) FlushHP() {
	if f.p.live.Load() == 0 {
		return
	}
	n := f.p.walkOccupied(func(w int) bool {
		f.recs.at(w).FlushHP()
		return true
	})
	f.cnt.scanned.Add(uint64(n))
}

// contains reports whether r is protected in the snapshot (stage 2 lookup).
func (s hpSnapshot) contains(r mem.Ref) bool {
	v := uint64(r.Untagged())
	i := sort.Search(len(s.vals), func(i int) bool { return s.vals[i] >= v })
	return i < len(s.vals) && s.vals[i] == v
}

// retired is a node awaiting reclamation: the paper's timestamped_node.
// stamp is the rooster tick at Retire time (QSBR ignores it). birth is the
// node's birth era, read from the domain's EraSource at Retire; only the
// interval scheme (ibr) sets or reads it — for every other scheme it stays 0.
type retired struct {
	ref   mem.Ref
	stamp uint64
	birth uint64
}
