package reclaim

import (
	"context"
	"fmt"
	"sync/atomic"

	"qsense/internal/fence"
	"qsense/internal/mem"
	"qsense/internal/rooster"
)

// QSense is the paper's hybrid scheme (§5.2, Algorithm 5): QSBR on the fast
// path, Cadence on the fallback path, switching automatically.
//
// Some machinery is always on, whatever the current path (§5.2): hazard
// pointers are published (fence-free, into pending slots) during every
// traversal, retired nodes are always stamped with the rooster tick, and the
// rooster manager keeps flushing pending slots. Fence-free means a plain
// store wherever the process registered for asymmetric fences, with one
// membarrier per rooster pass draining every core's store buffer before the
// flush, and an atomic store otherwise (README.md, "Hazard-pointer
// publication and the rooster"; Stats.AsymmetricPublication reports which). That standing cost is why
// QSense trails plain QSBR slightly in the common case (§7.3) — and it is
// what makes an instant, safe switch to the fallback path possible: the
// moment the fallback flag rises, every reference that was hazardous before
// the switch is already protected.
//
// Path switching:
//
//   - fast -> fallback: a worker whose limbo lists hold >= C nodes raises
//     the shared fallback flag and immediately runs a Cadence scan over its
//     three limbo buckets. Other workers observe the flag in Retire.
//   - fallback -> fast: workers set their presence flag every Q-th Begin;
//     the rooster manager clears all flags every PresenceResetTicks passes.
//     A worker that observes every flag set concludes all workers are live
//     again, lowers the fallback flag, and declares a quiescent state.
//
// Every one of the hybrid's slot-iteration sites — the epoch-advance check,
// the presence sweep and its periodic reset, HP snapshot scans, rooster
// flush passes — walks the occupancy index (occupancy.go), so their cost
// tracks live workers, not the arena's high-water size. Both thresholds
// re-tune with occupancy at capacity transitions (tune.go): R follows the
// scan-amortization formula, and C is re-validated against §6.2's LegalC
// bound for the CURRENT worker count — growth can raise the effective C
// above a configured value that became illegal (Stats.CRetunes counts the
// adjustments).
//
// In fallback mode the three QSBR limbo buckets serve as Cadence's removed
// nodes list and are scanned (deferred, HP-checked) every R retires; in fast
// mode they are freed wholesale on epoch advance, wrappers and all.
type QSense struct {
	cfg      Config
	cnt      counters
	tune     *tuner
	mgr      *rooster.Manager
	fallback atomic.Bool
	epoch    atomic.Uint64
	slots    *shardedPool
	orphans  shardedOrphans
	recs     *shardedArena[*hprec]
	guards   *shardedArena[*qsenseGuard]
}

type qsenseGuard struct {
	d   *QSense
	id  int
	rec *hprec
	// presence is the §5.2 switch-back flag, set every Q-th Begin and
	// cleared by the rooster's periodic reset. It lives on the guard (not
	// a separate fixed array) so it grows with the elastic arena.
	presence  atomic.Bool
	local     atomic.Uint64 // local epoch, read by peers
	limbo     [3][]retired
	total     int // nodes across the three buckets
	calls     int
	sinceScan int
	adoptSeen uint64 // last epoch at which this guard tried orphan adoption
	prevFall  bool   // prev_seen_fallback_flag
	tally     tally
	tc        tunerCache
	scanBuf   []uint64
	mem       membership
	_         [40]byte // keep hot fields of adjacent guards apart
}

// NewQSense builds the hybrid domain and starts its rooster manager (unless
// Config.ManualRooster). A non-zero Config.C below LegalC is rejected,
// since Property 4's 2NC bound needs a legal threshold; once the arena
// grows past the initial Workers, the tuner keeps enforcing the bound
// against the live worker count by raising the effective C as needed.
func NewQSense(cfg Config) (*QSense, error) {
	if err := cfg.Validate(true); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if legal := LegalC(cfg); cfg.C < legal {
		return nil, fmt.Errorf("reclaim: C=%d is not legal (need >= %d; see §6.2)", cfg.C, legal)
	}
	d := &QSense{cfg: cfg, mgr: rooster.NewManager(cfg.Rooster)}
	d.tune = newTuner(cfg, &d.cnt)
	d.orphans.init(cfg.Shards)
	d.recs = newShardedArena(cfg.Shards, cfg.Workers, cfg.HardMaxWorkers, func(i int) *hprec {
		return newHPRec(cfg.HPs)
	})
	d.guards = newShardedArena(cfg.Shards, cfg.Workers, cfg.HardMaxWorkers, func(i int) *qsenseGuard {
		g := &qsenseGuard{d: d, id: i, rec: d.recs.at(i),
			tc: tunerCache{r: cfg.R, c: cfg.C}}
		g.mem.init()
		return g
	})
	d.slots = newShardedPool(cfg.Shards, cfg.Workers, cfg.HardMaxWorkers, d.tune, func(s, hi int) {
		d.recs.growShard(s, hi)
		d.guards.growShard(s, hi)
	})
	// One occupancy-walking flush target per shard (see cadence.go):
	// rooster passes flush only occupied records, idle shards cost one
	// load, and growth never touches the rooster.
	for s, p := range d.slots.pools {
		d.mgr.Register(&recFlusher{p: p, recs: d.recs.shards[s], cnt: &d.cnt})
	}
	d.mgr.AddHook(cfg.PresenceResetTicks, d.resetPresence)
	// A QSense orphan batch carries both evidence forms; the hook uses the
	// deferred-scan one, which works on either path — in particular in
	// fallback mode, where the frozen epoch never matures the other.
	d.mgr.AddHook(1, d.orphans.adoptHook(d.mgr, d.slots, d.recs, d.cfg, &d.cnt))
	if !cfg.ManualRooster {
		d.mgr.Start()
	}
	return d, nil
}

// resetPresence clears the presence flags of the occupied guards (§5.2,
// step 3). Vacant guards' flags are irrelevant — allActive skips inactive
// workers — and a stale flag on a parked segment's guard is cleared by the
// join path when the slot ever leases again.
func (d *QSense) resetPresence() {
	n := d.slots.walkOccupied(func(i int) bool {
		d.guards.at(i).presence.Store(false)
		return true
	})
	d.cnt.scanned.Add(uint64(n))
}

// allActive reports whether every participating worker has signalled
// presence since the last reset, walking only occupied slots (a vacant
// slot's membership is inactive, so the full-arena walk never learned more).
// Workers that left or were evicted do not count, and with EvictAfter set
// the scan itself evicts workers silent for too long — this is what lets
// QSense abandon the fallback path after a permanent crash (the §5.2
// limitation this extension removes). Eviction must happen here as well as
// in the epoch check: on the fallback path nobody declares quiescent
// states, so the epoch check never runs.
func (d *QSense) allActive() bool {
	all := true
	n := d.slots.walkOccupied(func(i int) bool {
		g := d.guards.at(i)
		if g.mem.skipOrEvict(d.cfg.EvictAfter, &d.cnt.evictions) {
			return true
		}
		if !g.presence.Load() {
			all = false
			return false
		}
		return true
	})
	d.cnt.scanned.Add(uint64(n))
	return all
}

// Guard implements Domain (deprecated positional access): pins slot w,
// activates its membership and marks its hazard record live for scans.
func (d *QSense) Guard(w int) Guard {
	first := d.slots.pin(w) // also bounds-checks the positional range
	g := d.guards.at(w)
	if first {
		g.rec.leased.Store(true)
		g.mem.activate(g.adopt)
	}
	return g
}

// Acquire implements Domain: lease a slot, drain any stale hazard state the
// previous tenant's release raced, join the epoch protocol (adopting the
// global epoch and freeing aged-out limbo), and — on the fast path — declare
// the lease itself as a quiescent state so epochs keep rotating even when
// every goroutine is too short-lived to reach a Q-th Begin.
func (d *QSense) Acquire() (Guard, error) {
	w, err := d.slots.lease()
	if err != nil {
		return nil, err
	}
	return d.join(w), nil
}

// AcquireWait implements Domain: Acquire that parks until a slot frees or
// ctx is done.
func (d *QSense) AcquireWait(ctx context.Context) (Guard, error) {
	w, err := d.slots.leaseWait(ctx)
	if err != nil {
		return nil, err
	}
	return d.join(w), nil
}

func (d *QSense) join(w int) Guard {
	g := d.guards.at(w)
	g.rec.clearPending()
	g.rec.clearShared()
	g.presence.Store(false) // never inherit a previous tenant's liveness claim
	g.rec.leased.Store(true)
	g.mem.activate(g.adopt)
	g.tc.refresh(d.tune)
	if !d.fallback.Load() {
		g.quiescent()
	}
	return g
}

// Release implements Domain: drain the guard's hazard pointers, declare a
// final quiescent state (the caller holds no references, per the Release
// contract), run a Cadence scan over the remaining limbo so everything
// provably safe frees now, move what survives to the orphan list — the
// batch carries both evidence forms, so fast-path quiescent states (epoch)
// and fallback/rooster scans (tick + HP) can both adopt it — then Leave and
// recycle the slot.
func (d *QSense) Release(gd Guard) {
	g, ok := gd.(*qsenseGuard)
	if !ok || g.d != d {
		panic(errForeignGuard)
	}
	d.slots.unlease(g.id, func() {
		g.rec.clearPending()
		g.rec.clearShared()
		if !d.fallback.Load() {
			g.quiescent()
		}
		if g.total > 0 {
			g.scanAll()
		}
		g.orphanLimbo()
		g.Leave()
		d.cnt.releaseTally(&g.tally, d.cfg.MemoryLimit)
		g.rec.leased.Store(false)
	})
}

// Name implements Domain.
func (d *QSense) Name() string { return "qsense" }

// Failed implements Domain. With a legal C this never trips (Property 4).
func (d *QSense) Failed() bool { return d.cnt.failed.Load() }

// InFallback reports whether the domain currently runs the fallback path.
func (d *QSense) InFallback() bool { return d.fallback.Load() }

// Rooster exposes the manager so tests can drive passes deterministically.
func (d *QSense) Rooster() *rooster.Manager { return d.mgr }

// GlobalEpoch exposes the global epoch for tests.
func (d *QSense) GlobalEpoch() uint64 { return d.epoch.Load() }

// Stats implements Domain.
func (d *QSense) Stats() Stats {
	s := Stats{Scheme: "qsense", InFallback: d.fallback.Load(), RoosterPasses: d.mgr.Tick(),
		AsymmetricPublication: fence.Asymmetric()}
	d.cnt.fill(&s, d.slots, func(i int) *tally { return &d.guards.at(i).tally })
	d.slots.fillArena(&s)
	return s
}

// Close implements Domain: stops the rooster, frees all limbo contents and
// drains the orphan list. Only call after all workers have stopped.
func (d *QSense) Close() {
	d.mgr.Stop()
	d.guards.forEach(func(g *qsenseGuard) {
		for b := range g.limbo {
			for _, n := range g.limbo[b] {
				d.cfg.Free(n.ref)
			}
			d.cnt.tallyFree(&g.tally, len(g.limbo[b]))
			g.limbo[b] = g.limbo[b][:0]
		}
		g.total = 0
		d.cnt.drainTally(&g.tally)
	})
	d.orphans.drain(d.cfg.Free, &d.cnt)
}

// Begin is manage_qsense_state (Algorithm 5, lines 12–34).
func (g *qsenseGuard) Begin() {
	g.calls++
	if g.calls%g.d.cfg.Q != 0 {
		return
	}
	// Fault point: stalled here the worker neither quiesces nor signals
	// presence — the hybrid's discriminating case: the fast path freezes,
	// the fallback trigger fires, and (with EvictAfter) the stalled worker
	// is eventually evicted so the fast path can resume.
	g.d.cfg.fire(FaultQuiesce, g.id)
	// Signal that this worker is active (presence for the switch-back
	// protocol, the liveness stamp for the eviction clock — fallback-path
	// workers never quiesce but are very much alive).
	g.presence.Store(true)
	g.mem.stampQuiesce()
	if !g.d.fallback.Load() {
		// Common case: run the fast path.
		g.quiescent()
		g.prevFall = false
		return
	}
	// Fallback: try to switch back to the fast path.
	if g.d.allActive() && g.d.fallback.CompareAndSwap(true, false) {
		g.d.cnt.toFast.Add(1)
		g.prevFall = false
		g.quiescent()
		return
	}
	g.prevFall = true
}

// quiescent is QSBR's quiescent state over timestamped buckets. The epoch
// arithmetic (free bucket g mod 3 on adopting g) is derived in qsbr.go; the
// advance check walks only occupied slots (see qsbr.go for why a racing
// lease cannot invalidate the grace period).
func (g *qsenseGuard) quiescent() {
	if !g.mem.active.Load() {
		g.rejoin()
		g.mem.active.Store(true)
	}
	g.mem.stampQuiesce()
	g.d.slots.quiesceAt(g.id)
	global := g.d.epoch.Load()
	// Orphan adoption, at most once per epoch advance (see qsbr.go).
	if global != g.adoptSeen && !g.d.orphans.empty() {
		g.adoptSeen = global
		g.d.orphans.adoptEpoch(global, g.d.cfg.Free, &g.d.cnt)
	}
	local := g.local.Load()
	if local != global {
		g.local.Store(global)
		g.freeBucket(int(global % 3))
		g.finishPass()
		return
	}
	ok := true
	visited := g.d.slots.walkOccupied(func(i int) bool {
		if i == g.id {
			return true
		}
		peer := g.d.guards.at(i)
		if peer.mem.skipOrEvict(g.d.cfg.EvictAfter, &g.d.cnt.evictions) {
			return true
		}
		if peer.local.Load() != global {
			ok = false
			return false
		}
		return true
	})
	g.d.cnt.tallyScanned(&g.tally, visited)
	if ok && g.d.epoch.CompareAndSwap(global, global+1) {
		g.d.cnt.epochs.Add(1)
		g.local.Store(global + 1)
		g.freeBucket(int((global + 1) % 3))
	}
	g.finishPass()
}

// finishPass closes a reclamation pass: the tally flushes (shared counters
// exact again) and the cached thresholds refresh if a capacity transition
// re-tuned them.
func (g *qsenseGuard) finishPass() {
	g.d.cnt.flushTally(&g.tally, g.d.cfg.MemoryLimit)
	g.tc.refresh(g.d.tune)
}

func (g *qsenseGuard) freeBucket(b int) {
	bucket := g.limbo[b]
	if len(bucket) == 0 {
		return
	}
	for _, n := range bucket {
		g.d.cfg.Free(n.ref)
	}
	g.d.cnt.tallyFree(&g.tally, len(bucket))
	g.total -= len(bucket)
	g.limbo[b] = bucket[:0]
}

// Protect publishes fence-free, exactly as in Cadence; the hazard pointers
// must be maintained even on the fast path (§4.1).
func (g *qsenseGuard) Protect(i int, r mem.Ref) {
	g.rec.publishPending(i, r)
	// Fault point: stalled after publication, the reader pins exactly the
	// K nodes its pending slots name (flushed by the rooster) — never more.
	g.d.cfg.fire(FaultProtect, g.id)
}

func (g *qsenseGuard) ClearHPs() { g.rec.clearPending() }

// Retire is free_node_later (Algorithm 5, lines 36–61).
func (g *qsenseGuard) Retire(r mem.Ref) {
	if r.IsNil() {
		panic("reclaim: retire of nil Ref")
	}
	g.d.mgr.Poll() // cooperative rooster: run an overdue pass inline
	// Create the timestamped wrapper and add it to the current epoch's
	// limbo list — always, whatever the current path.
	b := g.local.Load() % 3
	g.limbo[b] = append(g.limbo[b], retired{ref: r.Untagged(), stamp: g.d.mgr.Tick()})
	g.total++
	g.d.cnt.tallyRetire(&g.tally, g.d.cfg.MemoryLimit)
	g.sinceScan++

	seen := g.d.fallback.Load()
	switch {
	case seen && g.sinceScan >= g.tc.r:
		// Running in fallback mode: scan all three epochs' limbo lists.
		g.scanAll()
		g.prevFall = true
	case g.prevFall && !seen:
		// Switch back to QSBR mode was triggered by another worker.
		//
		// Deliberate deviation from Algorithm 5 (lines 49-52), which
		// declares a quiescent state right here. free_node_later runs
		// where free() would — typically mid-operation, while this
		// worker still holds hazardous references (the list's
		// search_and_cleanup retires nodes mid-traversal). Declaring
		// quiescence at such a point tells peers "I hold no
		// references", and one epoch advance later their *wholesale*
		// frees — which do not consult hazard pointers — can reclaim
		// nodes this worker is still using. (Our stress harness
		// caught exactly that as a use-after-free fault.) We only
		// note the edge; the next Begin, a reference-free point by
		// contract, performs the quiescent state.
		g.prevFall = false
	case !seen && !g.prevFall && g.total >= g.tc.c:
		// Quiescence has not been possible for a long time: trigger
		// the switch to the fallback path.
		if g.d.fallback.CompareAndSwap(false, true) {
			g.d.cnt.toFall.Add(1)
		}
		g.prevFall = true
		g.scanAll()
	}
}

func (g *qsenseGuard) slotID() int { return g.id }

// scanAll runs the Cadence scan over all three limbo buckets with one
// snapshot, then adopts eligible orphans against the same snapshot. Tick
// capture and every shard's detach precede the snapshot (see
// cadenceGuard.scan).
func (g *qsenseGuard) scanAll() {
	g.d.cnt.scans.Add(1)
	g.sinceScan = 0
	tick := g.d.mgr.Tick()
	batches := g.d.orphans.detachAll()
	snap, visited := snapshotShared(g.d.slots, g.d.recs, g.scanBuf)
	g.d.cnt.tallyScanned(&g.tally, visited)
	g.scanBuf = snap.vals
	g.total = 0
	freed := 0
	for b := range g.limbo {
		var f int
		g.limbo[b], f = filterDeferred(g.d.cfg, g.d.mgr, tick, snap, g.limbo[b])
		g.total += len(g.limbo[b])
		freed += f
	}
	g.d.cnt.tallyFree(&g.tally, freed)
	g.d.orphans.adoptDetachedAll(batches, snap, g.d.mgr, tick, g.d.cfg, &g.d.cnt)
	g.finishPass()
}

// orphanLimbo moves the guard's surviving limbo onto its OWN shard's
// orphan list in one batch that keeps the nodes' tick stamps and records
// the current global epoch — dual evidence, so whichever path the domain
// runs makes progress on it (release drain only; slice ownership passes to
// the list).
func (g *qsenseGuard) orphanLimbo() {
	if g.total == 0 {
		return
	}
	var nodes []retired
	for b := range g.limbo {
		if len(g.limbo[b]) == 0 {
			continue
		}
		if nodes == nil {
			nodes = g.limbo[b]
		} else {
			nodes = append(nodes, g.limbo[b]...)
		}
		g.limbo[b] = nil
	}
	g.total = 0
	g.d.orphans.at(g.id).add(nil, nodes, g.d.epoch.Load(), &g.d.cnt)
}
