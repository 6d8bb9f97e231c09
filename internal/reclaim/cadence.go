package reclaim

import (
	"context"

	"qsense/internal/fence"
	"qsense/internal/mem"
	"qsense/internal/rooster"
)

// Cadence is the paper's novel fallback scheme (§5.1): hazard pointers
// without per-node memory fences. It can also be used stand-alone, as here.
//
// Two mechanisms replace the fence:
//
//  1. Rooster passes. Protect publishes into the guard's pending slots with
//     fence.Publish: a plain store wherever the process registered for
//     asymmetric fences, an atomic store otherwise. Every interval T the
//     rooster manager issues one process-wide membarrier (fence.Heavy),
//     which drains every core's store buffer, and then copies pending into
//     the shared slots. A hazard pointer therefore becomes visible to scans
//     at most one full pass after it is stored — the paper's
//     context-switch-drains-store-buffer argument, with the kernel's
//     barrier as the context switch (README.md, "Hazard-pointer
//     publication and the rooster"). The domain registers one flush target
//     (recFlusher) per shard that walks the occupancy index, so a pass
//     flushes only live records however large the arena once grew.
//  2. Deferred reclamation. Retire stamps the node with the current rooster
//     tick; scan only frees nodes whose stamp is at least two completed
//     passes old (rooster.OldEnough — Figure 4's T+ε condition in tick
//     form). By then, any hazard pointer stored before the node was removed
//     has been flushed, so the shared-slot snapshot is conclusive.
//
// Dropping either mechanism is unsafe; the DisableDeferral ablation
// demonstrably produces use-after-free violations (see cadence tests and
// the §4.1 model in internal/tso).
type Cadence struct {
	cfg     Config
	cnt     counters
	tune    *tuner
	mgr     *rooster.Manager
	slots   *shardedPool
	orphans shardedOrphans
	recs    *shardedArena[*hprec]
	guards  *shardedArena[*cadenceGuard]
}

type cadenceGuard struct {
	d         *Cadence
	id        int
	rec       *hprec
	rl        []retired
	sinceScan int
	tally     tally
	tc        tunerCache
	scanBuf   []uint64
}

// NewCadence builds a stand-alone Cadence domain and starts its rooster
// manager (unless Config.ManualRooster).
func NewCadence(cfg Config) (*Cadence, error) {
	if err := cfg.Validate(true); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	d := &Cadence{cfg: cfg, mgr: rooster.NewManager(cfg.Rooster)}
	d.tune = newTuner(cfg, &d.cnt)
	d.orphans.init(cfg.Shards)
	d.recs = newShardedArena(cfg.Shards, cfg.Workers, cfg.HardMaxWorkers, func(i int) *hprec {
		return newHPRec(cfg.HPs)
	})
	d.guards = newShardedArena(cfg.Shards, cfg.Workers, cfg.HardMaxWorkers, func(i int) *cadenceGuard {
		return &cadenceGuard{d: d, id: i, rec: d.recs.at(i),
			tc: tunerCache{r: cfg.R, c: cfg.C}}
	})
	d.slots = newShardedPool(cfg.Shards, cfg.Workers, cfg.HardMaxWorkers, d.tune, func(s, hi int) {
		d.recs.growShard(s, hi)
		d.guards.growShard(s, hi)
	})
	// One occupancy-walking flush target PER SHARD covers every record,
	// current and future: growth publishes records before their slots can
	// lease, each target walks exactly its own pool's occupied slots, and
	// an idle shard's target returns on one load — so rooster registration
	// is a construction-time affair and flush passes cost O(live).
	for s, p := range d.slots.pools {
		d.mgr.Register(&recFlusher{p: p, recs: d.recs.shards[s], cnt: &d.cnt})
	}
	d.mgr.AddHook(1, d.orphans.adoptHook(d.mgr, d.slots, d.recs, d.cfg, &d.cnt))
	if !cfg.ManualRooster {
		d.mgr.Start()
	}
	return d, nil
}

// Guard implements Domain (deprecated positional access): pins slot w and
// marks its hazard record live for scans and rooster flushes.
func (d *Cadence) Guard(w int) Guard {
	if d.slots.pin(w) {
		d.recs.at(w).leased.Store(true)
	}
	return d.guards.at(w)
}

// Acquire implements Domain: lease a slot, drain any hazard state a racing
// rooster flush may have re-published after the previous release, and make
// the record visible to scans and flush passes again.
func (d *Cadence) Acquire() (Guard, error) {
	w, err := d.slots.lease()
	if err != nil {
		return nil, err
	}
	return d.join(w), nil
}

// AcquireWait implements Domain: Acquire that parks until a slot frees or
// ctx is done.
func (d *Cadence) AcquireWait(ctx context.Context) (Guard, error) {
	w, err := d.slots.leaseWait(ctx)
	if err != nil {
		return nil, err
	}
	return d.join(w), nil
}

func (d *Cadence) join(w int) Guard {
	g := d.guards.at(w)
	g.rec.clearPending()
	g.rec.clearShared()
	g.rec.leased.Store(true)
	g.tc.refresh(d.tune)
	return g
}

// Release implements Domain: drain both hazard arrays, run one deferred
// scan so everything provably safe frees immediately, move the remainder
// (protected or not yet old enough) to the orphan list — adopted by any
// worker's later scan or by a rooster pass — hide the record, recycle.
func (d *Cadence) Release(gd Guard) {
	g, ok := gd.(*cadenceGuard)
	if !ok || g.d != d {
		panic(errForeignGuard)
	}
	d.slots.unlease(g.id, func() {
		g.rec.clearPending()
		g.rec.clearShared()
		if len(g.rl) > 0 {
			g.scan()
		}
		if len(g.rl) > 0 {
			d.orphans.at(g.id).add(nil, g.rl, 0, &d.cnt)
			g.rl = nil
		}
		d.cnt.releaseTally(&g.tally, d.cfg.MemoryLimit)
		g.rec.leased.Store(false)
	})
}

// Name implements Domain.
func (d *Cadence) Name() string { return "cadence" }

// Failed implements Domain.
func (d *Cadence) Failed() bool { return d.cnt.failed.Load() }

// Stats implements Domain.
func (d *Cadence) Stats() Stats {
	s := Stats{Scheme: "cadence", RoosterPasses: d.mgr.Tick(), AsymmetricPublication: fence.Asymmetric()}
	d.cnt.fill(&s, d.slots, func(i int) *tally { return &d.guards.at(i).tally })
	d.slots.fillArena(&s)
	return s
}

// Rooster exposes the manager so tests can drive passes deterministically.
func (d *Cadence) Rooster() *rooster.Manager { return d.mgr }

// Close implements Domain: stops the rooster, frees all pending retires and
// drains the orphan list. Only call after all workers have stopped.
func (d *Cadence) Close() {
	d.mgr.Stop()
	d.guards.forEach(func(g *cadenceGuard) {
		for _, r := range g.rl {
			d.cfg.Free(r.ref)
		}
		d.cnt.tallyFree(&g.tally, len(g.rl))
		g.rl = g.rl[:0]
		d.cnt.drainTally(&g.tally)
	})
	d.orphans.drain(d.cfg.Free, &d.cnt)
}

func (g *cadenceGuard) Begin() {}

// Protect publishes without a fence (Algorithm 3, assign_HP: "No need for a
// memory barrier here"): a plain store in asymmetric mode, which the next
// rooster pass's membarrier makes visible.
func (g *cadenceGuard) Protect(i int, r mem.Ref) {
	g.rec.publishPending(i, r)
	// Fault point: stalled after the bare-store publication, the reader
	// pins only what its pending slots name once the rooster flushes them.
	g.d.cfg.fire(FaultProtect, g.id)
}

func (g *cadenceGuard) ClearHPs() { g.rec.clearPending() }

// Retire timestamps the node and schedules it (Algorithm 5, free_node_later
// in stand-alone form).
func (g *cadenceGuard) Retire(r mem.Ref) {
	if r.IsNil() {
		panic("reclaim: retire of nil Ref")
	}
	g.d.mgr.Poll() // cooperative rooster: run an overdue pass inline
	g.rl = append(g.rl, retired{ref: r.Untagged(), stamp: g.d.mgr.Tick()})
	g.d.cnt.tallyRetire(&g.tally, g.d.cfg.MemoryLimit)
	g.sinceScan++
	if g.sinceScan >= g.tc.r {
		g.sinceScan = 0
		g.scan()
	}
}

func (g *cadenceGuard) slotID() int { return g.id }

// scan runs one deferred scan over the guard's retire list and then adopts
// eligible orphans against the same snapshot. Order matters: the tick is
// captured and every shard's orphan chain detached BEFORE the snapshot
// (see Manager.OldEnoughAt and orphanList.adoptDetached for the two halves
// of the argument).
func (g *cadenceGuard) scan() {
	g.d.cnt.scans.Add(1)
	tick := g.d.mgr.Tick()
	batches := g.d.orphans.detachAll()
	snap, visited := snapshotShared(g.d.slots, g.d.recs, g.scanBuf)
	g.d.cnt.tallyScanned(&g.tally, visited)
	g.scanBuf = snap.vals
	var freed int
	g.rl, freed = filterDeferred(g.d.cfg, g.d.mgr, tick, snap, g.rl)
	g.d.cnt.tallyFree(&g.tally, freed)
	g.d.orphans.adoptDetachedAll(batches, snap, g.d.mgr, tick, g.d.cfg, &g.d.cnt)
	g.d.cnt.flushTally(&g.tally, g.d.cfg.MemoryLimit)
	g.tc.refresh(g.d.tune)
}

// filterDeferred is the body of Cadence's scan (Algorithm 3, lines 14–33):
// free the nodes of rl that are old enough — judged against a tick the
// caller captured before taking snap, never the live clock — and
// unprotected in snap; keep the rest (in place). A nil mgr skips the
// oldness rule entirely (classic HP has no deferral). Shared by QSense and
// the orphan adopters.
func filterDeferred(cfg Config, mgr *rooster.Manager, tick uint64, snap hpSnapshot, rl []retired) ([]retired, int) {
	kept := rl[:0]
	freed := 0
	for _, n := range rl {
		if (mgr != nil && !cfg.DisableDeferral && !mgr.OldEnoughAt(n.stamp, tick)) || snap.contains(n.ref) {
			kept = append(kept, n)
		} else {
			cfg.Free(n.ref)
			freed++
		}
	}
	return kept, freed
}
