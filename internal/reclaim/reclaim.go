// Package reclaim implements the paper's concurrent memory reclamation
// schemes over the mem substrate:
//
//   - None — the leaky baseline ("None" in the evaluation): nothing is freed.
//   - QSBR — quiescent-state-based reclamation (§3.1): the fast path. Three
//     logical epochs, per-worker limbo lists, wholesale frees on epoch
//     advance. Fast but blocking: a delayed worker stalls reclamation.
//   - HP — Michael's hazard pointers (§3.2): per-worker pointers published
//     with a memory fence per node visited; robust but slow.
//   - Cadence — the paper's novel fallback (§5.1): hazard pointers without
//     per-node fences, made safe by rooster flush passes plus deferred
//     reclamation.
//   - QSense — the paper's hybrid (§5.2, Algorithm 5): QSBR in the common
//     case, Cadence under prolonged process delays, switching automatically
//     in both directions.
//
// The three functions of the paper's interface map to:
//
//	manage_qsense_state  ->  Guard.Begin
//	assign_HP            ->  Guard.Protect
//	free_node_later      ->  Guard.Retire
//
// A Domain manages reclamation for one data structure instance over an
// elastic arena of guard slots. The paper does not support dynamic
// membership (§5.2); this implementation builds out its sketched fix three
// times over: membership.go lets epoch-scheme workers Leave/Join (and
// evicts crashed ones), slots.go leases whole guard slots dynamically —
// Acquire (or the blocking AcquireWait) hands a free slot to any
// goroutine, Release drains it and recycles it — and the arena itself
// GROWS when the freelist runs dry (arena.go): Config.Workers is only the
// initial soft size, and Acquire appends publish-once slot segments on
// demand, failing with ErrNoSlots only at an optional Config.HardMaxWorkers
// cap. Backlog a Release cannot yet prove safe moves to a per-domain
// orphan list (orphan.go) and is adopted by other workers' reclamation
// passes, so a vacated slot never strands retired nodes. The positional
// Guard(w) accessor remains for callers that pin slots deterministically
// (tests, the experiment harness).
package reclaim

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"time"

	"qsense/internal/mem"
	"qsense/internal/rooster"
)

// Guard is a worker's per-thread reclamation handle. Methods must be called
// only by the owning worker; Protect'ed references are published for
// concurrent scans by other workers' guards.
type Guard interface {
	// Begin is the paper's manage_qsense_state: call it in states where
	// the worker holds no references to shared nodes — conventionally at
	// the start of every data structure operation. Schemes batch the real
	// work: only every Q-th call declares a quiescent state.
	Begin()

	// Protect is the paper's assign_HP: publish hazard pointer slot i as
	// protecting r, so no scan reclaims r's node. Tag bits are ignored.
	// Protecting a nil Ref clears the slot. Following Michael's
	// methodology the caller must re-validate the source link after
	// Protect returns and retry if it changed.
	Protect(i int, r mem.Ref)

	// Retire is the paper's free_node_later: hand over a node that has
	// been unlinked from the structure. The scheme frees it once safe.
	Retire(r mem.Ref)

	// ClearHPs releases all of this guard's hazard pointers; call at the
	// end of an operation. (Optional for correctness — stale protections
	// only delay reclamation — but keeps memory bounds tight.)
	ClearHPs()
}

// Domain manages reclamation state shared by all workers of one structure.
type Domain interface {
	// Guard returns slot w's guard (0 <= w < Config.Workers), pinning the
	// slot: it is permanently excluded from the Acquire freelist and
	// participates exactly like a fixed worker of the paper's model.
	//
	// Deprecated: positional guards exist for fixed-worker callers (the
	// experiment harness, deterministic tests). New code should lease
	// guards with Acquire/Release.
	Guard(w int) Guard
	// Acquire leases a free guard slot to the calling goroutine, running
	// the scheme's join path (epoch adoption, aged-limbo frees) so a
	// recycled slot resumes cleanly. When the freelist is empty the arena
	// grows by a publish-once slot segment, so by default Acquire does not
	// fail; it returns ErrNoSlots only once the arena has reached
	// Config.HardMaxWorkers with every slot leased or pinned.
	Acquire() (Guard, error)
	// AcquireWait is Acquire that blocks while the arena is exhausted at
	// its hard cap: the caller parks on the slot pool's waiter channel and
	// is woken by the next Release, instead of spinning on ErrNoSlots. It
	// returns ctx.Err() if ctx is done first. On an elastic domain (no
	// hard cap) it behaves exactly like Acquire — growth preempts waiting.
	AcquireWait(ctx context.Context) (Guard, error)
	// Release returns g's slot to the freelist: protections are drained,
	// epoch schemes Leave (so the slot no longer blocks grace periods or
	// QSense's presence scan), and what backlog can be freed safely is
	// freed. Backlog that cannot yet be proven safe (unaged limbo,
	// protected or too-young deferred nodes) is moved to the domain's
	// orphan list, where any worker's later reclamation pass adopts and
	// frees it — a vacated slot never strands retired nodes, even if it
	// is never leased again. The guard must not be used after Release.
	// Releasing a pinned or already-released guard is a no-op — but note
	// the guard's slot may have been re-leased by then, so call Release
	// exactly once, from the owning goroutine. (The public API wraps
	// guards with a once-flag; internal callers keep the discipline
	// themselves.)
	Release(g Guard)
	// Name returns the scheme name ("qsbr", "hp", ...).
	Name() string
	// Failed reports whether the domain exceeded Config.MemoryLimit —
	// the harness's stand-in for the paper's "system runs out of memory
	// and eventually fails" (§7.3). Blocking schemes fail under
	// prolonged delays; robust schemes should never fail.
	Failed() bool
	// Stats returns a snapshot of reclamation counters.
	Stats() Stats
	// Close stops background machinery and frees every node still
	// awaiting reclamation. Call only after all workers have stopped.
	Close()
}

// EraSource is the birth-era clock interface the interval-based scheme
// (ibr) consumes. A *mem.Pool[T] satisfies it directly: the pool stamps each
// slot with the current era at Alloc, AdvanceEra moves the clock, and
// BirthEra reads the stamp back at Retire time. When Config.Era is nil the
// ibr domain falls back to an internal clock with every node's birth taken
// as era 0 — safe (a node is never freed early) but unable to reclaim past
// a stalled reader, i.e. no better than epochs; wiring the real pool clock
// restores interval robustness.
type EraSource interface {
	// Era returns the current birth-era clock value.
	Era() uint64
	// AdvanceEra bumps the clock and returns the new value.
	AdvanceEra() uint64
	// BirthEra returns the era stamped on r at allocation. Called by the
	// retiring guard while it still owns the node.
	BirthEra(r mem.Ref) uint64
}

// Config parameterizes a Domain. The zero value is not usable: Workers,
// HPs and Free are mandatory (Free may be omitted only for None).
type Config struct {
	// Workers is the INITIAL guard-slot arena size (the paper's N; the
	// public Options.MaxWorkers): segment 0 of the elastic arena, and the
	// grain by which growth doubles it. It is a soft size — when more
	// guards are leased simultaneously, the arena grows (see
	// HardMaxWorkers) — and not a count of OS threads: any number of
	// goroutines may share the arena through Acquire/Release over time.
	Workers int
	// HardMaxWorkers caps elastic growth: once the arena holds this many
	// slots and all are leased or pinned, Acquire returns ErrNoSlots and
	// AcquireWait blocks — the pre-elastic backpressure semantics. 0 (the
	// default) leaves the domain elastic up to the library ceiling
	// MaxArenaSlots; set it equal to Workers to reproduce the fixed-arena
	// behaviour exactly. Values below Workers are raised to Workers.
	HardMaxWorkers int
	// HPs is the number of hazard pointers per worker (K). The linked
	// list uses 3, the BST 6, the skip list 2*levels+2 (§7.3).
	HPs int
	// Free returns a retired node's memory to its pool.
	Free func(mem.Ref)

	// Q is the quiescence threshold (§3.1): one quiescent state is
	// declared per Q Begin calls. Default 32.
	Q int
	// R is the scan threshold (§5.1): pointer-based schemes scan once
	// per R retires. Default 2*Workers*HPs + 64. When left zero, the
	// default formula is re-applied with the LIVE worker count at every
	// capacity transition (growth, segment park/unpark — see tune.go), so
	// a grown or drained arena keeps the paper's scan amortization; an
	// explicit value is respected verbatim.
	R int
	// C is QSense's fallback threshold (§5.2): a worker whose limbo
	// lists hold >= C nodes triggers the switch to the fallback path.
	// Property 4 requires a legal value (NewQSense rejects C below
	// LegalC), but C must also comfortably exceed the fast path's normal
	// backlog — roughly 3 epochs' worth of retires at full speed — or
	// the trigger fires with no delay present ("reaching a large removed
	// nodes list size indicates that quiescence was not possible for an
	// extended period", §5.2 step 1). Default max(LegalC, 8192). §6.2's
	// bound binds against the CURRENT worker count: when elastic growth
	// raises LegalC past a configured C, the effective threshold is
	// raised to stay legal (and falls back once the arena drains; see
	// tune.go and Stats.CRetunes).
	C int
	// MaxRemovePerOp is the paper's m: the most nodes one operation can
	// remove (2 for the external BST, 1 for list and skip list).
	// Default 2.
	MaxRemovePerOp int

	// MemoryLimit, when > 0, marks the domain Failed once more than this
	// many retired nodes await reclamation (OOM emulation). The retiring
	// guard checks the limit on every Retire against the shared counters
	// plus its own unflushed tally, so detection can lag the true
	// crossing only by OTHER guards' unflushed retire tallies (at most
	// tallyFlushEvery-1 each); Stats.Pending itself stays exact (it sums
	// the unflushed tallies).
	MemoryLimit int

	// Rooster configures the rooster manager (Cadence and QSense).
	Rooster rooster.Config
	// ManualRooster suppresses the manager's timer; tests drive passes
	// deterministically through Domain-specific Step methods.
	ManualRooster bool
	// PresenceResetTicks is how many rooster passes elapse between resets
	// of QSense's presence-flag array (§5.2, step 3). The reset period
	// (this value times the rooster interval) must comfortably exceed an
	// OS/runtime scheduler timeslice: with more workers than cores, a
	// perfectly healthy worker can sit descheduled for tens of
	// milliseconds, and a shorter period would read that as "not all
	// processes are active" and postpone the switch back to the fast
	// path indefinitely. Default 50 (100ms at the default 2ms interval).
	PresenceResetTicks int

	// FenceCost is the modeled fence latency paid by HP on every
	// Protect. 0 means fence.DefaultCost; negative means free (ablation).
	FenceCost time.Duration

	// DisableDeferral removes Cadence's old-enough check. UNSAFE: only
	// for the ablation demonstrating why deferred reclamation is needed
	// (§5.1); stress tests show it produces use-after-free violations.
	DisableDeferral bool

	// Shards splits the domain core — slot pool, orphan list, retire
	// tallies, rooster flush target — into this many independent units.
	// Acquire picks a shard by power-of-two-choices over live occupancy
	// and steals from siblings before growing; Release hands a stranded
	// backlog to the releasing guard's own shard's orphan list in one CAS;
	// scans, epoch-advance checks and sweeps walk shards independently, so
	// an idle or fully-parked shard costs zero. 1 (after defaulting) is
	// exactly the single-pool behaviour. <=0 consults QSENSE_SHARDS, then
	// defaults to 1; values above Workers are clamped to Workers.
	Shards int

	// Era supplies the birth-era clock for the interval-based scheme; see
	// EraSource. Ignored by every other scheme. nil degrades ibr to an
	// internal clock with all-zero birth stamps (safe, epoch-equivalent).
	Era EraSource

	// FaultHook, when non-nil, is called at the named fault-injection sync
	// points with the guard's slot index (internal/fault threads its
	// injector through here). The hook runs ON the guard's goroutine at a
	// point where the scheme believes the worker is mid-protocol — a hook
	// that blocks models a reader stalled exactly there (descheduled,
	// page-faulted, crashed), which is what the robustness matrix does.
	// Production configs leave it nil and pay one predictable-nil branch
	// per sync point, off the per-access hot path.
	FaultHook func(FaultPoint, int)

	// EvictAfter enables the paper's sketched eviction extension (§5.2
	// future work) on the epoch-based schemes: a worker that has not
	// declared a quiescent state for this long is treated as crashed and
	// excluded from grace periods (and from QSense's presence scan, so
	// the fast path can resume after a permanent crash). SAFETY
	// ASSUMPTION: an evicted worker performs no shared accesses until it
	// rejoins — enable only where silence really means crash. 0 (the
	// default) disables eviction. See membership.go.
	EvictAfter time.Duration

	// rAuto/cAuto record that R/C were defaulted rather than configured,
	// which is what licenses the tuner to re-derive them from live
	// occupancy at capacity transitions (set by withDefaults; tune.go).
	rAuto, cAuto bool
}

// FaultPoint names a fault-injection sync point inside a scheme's protocol
// (Config.FaultHook). A reader stalled at each point exhibits one of the
// canonical failure modes the paper's robustness argument distinguishes:
type FaultPoint string

const (
	// FaultQuiesce: an epoch-class reader that entered its quiescence/
	// announcement step and never completes it. QSBR and QSense fire it on
	// the Q-th Begin just before the quiescent state is declared (the
	// worker is acquired-but-never-quiescing: its stale local epoch pins
	// the global); EBR fires it right after announcing (epoch, active) —
	// the active announcement pins the epoch until the operation ends.
	FaultQuiesce FaultPoint = "quiesce"
	// FaultProtect: a pointer-class reader stalled with a protection held.
	// HP/Cadence/QSense fire it after the hazard publication, RC after the
	// counted acquire, IBR after widening the reservation's upper bound —
	// in every case the stalled reader pins exactly what it published.
	FaultProtect FaultPoint = "protect"
	// FaultInbox: a Hyaline reader stalled mid-operation with its inbox
	// active and deliveries unacknowledged — it pins every batch pushed to
	// it until the operation ends.
	FaultInbox FaultPoint = "inbox"
)

// fire invokes the fault hook if one is installed: one predictable branch
// when disabled, sitting at protocol sync points rather than per-access
// fast paths.
func (c *Config) fire(p FaultPoint, slot int) {
	if c.FaultHook != nil {
		c.FaultHook(p, slot)
	}
}

func (c Config) withDefaults() Config {
	if c.HardMaxWorkers <= 0 {
		c.HardMaxWorkers = MaxArenaSlots
	}
	if c.HardMaxWorkers < c.Workers {
		c.HardMaxWorkers = c.Workers
	}
	if c.Q <= 0 {
		c.Q = 32
	}
	if c.R <= 0 {
		c.R = 2*c.Workers*c.HPs + 64
		c.rAuto = true // defaulted: re-derive from live occupancy (tune.go)
	}
	if c.MaxRemovePerOp <= 0 {
		c.MaxRemovePerOp = 2
	}
	if c.C <= 0 {
		c.C = max(LegalC(c), 8192)
		c.cAuto = true
	}
	if c.PresenceResetTicks <= 0 {
		c.PresenceResetTicks = 50
	}
	if c.Shards <= 0 {
		c.Shards = 1
		if v, err := strconv.Atoi(os.Getenv("QSENSE_SHARDS")); err == nil && v > 0 {
			c.Shards = v
		}
	}
	// More shards than initial slots would leave empty pools that can never
	// shrink the encoding back; clamp so every shard starts with >= 1 slot.
	if c.Shards > c.Workers {
		c.Shards = c.Workers
	}
	return c
}

// Validate reports configuration errors common to all schemes.
func (c Config) Validate(needFree bool) error {
	if c.Workers <= 0 {
		return errors.New("reclaim: Config.Workers must be positive")
	}
	if c.HPs <= 0 {
		return errors.New("reclaim: Config.HPs must be positive")
	}
	if needFree && c.Free == nil {
		return errors.New("reclaim: Config.Free is required")
	}
	return nil
}

// LegalC returns the smallest legal fallback threshold per §6.2:
// C > max(mQ, NK+T, (K+T+R)/2), with the rooster interval T expressed in
// retired nodes per rooster pass; we bound that by R (a worker scans, and
// thus caps its backlog growth, every R retires), which keeps the bound
// sound while staying in node units.
func LegalC(c Config) int {
	c.MaxRemovePerOp = max(c.MaxRemovePerOp, 2)
	if c.Q <= 0 {
		c.Q = 32
	}
	if c.R <= 0 {
		c.R = 2*c.Workers*c.HPs + 64
	}
	t := c.R // stand-in for T in node units; see doc comment
	m := max(
		c.MaxRemovePerOp*c.Q,
		c.Workers*c.HPs+t,
		(c.HPs+t+c.R)/2,
	)
	return m + 1
}

// New constructs the named scheme. Valid names: "none", "qsbr", "hp",
// "cadence", "qsense" (the paper's five), plus the related-work baselines
// "ebr" (epoch-based reclamation, Fraser style), "rc" (lock-free reference
// counting), "ibr" (interval-based reclamation, 2GEIBR style) and "hyaline"
// (snapshot-free batch-refcount reclamation).
func New(name string, cfg Config) (Domain, error) {
	switch name {
	case "none":
		return NewNone(cfg)
	case "qsbr":
		return NewQSBR(cfg)
	case "hp":
		return NewHP(cfg)
	case "cadence":
		return NewCadence(cfg)
	case "qsense":
		return NewQSense(cfg)
	case "ebr":
		return NewEBR(cfg)
	case "rc":
		return NewRC(cfg)
	case "ibr":
		return NewIBR(cfg)
	case "hyaline":
		return NewHyaline(cfg)
	}
	return nil, fmt.Errorf("reclaim: unknown scheme %q (valid: %v)", name, Schemes())
}

// Schemes lists the scheme names accepted by New, in evaluation order: the
// paper's five first, then the §8 related-work baselines, then the
// post-paper scheme families (interval-based reclamation and Hyaline).
func Schemes() []string {
	return []string{"none", "qsbr", "hp", "cadence", "qsense", "ebr", "rc", "ibr", "hyaline"}
}

// PaperSchemes lists only the five schemes of the paper's evaluation
// (Figures 3 and 5); the experiment drivers default to these.
func PaperSchemes() []string { return []string{"none", "qsbr", "hp", "cadence", "qsense"} }

// Stats is a point-in-time snapshot of a domain's counters.
type Stats struct {
	Scheme string
	// Retired and Freed count Retire calls and completed frees.
	Retired, Freed uint64
	// Pending is Retired-Freed: nodes awaiting reclamation now.
	Pending int64
	// Scans counts hazard-pointer scans (HP, Cadence, QSense fallback).
	Scans uint64
	// ScannedRecords counts per-slot records VISITED by reclamation
	// walks: HP snapshot collection, epoch-advance checks, QSense's
	// presence sweep/reset, and rooster flush walks. With the occupancy
	// index this grows with live workers per pass, not with the arena's
	// high-water size — the counter burst-then-idle tests and the
	// ScanAfterBurst benchmark assert proportionality on. Guard-driven
	// walks batch their visit counts with the guard's tally (flushed
	// with the next retire/free flush), so live reads can lag by a small
	// per-guard residue; Close drains the residues.
	ScannedRecords uint64
	// QuiescentStates counts declared quiescent states (QSBR, QSense).
	QuiescentStates uint64
	// EpochAdvances counts global epoch increments (QSBR, QSense).
	EpochAdvances uint64
	// SwitchesToFallback / SwitchesToFast count QSense path switches.
	SwitchesToFallback, SwitchesToFast uint64
	// Evictions and Rejoins count membership events (membership.go):
	// workers excluded as crashed and workers that (re-)entered.
	Evictions, Rejoins uint64
	// AcquiredHandles and ReleasedHandles count slot leases granted and
	// returned (slots.go); their difference is the leased count now.
	AcquiredHandles, ReleasedHandles uint64
	// ArenaSize is the current guard-slot arena size (published slots —
	// Config.Workers until growth engages); HighWaterWorkers is the peak
	// number of simultaneously occupied (leased + pinned) slots; and
	// ArenaGrowths counts elastic segment publications past construction.
	ArenaSize, HighWaterWorkers int
	ArenaGrowths                uint64
	// ParkedSlots is how many published slots currently rest in parked
	// segments — all-free trailing segments pulled out of the freelist
	// and skipped by every reclamation walk, so scan cost decays after a
	// burst instead of ratcheting at the high-water mark (occupancy.go).
	// SegmentParks/SegmentUnparks count the transitions.
	ParkedSlots                  int
	SegmentParks, SegmentUnparks uint64
	// EffectiveR/EffectiveC are the thresholds currently in force after
	// occupancy-aware re-tuning (tune.go); RRetunes/CRetunes count the
	// applied changes. Zero Effective values mean the scheme has no
	// tunable threshold (QSBR, None).
	EffectiveR, EffectiveC int
	RRetunes, CRetunes     uint64
	// OrphanedNodes counts nodes a Release could not yet prove safe and
	// moved to the domain's orphan list (orphan.go); AdoptedNodes counts
	// orphans later freed by other workers' reclamation passes. Orphans
	// remain Pending (and count against MemoryLimit) until adopted.
	OrphanedNodes, AdoptedNodes uint64
	// Shards is the number of independent domain-core units (slot pool +
	// orphan list + flush target) the domain was built with (Config.Shards
	// after defaulting). ShardImbalance is the spread max-min of live
	// occupancy across shards at snapshot time — 0 for a single-shard
	// domain, and a rough health indicator for the power-of-two-choices
	// placement otherwise.
	Shards, ShardImbalance int
	// IBRIntervalWidth is the widest active reservation interval
	// (upper-lower, in eras) observed across occupied slots at snapshot
	// time — a live measure of how much history readers currently pin.
	// Zero for every scheme but ibr, and for ibr when no reservation is
	// active.
	IBRIntervalWidth uint64
	// HyalineBatchRefs is the sum of outstanding reference counts over
	// this domain's unreclaimed hyaline batches: how many slot-inbox
	// deliveries still have to be acknowledged before those batches free.
	// Zero for every scheme but hyaline.
	HyalineBatchRefs int64
	// InFallback reports QSense's current path.
	InFallback bool
	// RoosterPasses counts completed rooster flush passes.
	RoosterPasses uint64
	// AsymmetricPublication reports that the domain's fence-free hazard
	// pointers (Cadence, QSense) are plain stores made visible by one
	// membarrier per rooster pass (fence.Asymmetric), rather than atomic
	// stores. Always false for the other schemes, which publish no
	// fence-free hazard pointers.
	AsymmetricPublication bool
	// Failed mirrors Domain.Failed.
	Failed bool
}

// SlotIndex reports the arena slot index a guard occupies, stable across
// leases: slot w's guard is the same object for every tenant. The public
// containers key their per-slot structure-handle caches by it.
func SlotIndex(g Guard) int {
	return g.(interface{ slotID() int }).slotID()
}
