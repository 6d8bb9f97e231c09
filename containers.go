package qsense

import (
	"context"
	"sync"
	"sync/atomic"

	"qsense/internal/bst"
	"qsense/internal/hashmap"
	"qsense/internal/list"
	"qsense/internal/mem"
	"qsense/internal/queue"
	"qsense/internal/reclaim"
	"qsense/internal/skiplist"
	"qsense/internal/stack"
)

// SetHandle is a goroutine's leased view of a concurrent sorted set. All
// set-like containers (Set, SkipSet, TreeSet, HashSet) hand out SetHandles
// from Acquire. A handle must be used by one goroutine at a time and
// Released exactly once, when its goroutine is done with the container.
//
// Most structures reserve a few extreme int64 values as internal sentinel
// keys (math.MinInt64 and math.MaxInt64 for Set/SkipSet, the top three
// values for TreeSet; HashSet reserves none). Reserved keys are out of the
// container's domain:
// Contains and Delete report them absent and Insert rejects them with
// false — they are never stored and never corrupt the structure.
type SetHandle interface {
	// Contains reports whether key is in the set.
	Contains(key int64) bool
	// Insert adds key, reporting false if it was already present.
	Insert(key int64) bool
	// Delete removes key, reporting false if it was absent.
	Delete(key int64) bool
	// Release returns the handle's reclamation slot to the container so
	// another goroutine can Acquire it. The handle must not be used
	// afterwards. Extra calls, and calls on handles from the deprecated
	// positional Handle(w), are no-ops.
	Release()
}

// setOps is the scheme-agnostic operation surface the structure packages
// implement; the containers wrap it with lease bookkeeping.
type setOps interface {
	Contains(key int64) bool
	Insert(key int64) bool
	Delete(key int64) bool
}

// leasedSet pairs a structure handle with its guard lease. The pinned flag
// marks a positional handle whose Release is a no-op, as in
// QueueHandle/StackHandle and Guard.
type leasedSet struct {
	setOps
	d        reclaim.Domain
	g        reclaim.Guard
	pinned   bool
	released atomic.Bool
}

// Release implements SetHandle. The once-flag matters: the slot may be
// re-leased to another goroutine the moment it is released, so a second
// Release must not touch it.
func (h *leasedSet) Release() {
	if h.pinned || !h.released.CompareAndSwap(false, true) {
		return
	}
	h.d.Release(h.g)
}

// leaseCore carries the domain plumbing shared by every leased container:
// guard leasing, the per-slot structure-handle cache, stats and close. It
// is generic over the structure operation surface O, so the set containers
// (setOps) and the value-carrying map containers (mapOps) run on one
// machinery; the container types add only their handle wrapping.
type leaseCore[O comparable] struct {
	d     reclaim.Domain
	arena int
	mk    func(g reclaim.Guard, seed uint64) O

	// handles caches one structure handle per guard slot, built on the
	// slot's first lease and reused by every later tenant, so the Acquire
	// hot path allocates no structure state (for SkipSet that includes
	// its preds/succs buffers). Slot w's guard is a stable object, so the
	// cached handle's guard binding stays correct across tenants; access
	// to an entry is exclusive to the slot's current owner, ordered by
	// the slot pool's lease/release atomics. The table is segmented like
	// the guard arena itself, so it covers slots minted by elastic
	// growth. Under a sharded domain the key is still the one
	// reclaim.SlotIndex word: the (shard, local slot) pair interleaved as
	// local*Shards+shard, dense in [0, HardMaxWorkers) whatever the shard
	// count, so the cache needs no shard awareness.
	handles *reclaim.SlotTable[O]
}

func newLeaseCore[O comparable](opts Options, hps int, free func(Ref), era reclaim.EraSource, mk func(g reclaim.Guard, seed uint64) O) (*leaseCore[O], error) {
	d, err := newDomain(withHPs(opts, hps), func(r mem.Ref) { free(Ref(r)) }, era)
	if err != nil {
		return nil, err
	}
	return &leaseCore[O]{
		d: d.d, arena: opts.arena(), mk: mk,
		handles: reclaim.NewSlotTable[O](opts.arena(), opts.HardMaxWorkers),
	}, nil
}

// acquire leases a guard and returns the slot's structure handle with it.
func (c *leaseCore[O]) acquire() (O, reclaim.Guard, error) {
	g, err := c.d.Acquire()
	if err != nil {
		var zero O
		return zero, nil, err
	}
	return c.structureFor(g), g, nil
}

// acquireWait is acquire that blocks while every slot is leased, woken by
// the next Release; ctx cancellation unblocks it.
func (c *leaseCore[O]) acquireWait(ctx context.Context) (O, reclaim.Guard, error) {
	g, err := c.d.AcquireWait(ctx)
	if err != nil {
		var zero O
		return zero, nil, err
	}
	return c.structureFor(g), g, nil
}

// structureFor returns slot g's cached structure handle, building it on the
// slot's first lease. Seeds derive from the slot index (stable, distinct),
// exactly as the positional path always did.
func (c *leaseCore[O]) structureFor(g reclaim.Guard) O {
	w := reclaim.SlotIndex(g)
	p := c.handles.Get(w)
	var zero O
	if *p == zero {
		*p = c.mk(g, uint64(w)+1)
	}
	return *p
}

// Stats returns the reclamation counters.
func (c *leaseCore[O]) Stats() Stats { return fromReclaimStats(c.d.Stats()) }

// Close reclaims all pending memory and stops background machinery. Call
// only after all workers have stopped.
func (c *leaseCore[O]) Close() { c.d.Close() }

// setCore is leaseCore specialized to the set containers, adding the
// SetHandle wrapping and the deprecated positional-handle shim.
type setCore struct {
	*leaseCore[setOps]

	mu     sync.Mutex
	legacy []SetHandle // lazily built positional handles (pinned slots)
}

// Acquire leases a handle for the calling goroutine, growing the guard
// arena when all slots are in use. It returns ErrNoSlots only at an
// Options.HardMaxWorkers cap; AcquireWait blocks there instead.
func (c *setCore) Acquire() (SetHandle, error) {
	ops, g, err := c.acquire()
	if err != nil {
		return nil, err
	}
	return &leasedSet{setOps: ops, d: c.d, g: g}, nil
}

// AcquireWait is Acquire that blocks while every slot is leased, woken by
// the next Release. It returns ctx.Err() if ctx is done before a slot
// frees; with context.Background() it waits indefinitely.
func (c *setCore) AcquireWait(ctx context.Context) (SetHandle, error) {
	ops, g, err := c.acquireWait(ctx)
	if err != nil {
		return nil, err
	}
	return &leasedSet{setOps: ops, d: c.d, g: g}, nil
}

// Handle returns worker w's handle, pinning slot w permanently: it never
// returns to the Acquire pool. The positional range is the INITIAL arena
// only — 0 <= w < Options.Workers when set, else MaxWorkers (clamped to
// any smaller HardMaxWorkers); slots minted by elastic growth belong to
// Acquire. Out-of-range w panics.
//
// Deprecated: positional handles exist for fixed-worker callers that need
// deterministic worker↔slot assignment. New code should use Acquire and
// Release.
func (c *setCore) Handle(w int) SetHandle {
	if w < 0 || w >= c.arena {
		panic("qsense: positional Handle(w) outside the initial arena — set Options.Workers to size the positional range")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.legacy == nil {
		c.legacy = make([]SetHandle, c.arena)
	}
	if c.legacy[w] == nil {
		c.legacy[w] = &leasedSet{setOps: c.structureFor(c.d.Guard(w)), d: c.d, pinned: true}
	}
	return c.legacy[w]
}

func newSetCore(opts Options, hps int, free func(Ref), era reclaim.EraSource, mk func(g reclaim.Guard, seed uint64) setOps) (*setCore, error) {
	lc, err := newLeaseCore[setOps](opts, hps, free, era, mk)
	if err != nil {
		return nil, err
	}
	return &setCore{leaseCore: lc}, nil
}

func withHPs(opts Options, hps int) Options {
	if opts.HPs < hps {
		opts.HPs = hps
	}
	return opts
}

// Set is a lock-free sorted set backed by the Harris–Michael linked list —
// right for small key ranges and cheap iteration-free membership.
type Set struct {
	*setCore
	l *list.List
}

// NewSet builds a linked-list set wired to a reclamation domain.
func NewSet(opts Options) (*Set, error) {
	l := list.New(list.Config{MaxSlots: opts.MaxNodes})
	core, err := newSetCore(opts, list.HPs, func(r Ref) { l.FreeNode(toMem(r)) }, l.Pool(),
		func(g reclaim.Guard, _ uint64) setOps { return l.NewHandle(g) })
	if err != nil {
		return nil, err
	}
	return &Set{setCore: core, l: l}, nil
}

// Len counts elements; only meaningful while no workers are active.
func (s *Set) Len() int { return s.l.Len() }

// SkipSet is a lock-free sorted set backed by the Fraser skip list —
// logarithmic operations over large key ranges.
type SkipSet struct {
	*setCore
	s *skiplist.SkipList
}

// NewSkipSet builds a skip-list set wired to a reclamation domain.
func NewSkipSet(opts Options) (*SkipSet, error) {
	sl := skiplist.New(skiplist.Config{MaxSlots: opts.MaxNodes})
	core, err := newSetCore(opts, skiplist.HPsFor(sl.Levels()), func(r Ref) { sl.FreeNode(toMem(r)) }, sl.Pool(),
		func(g reclaim.Guard, seed uint64) setOps { return sl.NewHandle(g, seed*0x9E3779B9+1) })
	if err != nil {
		return nil, err
	}
	return &SkipSet{setCore: core, s: sl}, nil
}

// Len counts elements; only meaningful while no workers are active.
func (s *SkipSet) Len() int { return s.s.Len() }

// MapHandle is a goroutine's leased view of a concurrent ordered key→value
// map. Like SetHandle, it must be used by one goroutine at a time and
// Released exactly once when its goroutine is done with the container.
//
// math.MinInt64 and math.MaxInt64 are the skip list's sentinel keys and
// out of the map's domain: Get and Delete report them absent, Put rejects
// them with false without storing anything. Callers exposing the map to
// untrusted key sources (as qsense-kvd does) should reject them up front
// for a clearer error.
type MapHandle interface {
	// Get returns a copy of key's value bytes.
	Get(key int64) (val []byte, ok bool)
	// GetAppend appends key's value to dst and returns the extended
	// slice — the allocation-free read path.
	GetAppend(key int64, dst []byte) ([]byte, bool)
	// Put sets key's value to a copy of val: true if key was newly
	// inserted, false if an existing key's value was replaced (the
	// displaced value is retired through the map's reclamation domain).
	// Values up to 7 bytes are stored inline in the node's value word;
	// longer values spill to a reclaimed value node.
	Put(key int64, val []byte) bool
	// PutUint64 sets key's value to val's minimal little-endian
	// encoding — the uint64 fast path (values below 2^56 never
	// allocate). It interoperates with Put/Get of the same bytes.
	PutUint64(key int64, val uint64) bool
	// GetUint64 returns key's value decoded as a little-endian uint64
	// (the first 8 bytes, for longer values).
	GetUint64(key int64) (uint64, bool)
	// Delete removes key, reporting false if it was absent. The removed
	// value is retired through the domain alongside the node.
	Delete(key int64) bool
	// Release returns the handle's reclamation slot to the container so
	// another goroutine can Acquire it. The handle must not be used
	// afterwards; extra calls are no-ops.
	Release()
}

// mapOps is the operation surface of a value-carrying structure; the map
// containers wrap it with lease bookkeeping, as setOps for the sets.
// The method names are the structure handle's (skiplist.Handle): Put/Get
// move uint64 words, PutBytes/GetAppend move byte payloads.
type mapOps interface {
	Get(key int64) (uint64, bool)
	Put(key int64, val uint64) bool
	GetAppend(key int64, dst []byte) ([]byte, bool)
	PutBytes(key int64, val []byte) bool
	Delete(key int64) bool
}

// leasedMap pairs a map structure handle with its guard lease and adapts
// the structure's method names to the public MapHandle surface.
type leasedMap struct {
	ops      mapOps
	d        reclaim.Domain
	g        reclaim.Guard
	released atomic.Bool
}

func (h *leasedMap) Get(key int64) ([]byte, bool) { return h.ops.GetAppend(key, nil) }
func (h *leasedMap) GetAppend(key int64, dst []byte) ([]byte, bool) {
	return h.ops.GetAppend(key, dst)
}
func (h *leasedMap) Put(key int64, val []byte) bool       { return h.ops.PutBytes(key, val) }
func (h *leasedMap) PutUint64(key int64, val uint64) bool { return h.ops.Put(key, val) }
func (h *leasedMap) GetUint64(key int64) (uint64, bool)   { return h.ops.Get(key) }
func (h *leasedMap) Delete(key int64) bool                { return h.ops.Delete(key) }

// Release implements MapHandle (see leasedSet.Release for the once-flag
// rationale).
func (h *leasedMap) Release() {
	if !h.released.CompareAndSwap(false, true) {
		return
	}
	h.d.Release(h.g)
}

// mapCore is leaseCore specialized to the map containers. The map API is
// lease-only by design: it postdates the fixed-worker model, so there is no
// positional Handle(w) shim.
type mapCore struct {
	*leaseCore[mapOps]
}

// Acquire leases a handle for the calling goroutine, growing the guard
// arena when all slots are in use. It returns ErrNoSlots only at an
// Options.HardMaxWorkers cap; AcquireWait blocks there instead.
func (c *mapCore) Acquire() (MapHandle, error) {
	ops, g, err := c.acquire()
	if err != nil {
		return nil, err
	}
	return &leasedMap{ops: ops, d: c.d, g: g}, nil
}

// AcquireWait is Acquire that blocks while every slot is leased, woken by
// the next Release. It returns ctx.Err() if ctx is done before a slot
// frees; with context.Background() it waits indefinitely.
func (c *mapCore) AcquireWait(ctx context.Context) (MapHandle, error) {
	ops, g, err := c.acquireWait(ctx)
	if err != nil {
		return nil, err
	}
	return &leasedMap{ops: ops, d: c.d, g: g}, nil
}

// SkipMap is a lock-free sorted key→value map: the Fraser skip list of
// SkipSet with a per-node value word. It is the structure qsense-kvd
// serves over TCP — a goroutine-per-connection server Acquires one handle
// per connection (AcquireWait under a HardMaxWorkers admission cap) and
// the guard arena grows and parks with the connection count.
type SkipMap struct {
	*mapCore
	s *skiplist.SkipList
}

// NewSkipMap builds a skip-list map wired to a reclamation domain.
func NewSkipMap(opts Options) (*SkipMap, error) {
	sl := skiplist.New(skiplist.Config{MaxSlots: opts.MaxNodes})
	lc, err := newLeaseCore[mapOps](opts, skiplist.HPsFor(sl.Levels()), func(r Ref) { sl.FreeNode(toMem(r)) }, sl.Pool(),
		func(g reclaim.Guard, seed uint64) mapOps { return sl.NewHandle(g, seed*0x9E3779B9+1) })
	if err != nil {
		return nil, err
	}
	return &SkipMap{mapCore: &mapCore{leaseCore: lc}, s: sl}, nil
}

// Len counts entries; only meaningful while no workers are active.
func (m *SkipMap) Len() int { return m.s.Len() }

// ValueStats is a snapshot of a SkipMap's value-arena gauges: how many
// payload bytes are live (inline + spilled), how many spilled value nodes
// exist, and how the retire traffic splits between value nodes and
// structural (link-bearing) nodes. Under update-heavy workloads
// ValueRetires dominates StructRetires — the regime the reclamation
// schemes are benchmarked in.
type ValueStats struct {
	Bytes         int64  // live value payload bytes
	Spilled       int64  // live spilled (>7 byte) value nodes
	ValueRetires  uint64 // value nodes retired through the domain
	StructRetires uint64 // structural nodes retired through the domain
}

// Values returns the map's value-arena gauges. Gauges are maintained with
// racy atomics and may be transiently off by in-flight operations.
func (m *SkipMap) Values() ValueStats {
	vs := m.s.ValueStats()
	return ValueStats{
		Bytes:         vs.Bytes,
		Spilled:       vs.Spilled,
		ValueRetires:  vs.ValueRetires,
		StructRetires: vs.StructRetires,
	}
}

// TreeSet is a lock-free sorted set backed by the Natarajan–Mittal
// external binary search tree — the paper's third workload.
type TreeSet struct {
	*setCore
	t *bst.Tree
}

// NewTreeSet builds a BST set wired to a reclamation domain.
func NewTreeSet(opts Options) (*TreeSet, error) {
	tr := bst.New(bst.Config{MaxSlots: opts.MaxNodes})
	core, err := newSetCore(opts, bst.HPs, func(r Ref) { tr.FreeNode(toMem(r)) }, tr.Pool(),
		func(g reclaim.Guard, _ uint64) setOps { return tr.NewHandle(g) })
	if err != nil {
		return nil, err
	}
	return &TreeSet{setCore: core, t: tr}, nil
}

// Len counts elements; only meaningful while no workers are active.
func (s *TreeSet) Len() int { return s.t.Len() }

// HashSet is a lock-free hash set backed by Michael's hash table (split
// ordered bucket chains) — constant-time membership.
type HashSet struct {
	*setCore
	m *hashmap.Map
}

// NewHashSet builds a hash set wired to a reclamation domain.
func NewHashSet(opts Options) (*HashSet, error) {
	m := hashmap.New(hashmap.Config{MaxSlots: opts.MaxNodes})
	core, err := newSetCore(opts, hashmap.HPs, func(r Ref) { m.FreeNode(toMem(r)) }, m.Pool(),
		func(g reclaim.Guard, _ uint64) setOps { return m.NewHandle(g) })
	if err != nil {
		return nil, err
	}
	return &HashSet{setCore: core, m: m}, nil
}

// Len counts elements; only meaningful while no workers are active.
func (s *HashSet) Len() int { return s.m.Len() }

// Queue is a lock-free FIFO queue (Michael–Scott) of uint64 values.
type Queue struct {
	q *queue.Queue
	d reclaim.Domain

	mu      sync.Mutex
	handles *reclaim.SlotTable[*queue.Handle] // per-slot structure handles (see setCore.handles)
}

// NewQueue builds a queue wired to a reclamation domain.
func NewQueue(opts Options) (*Queue, error) {
	q := queue.New(queue.Config{MaxSlots: opts.MaxNodes})
	d, err := newDomain(withHPs(opts, queue.HPs), q.FreeNode, q.Pool())
	if err != nil {
		return nil, err
	}
	return &Queue{q: q, d: d.d, handles: reclaim.NewSlotTable[*queue.Handle](opts.arena(), opts.HardMaxWorkers)}, nil
}

// QueueHandle is a goroutine's leased view of a Queue. A handle must be
// used by one goroutine at a time and Released when done.
type QueueHandle struct {
	h        *queue.Handle
	d        reclaim.Domain
	g        reclaim.Guard
	released *atomic.Bool // nil for pinned (positional) handles
}

// Enqueue appends v at the tail.
func (h QueueHandle) Enqueue(v uint64) { h.h.Enqueue(v) }

// Dequeue removes and returns the oldest value; ok=false when empty.
func (h QueueHandle) Dequeue() (v uint64, ok bool) { return h.h.Dequeue() }

// Release returns the handle's reclamation slot to the queue. The handle
// must not be used afterwards; extra calls are no-ops.
func (h QueueHandle) Release() {
	if h.released == nil || !h.released.CompareAndSwap(false, true) {
		return
	}
	h.d.Release(h.g)
}

// Acquire leases a handle for the calling goroutine.
func (q *Queue) Acquire() (QueueHandle, error) {
	g, err := q.d.Acquire()
	if err != nil {
		return QueueHandle{}, err
	}
	return QueueHandle{h: q.structureFor(g), d: q.d, g: g, released: new(atomic.Bool)}, nil
}

// AcquireWait is Acquire that blocks while every slot is leased; it returns
// ctx.Err() if ctx is done before a slot frees.
func (q *Queue) AcquireWait(ctx context.Context) (QueueHandle, error) {
	g, err := q.d.AcquireWait(ctx)
	if err != nil {
		return QueueHandle{}, err
	}
	return QueueHandle{h: q.structureFor(g), d: q.d, g: g, released: new(atomic.Bool)}, nil
}

// structureFor returns slot g's cached queue handle (slot-owner exclusive;
// see setCore.handles for the ordering argument).
func (q *Queue) structureFor(g reclaim.Guard) *queue.Handle {
	p := q.handles.Get(reclaim.SlotIndex(g))
	if *p == nil {
		*p = q.q.NewHandle(g)
	}
	return *p
}

// Handle returns worker w's handle, pinning slot w permanently. w must lie
// in the initial arena (see setCore.Handle); out-of-range w panics.
//
// Deprecated: use Acquire and Release.
func (q *Queue) Handle(w int) QueueHandle {
	q.mu.Lock()
	defer q.mu.Unlock()
	return QueueHandle{h: q.structureFor(q.d.Guard(w)), d: q.d}
}

// Stats returns the reclamation counters.
func (q *Queue) Stats() Stats { return fromReclaimStats(q.d.Stats()) }

// Len counts elements; only meaningful while no workers are active.
func (q *Queue) Len() int { return q.q.Len() }

// Close reclaims pending memory; call after all workers stopped.
func (q *Queue) Close() { q.d.Close() }

// Stack is a lock-free LIFO stack (Treiber) of uint64 values.
type Stack struct {
	s *stack.Stack
	d reclaim.Domain

	mu      sync.Mutex
	handles *reclaim.SlotTable[*stack.Handle] // per-slot structure handles (see setCore.handles)
}

// NewStack builds a stack wired to a reclamation domain.
func NewStack(opts Options) (*Stack, error) {
	s := stack.New(stack.Config{MaxSlots: opts.MaxNodes})
	d, err := newDomain(withHPs(opts, stack.HPs), s.FreeNode, s.Pool())
	if err != nil {
		return nil, err
	}
	return &Stack{s: s, d: d.d, handles: reclaim.NewSlotTable[*stack.Handle](opts.arena(), opts.HardMaxWorkers)}, nil
}

// StackHandle is a goroutine's leased view of a Stack. A handle must be
// used by one goroutine at a time and Released when done.
type StackHandle struct {
	h        *stack.Handle
	d        reclaim.Domain
	g        reclaim.Guard
	released *atomic.Bool // nil for pinned (positional) handles
}

// Push adds v on top.
func (h StackHandle) Push(v uint64) { h.h.Push(v) }

// Pop removes and returns the top value; ok=false when empty.
func (h StackHandle) Pop() (v uint64, ok bool) { return h.h.Pop() }

// Release returns the handle's reclamation slot to the stack. The handle
// must not be used afterwards; extra calls are no-ops.
func (h StackHandle) Release() {
	if h.released == nil || !h.released.CompareAndSwap(false, true) {
		return
	}
	h.d.Release(h.g)
}

// Acquire leases a handle for the calling goroutine.
func (s *Stack) Acquire() (StackHandle, error) {
	g, err := s.d.Acquire()
	if err != nil {
		return StackHandle{}, err
	}
	return StackHandle{h: s.structureFor(g), d: s.d, g: g, released: new(atomic.Bool)}, nil
}

// AcquireWait is Acquire that blocks while every slot is leased; it returns
// ctx.Err() if ctx is done before a slot frees.
func (s *Stack) AcquireWait(ctx context.Context) (StackHandle, error) {
	g, err := s.d.AcquireWait(ctx)
	if err != nil {
		return StackHandle{}, err
	}
	return StackHandle{h: s.structureFor(g), d: s.d, g: g, released: new(atomic.Bool)}, nil
}

// structureFor returns slot g's cached stack handle (slot-owner exclusive;
// see setCore.handles for the ordering argument).
func (s *Stack) structureFor(g reclaim.Guard) *stack.Handle {
	p := s.handles.Get(reclaim.SlotIndex(g))
	if *p == nil {
		*p = s.s.NewHandle(g)
	}
	return *p
}

// Handle returns worker w's handle, pinning slot w permanently. w must lie
// in the initial arena (see setCore.Handle); out-of-range w panics.
//
// Deprecated: use Acquire and Release.
func (s *Stack) Handle(w int) StackHandle {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StackHandle{h: s.structureFor(s.d.Guard(w)), d: s.d}
}

// Stats returns the reclamation counters.
func (s *Stack) Stats() Stats { return fromReclaimStats(s.d.Stats()) }

// Len counts elements; only meaningful while no workers are active.
func (s *Stack) Len() int { return s.s.Len() }

// Close reclaims pending memory; call after all workers stopped.
func (s *Stack) Close() { s.d.Close() }
