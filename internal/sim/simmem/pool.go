// Package simmem is the manual-memory substrate for the TSO machine
// simulator (internal/sim): a slab of simulated memory words carved into
// fixed-size nodes, handed out as generation-tagged mem.Refs.
//
// It plays the same role for simulated programs that internal/mem plays for
// native ones (README.md, "Hazard-pointer publication and the rooster"):
// Free really recycles the slot, and any access through a stale Ref panics
// with *mem.Violation — the simulator's segmentation fault, which
// Machine.Run reports as a proc error. Node
// *fields* live in simulated memory, so field accesses go through the
// proc's store buffer and carry cycle costs; the allocator's own metadata
// (free list, generations) is host-side bookkeeping, charged via the
// Alloc/Free cost model — exactly as a real allocator's internals are not
// part of the concurrent algorithm under test.
package simmem

import (
	"fmt"

	"qsense/internal/mem"
	"qsense/internal/sim"
)

// Pool is a fixed-capacity node allocator over simulated memory. All
// methods that take a *sim.Proc must be called from that proc's program;
// the machine serializes execution, so the host-side metadata needs no
// locking.
type Pool struct {
	m      *sim.Machine
	base   sim.Addr
	fields int
	cap    int
	name   string

	gens  []uint32 // per-slot generation: odd = live, even = free
	free  []uint32 // LIFO free list of slot indexes
	stats Stats
}

// Stats is a snapshot of pool counters.
type Stats struct {
	Allocs, Frees uint64
	Live          int
	Cap           int
}

// NewPool reserves capacity*fields words of simulated memory. Call during
// machine setup (before Run).
func NewPool(m *sim.Machine, capacity, fields int, name string) *Pool {
	if capacity <= 0 || fields <= 0 {
		panic("simmem: capacity and fields must be positive")
	}
	p := &Pool{
		m:      m,
		base:   m.Reserve(capacity * fields),
		fields: fields,
		cap:    capacity,
		name:   name,
		gens:   make([]uint32, capacity),
		free:   make([]uint32, 0, capacity),
	}
	// LIFO: lowest indexes allocated first.
	for i := capacity - 1; i >= 0; i-- {
		p.free = append(p.free, uint32(i))
	}
	return p
}

// Cap returns the pool capacity in nodes.
func (p *Pool) Cap() int { return p.cap }

// Stats returns a snapshot of the counters.
func (p *Pool) Stats() Stats {
	s := p.stats
	s.Live = int(s.Allocs - s.Frees)
	s.Cap = p.cap
	return s
}

// Alloc pops a free slot and returns its Ref. Panics with ErrExhausted when
// the pool is empty — the simulator's malloc returning NULL, which the OOM
// experiments rely on. Charged the Alloc cost.
func (p *Pool) Alloc(pr *sim.Proc) mem.Ref {
	pr.Work(p.m.Config().Costs.Alloc)
	if len(p.free) == 0 {
		panic(&ErrExhausted{Name: p.name})
	}
	idx := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	p.gens[idx]++ // even -> odd: live
	p.stats.Allocs++
	return mem.MakeRef(idx, p.gens[idx])
}

// Free returns r's slot to the pool. Panics with *mem.Violation on a double
// free or stale reference. Charged the Free cost. Tag bits must be cleared.
func (p *Pool) Free(pr *sim.Proc, r mem.Ref) {
	pr.Work(p.m.Config().Costs.Free)
	idx := p.checkLive(r, "free")
	p.gens[idx]++ // odd -> even: free
	p.stats.Frees++
	p.free = append(p.free, idx)
}

// AllocHost is the host-side, cost-free variant of Alloc for machine setup
// (building sentinels and pre-filling structures before Run).
func (p *Pool) AllocHost() mem.Ref {
	if len(p.free) == 0 {
		panic(&ErrExhausted{Name: p.name})
	}
	idx := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	p.gens[idx]++
	p.stats.Allocs++
	return mem.MakeRef(idx, p.gens[idx])
}

// Reclaim is the host-side, cost-free variant of Free for teardown after
// Machine.Run has returned (domains drain their retire lists with it). The
// same violation checks apply.
func (p *Pool) Reclaim(r mem.Ref) {
	idx := p.checkLive(r, "free")
	p.gens[idx]++
	p.stats.Frees++
	p.free = append(p.free, idx)
}

// ErrExhausted is the panic value for an empty pool.
type ErrExhausted struct{ Name string }

func (e *ErrExhausted) Error() string { return fmt.Sprintf("simmem: pool %q exhausted", e.Name) }

// checkLive validates that r names a live slot and returns its index.
func (p *Pool) checkLive(r mem.Ref, op string) uint32 {
	if r.IsNil() {
		panic("simmem: nil Ref dereference")
	}
	idx := r.Index()
	if int(idx) >= p.cap {
		panic(fmt.Sprintf("simmem: foreign Ref %v for pool %q", r, p.name))
	}
	if g := p.gens[idx]; g != r.Gen() || g&1 == 0 {
		panic(&mem.Violation{Op: op, Ref: r, Want: r.Gen(), Got: g})
	}
	return idx
}

// Addr resolves field f of the live node r to its simulated address,
// panicking with *mem.Violation if r is stale — every dereference is a
// use-after-free checkpoint, like mem.Pool.Get.
func (p *Pool) Addr(r mem.Ref, f int) sim.Addr {
	idx := p.checkLive(r, "get")
	if f < 0 || f >= p.fields {
		panic(fmt.Sprintf("simmem: field %d out of range (node has %d)", f, p.fields))
	}
	return p.base + sim.Addr(int(idx)*p.fields+f)
}

// Valid reports whether r currently names a live slot (no panic).
func (p *Pool) Valid(r mem.Ref) bool {
	if r.IsNil() {
		return false
	}
	idx := r.Index()
	if int(idx) >= p.cap {
		return false
	}
	g := p.gens[idx]
	return g == r.Gen() && g&1 == 1
}

// Load reads field f of node r through pr's memory system.
func (p *Pool) Load(pr *sim.Proc, r mem.Ref, f int) uint64 {
	return pr.Load(p.Addr(r, f))
}

// Store writes field f of node r through pr's store buffer.
func (p *Pool) Store(pr *sim.Proc, r mem.Ref, f int, v uint64) {
	pr.Store(p.Addr(r, f), v)
}

// CAS compare-and-swaps field f of node r (full fence semantics).
func (p *Pool) CAS(pr *sim.Proc, r mem.Ref, f int, old, new uint64) (uint64, bool) {
	return pr.CAS(p.Addr(r, f), old, new)
}

// PeekField reads a field directly (setup/validation; bypasses buffers).
func (p *Pool) PeekField(r mem.Ref, f int) uint64 {
	return p.m.Peek(p.Addr(r, f))
}

// PokeField writes a field directly (setup only).
func (p *Pool) PokeField(r mem.Ref, f int, v uint64) {
	p.m.Poke(p.Addr(r, f), v)
}
