package tso

import "testing"

// --- model validation litmus tests ---

// TestStoreBuffering: the classic SB litmus. Under TSO both loads may see
// 0 (stores sitting in buffers); with fences that outcome disappears. This
// validates that the model actually exhibits — and fences actually repair —
// store-load reordering.
func TestStoreBuffering(t *testing.T) {
	const x, y = 0, 1
	unfenced := System{
		Procs: []Program{
			{Store(x, 1), Load(0, y)},
			{Store(y, 1), Load(0, x)},
		},
		MemSize: 2,
	}
	out, complete := Explore(unfenced, 0)
	if !complete {
		t.Fatal("SB exploration incomplete")
	}
	both0 := func(o Outcome) bool { return o.Regs[0][0] == 0 && o.Regs[1][0] == 0 }
	if !out.Any(both0) {
		t.Fatal("TSO must allow r0=r1=0 in SB — store buffering missing from the model")
	}
	fenced := System{
		Procs: []Program{
			{Store(x, 1), Fence(), Load(0, y)},
			{Store(y, 1), Fence(), Load(0, x)},
		},
		MemSize: 2,
	}
	out, complete = Explore(fenced, 0)
	if !complete {
		t.Fatal("fenced SB exploration incomplete")
	}
	if out.Any(both0) {
		t.Fatal("fences must forbid r0=r1=0 in SB")
	}
}

// TestMessagePassing: TSO buffers are FIFO, so flag=1 implies data=1.
func TestMessagePassing(t *testing.T) {
	const data, flag = 0, 1
	sys := System{
		Procs: []Program{
			{Store(data, 1), Store(flag, 1)},
			{Load(0, flag), Load(1, data)},
		},
		MemSize: 2,
	}
	out, complete := Explore(sys, 0)
	if !complete {
		t.Fatal("MP exploration incomplete")
	}
	broken := func(o Outcome) bool { return o.Regs[1][0] == 1 && o.Regs[1][1] == 0 }
	if out.Any(broken) {
		t.Fatal("TSO must not reorder stores: flag=1,data=0 observed")
	}
}

// TestStoreForwarding: a process reads its own buffered store.
func TestStoreForwarding(t *testing.T) {
	sys := System{
		Procs:   []Program{{Store(0, 7), Load(0, 0)}},
		MemSize: 1,
	}
	out, _ := Explore(sys, 0)
	if !out.All(func(o Outcome) bool { return o.Regs[0][0] == 7 }) {
		t.Fatal("store forwarding broken: own store invisible to own load")
	}
}

// TestCASDrainsAndSwaps: CAS acts as a fence and is atomic.
func TestCASDrainsAndSwaps(t *testing.T) {
	sys := System{
		Procs: []Program{
			{CAS(0, 0, 1, 0)},
			{CAS(0, 0, 2, 0)},
		},
		MemSize: 1,
	}
	out, _ := Explore(sys, 0)
	// Exactly one CAS wins in every outcome.
	ok := out.All(func(o Outcome) bool {
		return o.Regs[0][0]+o.Regs[1][0] == 1 &&
			((o.Mem[0] == 1) == (o.Regs[0][0] == 1)) &&
			((o.Mem[0] == 2) == (o.Regs[1][0] == 1))
	})
	if !ok {
		t.Fatal("CAS atomicity violated in some interleaving")
	}
}

// TestFlushOtherDrainsVictim: the context-switch primitive publishes the
// victim's buffered stores (deterministic, single interleaving).
func TestFlushOtherDrainsVictim(t *testing.T) {
	sys := System{
		Procs:   []Program{{Store(0, 9)}, {FlushOther(0)}},
		MemSize: 1,
	}
	s := newState(&sys)
	s.step(&sys, 0) // reader buffers the store
	if s.mem[0] != 0 {
		t.Fatal("store must sit in the buffer, not memory")
	}
	s.step(&sys, 1) // context switch on the victim
	if s.mem[0] != 9 {
		t.Fatal("FlushOther did not publish the buffered store")
	}
	if len(s.bufs[0]) != 0 {
		t.Fatal("victim buffer not drained")
	}
}

// TestMembarrierDrainsEveryone: the process-wide barrier publishes every
// process's buffered stores, the caller's included.
func TestMembarrierDrainsEveryone(t *testing.T) {
	sys := System{
		Procs:   []Program{{Store(0, 1)}, {Store(1, 2)}, {Store(2, 3), Membarrier()}},
		MemSize: 3,
	}
	s := newState(&sys)
	for p := range sys.Procs {
		s.step(&sys, p) // every process buffers its store
	}
	if s.mem[0] != 0 || s.mem[1] != 0 || s.mem[2] != 0 {
		t.Fatal("stores must sit in the buffers, not memory")
	}
	s.step(&sys, 2) // the barrier
	if s.mem[0] != 1 || s.mem[1] != 2 || s.mem[2] != 3 {
		t.Fatalf("Membarrier left stores buffered: mem %v", s.mem)
	}
	for p := range s.bufs {
		if len(s.bufs[p]) != 0 {
			t.Fatalf("process %d buffer not drained", p)
		}
	}
}

// --- the paper's §4.1 scenario ---

// TestAlgorithm2NaiveHybridUnsafe reproduces the paper's illegal
// interleaving: with the fence skipped and no deferral, some interleaving
// validates the reference and then reads freed memory.
func TestAlgorithm2NaiveHybridUnsafe(t *testing.T) {
	out, complete := Explore(NaiveHybridSystem(), 0)
	if !complete {
		t.Fatal("exploration incomplete")
	}
	if !out.Any(UseAfterFree) {
		t.Fatal("the naive QSBR/HP hybrid should exhibit Algorithm 2's use-after-free")
	}
}

// TestClassicHPSafe: the per-publication fence removes the violation in
// every interleaving.
func TestClassicHPSafe(t *testing.T) {
	out, complete := Explore(ClassicHPSystem(), 0)
	if !complete {
		t.Fatal("exploration incomplete")
	}
	if out.Any(UseAfterFree) {
		t.Fatal("classic HP must be safe under TSO")
	}
}

// TestCadenceSafe: no fence anywhere on the reader path, yet rooster
// flushes plus deferred reclamation eliminate the violation in every
// interleaving — the paper's Property 1 at model scale.
func TestCadenceSafe(t *testing.T) {
	out, complete := Explore(CadenceSystem(), 1<<22)
	if !complete {
		t.Fatal("exploration incomplete; raise the state limit")
	}
	if out.Any(UseAfterFree) {
		t.Fatal("Cadence (rooster + deferral) must be safe under TSO")
	}
	// Liveness sanity: in at least one interleaving the deleter does
	// free the node (reclamation happens).
	freed := func(o Outcome) bool { return o.Mem[CellValid] == 0 }
	if !out.Any(freed) {
		t.Fatal("Cadence model never reclaims — deferral modeled too strictly")
	}
}

// TestCadenceWithoutDeferralUnsafe: keeping roosters but scanning
// immediately resurrects the bug — deferred reclamation is load-bearing.
func TestCadenceWithoutDeferralUnsafe(t *testing.T) {
	out, complete := Explore(CadenceNoDeferralSystem(), 1<<22)
	if !complete {
		t.Fatal("exploration incomplete")
	}
	if !out.Any(UseAfterFree) {
		t.Fatal("without deferral the rooster alone cannot make unfenced HPs safe")
	}
}

// TestCadenceMembarrierSafe: the implementation's asymmetric mode — a
// plain hazard-pointer store, rooster passes of one membarrier plus a
// pending-to-shared copy plus a tick, scans of the shared slot after two
// ticks — is safe in every interleaving, and still reclaims in some.
func TestCadenceMembarrierSafe(t *testing.T) {
	out, complete := Explore(CadenceMembarrierSystem(), 1<<22)
	if !complete {
		t.Fatal("exploration incomplete; raise the state limit")
	}
	if out.Any(UseAfterFree) {
		t.Fatal("Cadence with one membarrier per pass must be safe under TSO")
	}
	if !out.Any(func(o Outcome) bool { return o.Mem[CellValid] == 0 }) {
		t.Fatal("membarrier model never reclaims")
	}
}

// TestCadenceNoMembarrierUnsafe: the same passes without the barrier copy
// a pending slot the reader's publication has not reached — the barrier
// is load-bearing.
func TestCadenceNoMembarrierUnsafe(t *testing.T) {
	out, complete := Explore(CadenceNoMembarrierSystem(), 1<<22)
	if !complete {
		t.Fatal("exploration incomplete")
	}
	if !out.Any(UseAfterFree) {
		t.Fatal("passes that only copy and tick cannot make plain-store HPs safe")
	}
}

// TestReaderProtectedNeverFreedUnderHP: in the classic HP system, whenever
// the reader reaches its access (validation passed), the deleter must have
// seen the hazard pointer or not freed yet — the access always reads 1.
func TestReaderProtectedNeverFreedUnderHP(t *testing.T) {
	out, _ := Explore(ClassicHPSystem(), 0)
	ok := out.All(func(o Outcome) bool {
		if o.Regs[ProcReader][1] == 1 { // validated
			return o.Regs[ProcReader][2] == 1 // access saw live node
		}
		return true
	})
	if !ok {
		t.Fatal("validated access read freed memory under classic HP")
	}
}

// TestRunRandomAgreesWithExplore: random walks over the naive system find
// the violation too (eventually), and never find it in the fenced system.
func TestRunRandomAgreesWithExplore(t *testing.T) {
	found := false
	for seed := uint64(0); seed < 4000 && !found; seed++ {
		o, halted := RunRandom(NaiveHybridSystem(), seed, 0)
		if halted && UseAfterFree(o) {
			found = true
		}
	}
	if !found {
		t.Fatal("random walks never hit the §4.1 interleaving (very unlikely)")
	}
	for seed := uint64(0); seed < 2000; seed++ {
		o, halted := RunRandom(ClassicHPSystem(), seed, 0)
		if halted && UseAfterFree(o) {
			t.Fatal("random walk found a violation in the fenced system")
		}
	}
}

// TestExploreStateLimit: the limit aborts cleanly.
func TestExploreStateLimit(t *testing.T) {
	_, complete := Explore(CadenceSystem(), 10)
	if complete {
		t.Fatal("a 10-state limit cannot complete this system")
	}
}

// TestOutcomesList: deterministic ordering for display.
func TestOutcomesList(t *testing.T) {
	out, _ := Explore(NaiveHybridSystem(), 0)
	l := out.List()
	if len(l) != out.Len() || out.Len() == 0 {
		t.Fatalf("list len %d vs %d", len(l), out.Len())
	}
}

// TestInitApplied: initial memory values are honored.
func TestInitApplied(t *testing.T) {
	sys := System{Procs: []Program{{Load(0, 0)}}, MemSize: 1, Init: []uint64{42}}
	out, _ := Explore(sys, 0)
	if !out.All(func(o Outcome) bool { return o.Regs[0][0] == 42 }) {
		t.Fatal("Init not applied")
	}
}
