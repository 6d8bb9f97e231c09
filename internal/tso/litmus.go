package tso

// This file encodes the paper's §4.1 scenario (Algorithm 2) and its
// repairs as model systems.
//
// Shared memory layout: one node n, referenced by one link cell.
//
//	CellLink    — the data structure link: 1 while n is reachable, 0 after
//	              removal (the value 1 doubles as "n's address").
//	CellHP      — the reader's hazard pointer slot.
//	CellValid   — n's allocation state: 1 allocated, 0 freed.
//	CellRooster — rooster pass counter (Cadence variants).
//	CellShared  — the scan-visible copy of the hazard pointer (membarrier
//	              variants): the reader publishes into CellHP, its pending
//	              slot, and only a rooster flush copies it here.
//
// The reader is process 0, the deleter process 1, the rooster (when
// present) process 2.
//
// Reader registers after halting: r0 = the reference it read, r1 = the
// re-validation read, r2 = the value of CellValid at the access hazard.
// The safety violation — Algorithm 2's illegal interleaving — is a terminal
// state with r1 == 1 (validation passed, so the reader proceeded to the
// access) and r2 == 0 (the node had been freed): a use-after-free.
const (
	CellLink = iota
	CellHP
	CellValid
	CellRooster
	CellShared
	memSize
)

// Process indices in the systems below.
const (
	ProcReader  = 0
	ProcDeleter = 1
	ProcRooster = 2
)

// readerProgram is PR of Algorithm 2. withFence inserts the classic hazard
// pointer barrier between the HP store and the re-validation (R3 taken).
func readerProgram(withFence bool) Program {
	const end = 7
	p := Program{
		Load(0, CellLink),   // R1: read reference to n
		JmpIfNe(0, 1, end),  // nothing linked: no hazard, stop
		StoreReg(CellHP, 0), // R2: assign hazard pointer (buffered!)
		Fence(),             // R3: barrier — replaced by a no-op below when absent
		Load(1, CellLink),   // R4: recheck n
		JmpIfNe(1, 1, end),  // validation failed: retry path, no access
		Load(2, CellValid),  // R5: use n — 0 here is a use-after-free
	}
	if !withFence {
		// The naive hybrid skips the barrier when the fallback flag is
		// off; model the skipped fence as a harmless reload.
		p[3] = Load(3, CellLink)
	}
	return p
}

// deleterImmediate is PD of Algorithm 2: remove, scan, free — no deferral.
// Its own steps are fenced, as §4.1 assumes.
func deleterImmediate() Program {
	const end = 6
	return Program{
		Store(CellLink, 0),  // D1: remove n
		Fence(),             // deleter's stores are not reordered
		Load(0, CellHP),     // D3: scan hazard pointers
		JmpIfEq(0, 1, end),  // protected: do not free
		Store(CellValid, 0), // D4: free n
		Fence(),
	}
}

// deleterDeferred is the Cadence deleter: it stamps the removal with the
// rooster tick and frees only once the tick has advanced by two — i.e.
// after a complete rooster pass that began after the removal (§5.1,
// Figure 4). The model's branch set dispatches on the possible stamps; a
// stamp too late for the rooster's four passes simply never frees (the
// model checks safety, not progress). scanCell is the hazard pointer cell
// the scan reads.
func deleterDeferred(scanCell int) Program {
	const scan = 16
	const end = 20
	return Program{
		/*  0 */ Store(CellLink, 0), // remove n
		/*  1 */ Fence(),
		/*  2 */ Load(1, CellRooster), // stamp := tick
		/*  3 */ JmpIfEq(1, 0, 7), // stamp 0: wait for tick 2
		/*  4 */ JmpIfEq(1, 1, 10), // stamp 1: wait for tick 3
		/*  5 */ JmpIfEq(1, 2, 13), // stamp 2: wait for tick 4
		/*  6 */ JmpIfNe(1, 99, end), // stamp too late: never old enough here
		/*  7 */ Load(2, CellRooster),
		/*  8 */ JmpIfNe(2, 2, 7),
		/*  9 */ JmpIfNe(1, 99, scan),
		/* 10 */ Load(2, CellRooster),
		/* 11 */ JmpIfNe(2, 3, 10),
		/* 12 */ JmpIfNe(1, 99, scan),
		/* 13 */ Load(2, CellRooster),
		/* 14 */ JmpIfNe(2, 4, 13),
		/* 15 */ JmpIfNe(1, 99, scan),
		/* 16 */ Load(0, scanCell), // scan (shared memory is now conclusive)
		/* 17 */ JmpIfEq(0, 1, end), // protected: keep
		/* 18 */ Store(CellValid, 0), // free n
		/* 19 */ Fence(),
	}
}

// roosterProgram performs `passes` rooster wake-ups: each flushes the
// reader's store buffer (the context switch) and advances the tick.
func roosterProgram(passes int) Program {
	var p Program
	for i := 1; i <= passes; i++ {
		p = append(p,
			FlushOther(ProcReader),
			Store(CellRooster, uint64(i)),
			Fence(),
		)
	}
	return p
}

// roosterMembarrierProgram performs `passes` passes of the implementation's
// rooster: a process-wide barrier (fence.Heavy, when barrier is set), a
// flush copying the reader's pending slot into the shared slot scans read,
// then the tick.
func roosterMembarrierProgram(passes int, barrier bool) Program {
	var p Program
	for i := 1; i <= passes; i++ {
		if barrier {
			p = append(p, Membarrier())
		}
		p = append(p,
			Load(0, CellHP),         // flush: read the pending slot
			StoreReg(CellShared, 0), // ... into the shared slot
			Store(CellRooster, uint64(i)),
			Fence(),
		)
	}
	return p
}

func baseInit() []uint64 {
	init := make([]uint64, memSize)
	init[CellLink] = 1
	init[CellValid] = 1
	return init
}

// NaiveHybridSystem is the broken design §4.1 warns about: hazard pointers
// published without fences (the fast path skipped the barrier) and
// reclamation that trusts an immediate scan. Exploration finds Algorithm
// 2's illegal interleaving.
func NaiveHybridSystem() System {
	return System{
		Procs:   []Program{readerProgram(false), deleterImmediate()},
		MemSize: memSize,
		Init:    baseInit(),
	}
}

// ClassicHPSystem fences every hazard pointer publication (Algorithm 1).
func ClassicHPSystem() System {
	return System{
		Procs:   []Program{readerProgram(true), deleterImmediate()},
		MemSize: memSize,
		Init:    baseInit(),
	}
}

// CadenceSystem publishes without fences but defers reclamation across
// rooster passes (Algorithm 3).
func CadenceSystem() System {
	return System{
		Procs:   []Program{readerProgram(false), deleterDeferred(CellHP), roosterProgram(4)},
		MemSize: memSize,
		Init:    baseInit(),
	}
}

// CadenceMembarrierSystem is Cadence as the implementation runs it with
// asymmetric publication: the reader's hazard pointer is a plain, unfenced
// store into its pending slot; each rooster pass issues one membarrier,
// copies pending into the shared slot and ticks; the deleter scans the
// shared slot once its stamp is two ticks old. Pass s+2 begins after the
// removal, so its barrier drains the reader's publication and its copy
// carries it into the shared slot before the tick the deleter waits for.
func CadenceMembarrierSystem() System {
	return System{
		Procs:   []Program{readerProgram(false), deleterDeferred(CellShared), roosterMembarrierProgram(4, true)},
		MemSize: memSize,
		Init:    baseInit(),
	}
}

// CadenceNoMembarrierSystem is the ablation of CadenceMembarrierSystem
// whose passes only copy and tick: nothing drains the reader's buffer, so
// a pass can copy a pending slot the publication has not reached yet.
func CadenceNoMembarrierSystem() System {
	return System{
		Procs:   []Program{readerProgram(false), deleterDeferred(CellShared), roosterMembarrierProgram(4, false)},
		MemSize: memSize,
		Init:    baseInit(),
	}
}

// CadenceNoDeferralSystem keeps the rooster but frees immediately: the
// ablation showing deferred reclamation is load-bearing.
func CadenceNoDeferralSystem() System {
	return System{
		Procs:   []Program{readerProgram(false), deleterImmediate(), roosterProgram(4)},
		MemSize: memSize,
		Init:    baseInit(),
	}
}

// UseAfterFree is the violation predicate: the reader validated its
// reference (r1 == 1) and then read freed memory (r2 == 0).
func UseAfterFree(o Outcome) bool {
	return o.Regs[ProcReader][1] == 1 && o.Regs[ProcReader][2] == 0
}
