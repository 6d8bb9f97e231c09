// qsense-tso demonstrates the paper's §4.1 argument with the TSO model
// checker: exhaustively exploring every interleaving of Algorithm 2 shows
// that a naive QSBR/HP hybrid (hazard pointers published without fences,
// reclamation without deferral) frees memory a validated reader is about to
// use — and that either the classic fence or Cadence's rooster-plus-deferral
// eliminates the violation in all interleavings, including the
// implementation's form of the rooster pass: one process-wide membarrier,
// then the pending-to-shared copy, then the tick.
package main

import (
	"flag"
	"fmt"
	"os"

	"qsense/internal/tso"
)

func main() {
	verbose := flag.Bool("v", false, "list the violating outcomes")
	flag.Parse()

	type scenario struct {
		name   string
		sys    tso.System
		expect bool // violation expected?
		note   string
	}
	scenarios := []scenario{
		{"naive hybrid (no fence, no deferral)", tso.NaiveHybridSystem(), true,
			"Algorithm 2's illegal interleaving: the HP store is stuck in the store buffer during the scan"},
		{"classic hazard pointers (fence per publication)", tso.ClassicHPSystem(), false,
			"the fence drains the buffer before re-validation (Algorithm 1)"},
		{"cadence (rooster flush + deferred reclamation)", tso.CadenceSystem(), false,
			"no reader fence; a full rooster pass after removal makes all prior HP stores visible (Figure 4)"},
		{"cadence without deferral (ablation)", tso.CadenceNoDeferralSystem(), true,
			"the rooster alone is not enough: scanning before a full pass misses buffered HPs"},
		{"cadence, one membarrier per rooster pass", tso.CadenceMembarrierSystem(), false,
			"the implementation's asymmetric mode: plain HP stores, each pass drains every buffer, then copies pending to shared"},
		{"cadence, passes without membarrier (ablation)", tso.CadenceNoMembarrierSystem(), true,
			"copy-and-tick alone reads a pending slot the buffered HP store has not reached"},
	}

	fail := false
	for _, sc := range scenarios {
		out, complete := tso.Explore(sc.sys, 1<<22)
		if !complete {
			fmt.Printf("%-55s exploration incomplete!\n", sc.name)
			fail = true
			continue
		}
		violated := out.Any(tso.UseAfterFree)
		verdict := "SAFE in all interleavings"
		if violated {
			verdict = "USE-AFTER-FREE reachable"
		}
		status := "as expected"
		if violated != sc.expect {
			status = "UNEXPECTED"
			fail = true
		}
		fmt.Printf("%-55s %-28s (%d outcomes, %s)\n", sc.name, verdict, out.Len(), status)
		fmt.Printf("        %s\n", sc.note)
		if *verbose && violated {
			for _, o := range out.List() {
				if tso.UseAfterFree(o) {
					fmt.Printf("        violating outcome: reader regs %v, mem %v\n",
						o.Regs[tso.ProcReader], o.Mem)
				}
			}
		}
	}
	if fail {
		os.Exit(1)
	}
}
