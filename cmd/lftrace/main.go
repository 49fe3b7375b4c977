// Command lftrace runs a program on the LoopFrog machine and prints the
// threadlet lifecycle timeline — the dynamic view of figure 2: epochs
// spawning ahead of the architectural thread, leapfrogging the window,
// retiring in order, and being squashed on conflicts or loop exits.
//
// Usage:
//
//	lftrace [-max N] (-bench name | file.ll | file.s)
//
// Up to -max events go to stdout, then the run's totals (-max 0 prints only
// the totals). For the Chrome trace-event JSON of the same run, use
// lfsim -trace file.
package main

import (
	"flag"
	"fmt"
	"os"

	"loopfrog/internal/cpu"
	"loopfrog/internal/sim"
	"loopfrog/internal/workloads"
)

func main() {
	maxEvents := flag.Int("max", 200, "maximum number of events to print")
	bench := flag.String("bench", "", "run a named built-in benchmark")
	flag.Parse()

	if *bench == "" && flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "lftrace: usage: lftrace [-max N] (-bench name | file)")
		os.Exit(1)
	}
	prog, _, err := workloads.Load(*bench, flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "lftrace:", err)
		os.Exit(1)
	}
	job := sim.Job{Cfg: cpu.DefaultConfig(), Prog: prog}
	if *maxEvents > 0 {
		traced := false
		job.Observe = func(m *cpu.Machine) {
			// A panic retry observes a fresh machine; only the first
			// attempt's events are printed.
			if traced {
				return
			}
			traced = true
			printed := 0
			m.SetEventHook(func(e cpu.Event) {
				fmt.Println(e)
				printed++
				if printed == *maxEvents {
					fmt.Println("... (further events suppressed)")
					// Detach so the rest of the run pays no per-event cost.
					m.SetEventHook(nil)
				}
			})
		}
	}
	stats, err := (&sim.Harness{}).RunJobs([]sim.Job{job})
	if err != nil {
		fmt.Fprintln(os.Stderr, "lftrace:", err)
		os.Exit(1)
	}
	st := stats[0]
	fmt.Printf("\n%d cycles, %d instructions, %d spawns, %d retires\n",
		st.Cycles, st.ArchInsts, st.Spawns, st.Retires)
}
