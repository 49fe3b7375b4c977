// Command lftune is the budgeted hint autotuner driver: it closes the
// compile→simulate→recompile loop for one program. Per @loopfrog loop it
// enumerates hint-selection and engine-knob variants, prunes the space with
// the linter's LF2xx profitability notes, and spends a fixed evaluation
// budget by successive halving — wide-and-cheap sampled rungs, survivors
// promoted to full detailed runs. The static default selection is anchored
// through every rung, so the reported winner is never worse than what the
// compiler would pick on its own.
//
// Usage:
//
//	lftune [flags] file.ll        tune a LoopLang source file
//	lftune [flags] -bench name    tune a suite workload by name
//
// Flags:
//
//	-budget N    evaluation budget in rung-0-equivalent units (default 128)
//	-eta N       successive-halving fraction (default 3)
//	-seed N      recorded in the report (the search is deterministic)
//	-workers N   harness worker pool size (default GOMAXPROCS)
//	-json        emit the full search report as JSON
//	-o file      write the winning variant's recompiled image (disassembly)
//	-gate        exit 1 if the winner does not at least match the static
//	             selection, or the winning image fails the linter
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"loopfrog/internal/compiler"
	"loopfrog/internal/lint"
	"loopfrog/internal/sim"
	"loopfrog/internal/tune"
	"loopfrog/internal/workloads"
)

func main() {
	os.Exit(run())
}

func run() int {
	bench := flag.String("bench", "", "tune a suite workload by name instead of a file")
	budget := flag.Int("budget", tune.DefaultBudget, "evaluation budget in rung-0-equivalent units")
	eta := flag.Int("eta", tune.DefaultEta, "successive-halving fraction")
	seed := flag.Int64("seed", 0, "seed recorded in the report")
	workers := flag.Int("workers", 0, "harness worker pool size (0 = GOMAXPROCS)")
	jsonOut := flag.Bool("json", false, "emit the full search report as JSON")
	outFile := flag.String("o", "", "write the winning variant's recompiled image to this file")
	gate := flag.Bool("gate", false, "exit 1 unless the winner at least matches the static selection and lints clean")
	flag.Parse()

	var name, src string
	switch {
	case *bench != "":
		b := workloads.Find(*bench)
		if b == nil {
			fmt.Fprintf(os.Stderr, "lftune: unknown benchmark %q\n", *bench)
			return 2
		}
		if b.Source() == "" {
			fmt.Fprintf(os.Stderr, "lftune: %s is a prebuilt asm workload; only LoopLang workloads can be retuned\n", *bench)
			return 2
		}
		name, src = b.Name, b.Source()
	case flag.NArg() == 1:
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "lftune:", err)
			return 1
		}
		name, src = flag.Arg(0), string(data)
	default:
		fmt.Fprintln(os.Stderr, "usage: lftune [flags] file.ll | lftune [flags] -bench name")
		return 2
	}

	h := &sim.Harness{Workers: *workers, Cache: sim.NewRunCache()}
	spec := tune.Spec{Program: name, Source: src, Budget: *budget, Eta: *eta, Seed: *seed}
	rep, err := tune.Tune(context.Background(), spec, tune.Local{H: h})
	if err != nil {
		fmt.Fprintln(os.Stderr, "lftune:", err)
		return 1
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "lftune:", err)
			return 1
		}
	} else {
		writeText(rep, h)
	}

	winnerClean := true
	if *outFile != "" || *gate {
		prog, _, err := compiler.CompileOpts(name, src, rep.Winner.Variant.CompilerOpts())
		if err != nil {
			fmt.Fprintln(os.Stderr, "lftune: recompile winner:", err)
			return 1
		}
		lrep := lint.Run(prog, lint.Options{})
		if lrep.Failed(false) {
			winnerClean = false
			for i := range lrep.Diags {
				d := &lrep.Diags[i]
				if d.Severity == lint.SevError {
					fmt.Fprintf(os.Stderr, "lftune: winner image: %s [%s]: %s\n",
						d.Position(name), d.Code, d.Message)
				}
			}
		}
		if *outFile != "" {
			if err := os.WriteFile(*outFile, []byte(prog.Disassemble()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "lftune:", err)
				return 1
			}
		}
	}

	if *gate {
		if !winnerClean {
			fmt.Fprintln(os.Stderr, "lftune: gate: winning image fails the linter")
			return 1
		}
		// Scores at different tiers are not comparable: a budget-starved
		// search can promote the winner past the anchor's deepest rung.
		if rep.Winner.Tier == rep.Static.Tier && rep.Winner.Score < rep.Static.Score {
			fmt.Fprintf(os.Stderr, "lftune: gate: winner score %.4f below static %.4f\n",
				rep.Winner.Score, rep.Static.Score)
			return 1
		}
	}
	return 0
}

func writeText(rep *tune.Report, h *sim.Harness) {
	fmt.Printf("%s: %d loop site(s), %d variant(s) enumerated, %d pruned, budget %d (spent %d)\n",
		rep.Program, len(rep.Loops), rep.SpaceSize, len(rep.Pruned), rep.Budget, rep.Spent)
	for _, l := range rep.Loops {
		state := "selected"
		if !l.Selected {
			state = "de-selected: " + l.Reason
		}
		fmt.Printf("  loop %s:%d %s\n", l.Func, l.Line, state)
	}
	for _, p := range rep.Pruned {
		fmt.Printf("  pruned #%d (%s): %s\n", p.Variant.ID, p.Variant.Desc(), p.Rule)
	}
	for _, r := range rep.Rungs {
		fmt.Printf("rung %d (%s): %d evaluated, baseline %.0f cycles, %d unit(s)\n",
			r.Tier, r.TierName, len(r.Evaluated), r.BaseCycles, r.CostUnits)
		for _, s := range r.Evaluated {
			mark := " "
			if contains(r.Promoted, s.Variant.ID) {
				mark = "+"
			}
			if s.Err != "" {
				fmt.Printf("  %s #%-3d %-28s FAILED: %s\n", mark, s.Variant.ID, s.Variant.Desc(), s.Err)
				continue
			}
			fmt.Printf("  %s #%-3d %-28s score %.4f (%.0f cycles)\n",
				mark, s.Variant.ID, s.Variant.Desc(), s.Score, s.Cycles)
		}
	}
	fmt.Printf("winner: #%d (%s) score %.4f at %s\n",
		rep.Winner.Variant.ID, rep.Winner.Variant.Desc(), rep.Winner.Score, tierName(rep.Winner.Tier))
	fmt.Printf("static: #%d score %.4f — winner %s static\n",
		rep.Static.Variant.ID, rep.Static.Score, vs(rep))
	st := h.Stats()
	fmt.Printf("search cost: %d unit(s); cache hits %d, joins %d, misses %d\n",
		rep.Spent, st.CacheHits, st.CacheFlightJoins, st.CacheMisses)
}

func vs(rep *tune.Report) string {
	switch {
	case rep.Winner.Tier != rep.Static.Tier:
		return "measured at a deeper tier than"
	case rep.WinnerBeatsStatic():
		return "beats"
	case rep.Winner.Score == rep.Static.Score:
		return "matches"
	default:
		return "trails"
	}
}

func tierName(i int) string {
	tiers := tune.Tiers()
	if i >= 0 && i < len(tiers) {
		return tiers[i].Name
	}
	return fmt.Sprint(i)
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
