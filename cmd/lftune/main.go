// Command lftune is the hint autotuner driver: it closes the
// compile→simulate→recompile loop for one program. Per @loopfrog loop it
// enumerates hint-selection and engine-knob variants, prunes the space with
// the linter's LF2xx profitability notes, and measures every surviving
// variant with one full detailed run against a shared baseline. The static
// default selection is always measured, so the reported winner is never
// worse than what the compiler would pick on its own.
//
// Usage:
//
//	lftune [flags] file.ll        tune a LoopLang source file
//	lftune [flags] -bench name    tune a suite workload by name
//
// Flags:
//
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
	rep, err := tune.Tune(context.Background(), tune.Spec{Program: name, Source: src}, tune.Local{H: h})
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
		if rep.Winner.Score < rep.Static.Score {
			fmt.Fprintf(os.Stderr, "lftune: gate: winner score %.4f below static %.4f\n",
				rep.Winner.Score, rep.Static.Score)
			return 1
		}
	}
	return 0
}

func writeText(rep *tune.Report, h *sim.Harness) {
	fmt.Printf("%s: %d loop site(s), %d variant(s) enumerated, %d pruned, baseline %d cycles\n",
		rep.Program, len(rep.Loops), rep.SpaceSize, len(rep.Pruned), rep.BaseCycles)
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
	fmt.Printf("  %-4s %-28s %10s %8s\n", "#", "variant", "cycles", "score")
	for _, s := range rep.Ranking {
		if s.Err != "" {
			fmt.Printf("  %-4d %-28s FAILED: %s\n", s.Variant.ID, s.Variant.Desc(), s.Err)
			continue
		}
		fmt.Printf("  %-4d %-28s %10d %8.4f\n", s.Variant.ID, s.Variant.Desc(), s.Cycles, s.Score)
	}
	fmt.Printf("winner: #%d (%s) score %.4f (%d cycles)\n",
		rep.Winner.Variant.ID, rep.Winner.Variant.Desc(), rep.Winner.Score, rep.Winner.Cycles)
	fmt.Printf("static: #%d score %.4f — winner %s static\n",
		rep.Static.Variant.ID, rep.Static.Score, vs(rep))
	st := h.Stats()
	fmt.Printf("harness cache: hits %d, joins %d, misses %d\n",
		st.CacheHits, st.CacheFlightJoins, st.CacheMisses)
}

func vs(rep *tune.Report) string {
	switch {
	case rep.WinnerBeatsStatic():
		return "beats"
	case rep.Winner.Score == rep.Static.Score:
		return "matches"
	default:
		return "trails"
	}
}
