// Command lfreport explains, loop by loop, why a program does (or does not)
// speed up under LoopFrog: it runs the baseline/LoopFrog pair in the detailed
// model with per-region speculation ledgers enabled — the A/B job spec
// lfservd runs, through the same executor — lints the program for
// the static region table and profitability notes, joins the two by region ID
// (the continuation address), and prints a ranked per-loop report with a
// keep/retune/drop verdict for every hint.
//
// Usage:
//
//	lfreport [-threadlets N] [-nopack] [-parallel N] [-sampled]
//	         [-format text|json|html] [-o file]
//	         (-bench name | -suite | file.ll | file.s)
//
// -suite reports every CPU 2017 suite workload in one document. Before
// reporting, the per-region ledger totals are reconciled exactly against the
// run's global counters; a mismatch is a simulator bug and fails the run.
// -sampled estimates via the two-tier sampled model instead (default sample
// configuration): much faster, interval-weighted ledger aggregates, report
// marked as an estimate; exact reconciliation does not apply.
//
// Exit status: 0 success, 1 run or reconciliation failure, 2 usage.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"loopfrog/internal/asm"
	"loopfrog/internal/cpu"
	"loopfrog/internal/lint"
	"loopfrog/internal/report"
	"loopfrog/internal/serve"
	"loopfrog/internal/sim"
	"loopfrog/internal/workloads"
)

func main() {
	threadlets := flag.Int("threadlets", 4, "threadlet contexts")
	nopack := flag.Bool("nopack", false, "disable iteration packing")
	parallel := flag.Int("parallel", 0, "simulation worker count (0 = all cores)")
	bench := flag.String("bench", "", "report a named built-in benchmark")
	suite := flag.Bool("suite", false, "report every CPU 2017 suite workload")
	sampled := flag.Bool("sampled", false, "estimate via two-tier sampled simulation instead of full detailed runs")
	format := flag.String("format", "text", "output format: text, json, or html")
	out := flag.String("o", "", "write the report to a file instead of stdout")
	flag.Parse()

	if *threadlets < 1 {
		fmt.Fprintf(os.Stderr, "lfreport: -threadlets must be at least 1 (got %d)\n", *threadlets)
		flag.Usage()
		os.Exit(2)
	}
	switch *format {
	case "text", "json", "html":
	default:
		fmt.Fprintf(os.Stderr, "lfreport: unknown format %q (want text, json, or html)\n", *format)
		flag.Usage()
		os.Exit(2)
	}
	inputs := 0
	for _, set := range []bool{*bench != "", *suite, len(flag.Args()) == 1} {
		if set {
			inputs++
		}
	}
	if inputs != 1 {
		fmt.Fprintln(os.Stderr, "lfreport: need exactly one input (-bench name | -suite | file.ll | file.s)")
		flag.Usage()
		os.Exit(2)
	}

	sim.SetParallelism(*parallel)
	spec := serve.JobSpec{Threadlets: *threadlets, NoPack: *nopack, AB: true, Sampled: *sampled}
	cfg, err := spec.MachineConfig()
	if err == nil {
		err = spec.ValidateSim()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lfreport:", err)
		os.Exit(2)
	}

	progs, err := loadPrograms(*bench, *suite, flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "lfreport:", err)
		os.Exit(1)
	}

	profiles := make([]*report.Profile, 0, len(progs))
	for _, prog := range progs {
		p, err := profile(&spec, cfg, prog)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lfreport: %s: %v\n", prog.Name, err)
			os.Exit(1)
		}
		profiles = append(profiles, p)
	}

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lfreport:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := write(w, *format, profiles); err != nil {
		fmt.Fprintln(os.Stderr, "lfreport:", err)
		os.Exit(1)
	}
}

// profile runs the A/B job spec for one program exactly as lfservd runs it,
// with the lint report joined into its region rows. A full detailed run's
// ledger totals must reconcile with its global counters; a sampled run's
// ledgers are interval-weighted estimates, to which exact reconciliation
// does not apply.
func profile(spec *serve.JobSpec, cfg cpu.Config, prog *asm.Program) (*report.Profile, error) {
	out, err := serve.Execute(context.Background(), sim.DefaultHarness(), spec, serve.Exec{
		Prog: prog, Cfg: cfg, Lint: lint.Run(prog, lint.Options{}),
	})
	if err != nil {
		return nil, err
	}
	if !spec.Sampled {
		if err := out.Stats[1].ReconcileRegions(); err != nil {
			return nil, fmt.Errorf("region ledgers do not reconcile with the global counters (simulator bug): %w", err)
		}
	}
	return out.Result.Profile(), nil
}

// write renders the profiles in the requested format: text concatenates
// per-program reports, json emits one profile object (single input) or a
// {"suite": [...]} document, html is one standalone page.
func write(w io.Writer, format string, profiles []*report.Profile) error {
	switch format {
	case "json":
		if len(profiles) == 1 {
			return profiles[0].WriteJSON(w)
		}
		return report.WriteSuiteJSON(w, profiles)
	case "html":
		return report.WriteHTML(w, profiles)
	default:
		for i, p := range profiles {
			if i > 0 {
				if _, err := fmt.Fprintln(w); err != nil {
					return err
				}
			}
			if err := p.WriteText(w); err != nil {
				return err
			}
		}
		return nil
	}
}

// loadPrograms resolves the input selection into assembled images.
func loadPrograms(bench string, suite bool, path string) ([]*asm.Program, error) {
	if suite {
		var progs []*asm.Program
		for _, b := range workloads.CPU2017() {
			prog, err := b.Program()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", b.Name, err)
			}
			progs = append(progs, prog)
		}
		return progs, nil
	}
	prog, diags, err := workloads.Load(bench, path)
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, "lfreport: note:", d)
	}
	if err != nil {
		return nil, err
	}
	return []*asm.Program{prog}, nil
}
