// Command lflint statically verifies LoopFrog hint legality and epoch shape.
// Inputs are LFISA assembly (.s), LoopLang sources (.ll, compiled first), or
// the entire built-in benchmark suite with -corpus.
//
// Usage:
//
//	lflint [-format text|json|sarif] [-strict] [-corpus] [file ...]
//
// Diagnostics carry stable codes (LF0xx errors, LF1xx warnings, LF2xx
// profitability notes, LF3xx security findings) and positions: source line
// for assembled files, nearest label plus pc otherwise. -format sarif emits
// one SARIF 2.1.0 log covering every linted program, the interchange format
// code-scanning UIs ingest; security rules carry a "security" tag there.
// Exit status: 0 when clean, 1 when any error (or, with -strict, any
// warning) is found, 2 on usage or load failures. Profitability notes and
// security findings never affect the exit status; gate the latter with the
// dynamic detector (lfsim -spectre) instead, which confirms actual leaks.
package main

import (
	"flag"
	"fmt"
	"os"

	"loopfrog/internal/lint"
	"loopfrog/internal/workloads"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: lflint [-format text|json|sarif] [-strict] [-corpus] [file.s | file.ll ...]")
	os.Exit(2)
}

func main() {
	format := flag.String("format", "text", "output format: text, json, or sarif")
	strict := flag.Bool("strict", false, "treat warnings as failures")
	corpus := flag.Bool("corpus", false, "lint every built-in benchmark program")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: lflint [-format text|json|sarif] [-strict] [-corpus] [file.s | file.ll ...]")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *format != "text" && *format != "json" && *format != "sarif" {
		fmt.Fprintf(os.Stderr, "lflint: unknown format %q (want text, json, or sarif)\n", *format)
		usage()
	}
	if !*corpus && flag.NArg() == 0 {
		usage()
	}

	var reports []*lint.Report
	if *corpus {
		seen := make(map[string]bool)
		all := append(workloads.CPU2017(), workloads.CPU2006()...)
		all = append(all, workloads.Security()...)
		for _, b := range all {
			key := b.Suite + "/" + b.Name
			if seen[key] {
				continue
			}
			seen[key] = true
			p, err := b.Program()
			if err != nil {
				fmt.Fprintf(os.Stderr, "lflint: %s: %v\n", key, err)
				os.Exit(2)
			}
			rep := lint.Run(p, lint.Options{})
			rep.Program = key
			reports = append(reports, rep)
		}
	}
	for _, path := range flag.Args() {
		p, _, err := workloads.LoadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lflint: %v\n", err)
			os.Exit(2)
		}
		reports = append(reports, lint.Run(p, lint.Options{}))
	}

	if *format == "sarif" {
		// One log, one run, every program an artifact — the shape GitHub
		// code scanning uploads expect.
		if err := lint.WriteSARIF(os.Stdout, reports); err != nil {
			fmt.Fprintln(os.Stderr, "lflint:", err)
			os.Exit(2)
		}
		for _, rep := range reports {
			if rep.Failed(*strict) {
				os.Exit(1)
			}
		}
		return
	}

	failed := false
	clean := 0
	for _, rep := range reports {
		if rep.Failed(*strict) {
			failed = true
		}
		switch *format {
		case "json":
			if err := rep.WriteJSON(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "lflint:", err)
				os.Exit(2)
			}
		default:
			if len(rep.Diags) == 0 {
				clean++
				continue
			}
			if err := rep.WriteText(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "lflint:", err)
				os.Exit(2)
			}
		}
	}
	if *format == "text" && clean > 0 {
		fmt.Printf("%d program(s) clean\n", clean)
	}
	if failed {
		os.Exit(1)
	}
}
