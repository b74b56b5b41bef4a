// Command alpsbench runs the experiment suite that reproduces the paper's
// evaluation (see DESIGN.md §4 and EXPERIMENTS.md) and prints one table per
// experiment.
//
// Usage:
//
//	alpsbench                 # run everything at full scale
//	alpsbench -scale quick    # fast pass
//	alpsbench -run E3,E9      # selected experiments
//	alpsbench -list           # list experiment IDs and titles
//	alpsbench -format md -o results.md   # markdown, also appended to a file
//
// Micro benchmarks live in `go test -bench` (root bench_test.go and the
// owning packages); the gated end-to-end benchmark is bench/ (bench/README.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "alpsbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("alpsbench", flag.ContinueOnError)
	var (
		runIDs    = fs.String("run", "all", "comma-separated experiment IDs (e.g. E1,E3) or 'all'")
		scaleName = fs.String("scale", "full", "workload scale: quick or full")
		list      = fs.Bool("list", false, "list experiments and exit")
		format    = fs.String("format", "text", "output format: text or md")
		outPath   = fs.String("o", "", "also append the output to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return nil
	}

	var scale experiments.Scale
	switch *scaleName {
	case "quick":
		scale = experiments.Quick
	case "full":
		scale = experiments.Full
	default:
		return fmt.Errorf("unknown scale %q (want quick or full)", *scaleName)
	}

	var selected []experiments.Experiment
	if *runIDs == "all" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*runIDs, ",") {
			id = strings.TrimSpace(id)
			e, ok := experiments.Find(id)
			if !ok {
				return fmt.Errorf("unknown experiment %q (use -list)", id)
			}
			selected = append(selected, e)
		}
	}

	if *format != "text" && *format != "md" {
		return fmt.Errorf("unknown format %q (want text or md)", *format)
	}
	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.OpenFile(*outPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		out = io.MultiWriter(os.Stdout, f)
	}

	for i, e := range selected {
		if i > 0 {
			fmt.Fprintln(out)
		}
		if *format == "md" {
			fmt.Fprintf(out, "### %s: %s\n\n", e.ID, e.Title)
		} else {
			fmt.Fprintf(out, "== %s: %s\n", e.ID, e.Title)
		}
		start := time.Now()
		table, err := e.Run(scale)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if *format == "md" {
			fmt.Fprint(out, table.Markdown())
		} else {
			fmt.Fprint(out, table.String())
		}
		fmt.Fprintf(out, "(%s in %v)\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
