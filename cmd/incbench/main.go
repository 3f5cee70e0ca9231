// Command incbench runs the reproduction experiments E1–E12 (see the
// "Experiments" section of README.md) through the engine facade at its
// default options and prints one text table per experiment.  Performance
// is measured by the repository benchmark (go run ./bench, see
// bench/README.md), not here.
//
// Usage:
//
//	incbench                  # quick configuration (seconds)
//	incbench -full            # larger sweeps (minutes)
//	incbench -only E1,E8
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"incdata/internal/experiments"
)

func main() {
	full := flag.Bool("full", false, "run the larger sweeps")
	only := flag.String("only", "", "comma-separated experiment ids to run (e.g. E1,E8)")
	flag.Parse()

	cfg := experiments.QuickConfig()
	if *full {
		cfg = experiments.FullConfig()
	}
	filter := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			filter[strings.TrimSpace(strings.ToUpper(id))] = true
		}
	}

	start := time.Now()
	kept := experiments.Run(cfg, filter)
	if len(kept) == 0 {
		fmt.Fprintln(os.Stderr, "incbench: no experiment matched the -only filter")
		os.Exit(1)
	}
	for _, res := range kept {
		fmt.Println(res.String())
	}
	fmt.Printf("ran %d experiments in %s\n", len(kept), time.Since(start).Round(time.Millisecond))
}
