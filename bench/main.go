// Command bench is the repository's benchmark: four workloads that drive the
// system only through the public functions of its packages, report
// end-to-end metrics from an untraced pass and per-layer metrics from a
// staged, traced pass, verify every answer they can, and exit non-zero when
// a check fails.  BENCHMARK.json at the repository root describes it;
// README.md in this directory explains the workloads, the metrics and how
// to compare two commits.
//
//	go run ./bench                                   # all workloads, both passes
//	go run ./bench -workload worlds-sweep -trace 0   # one workload, untraced pass only
//	go run ./bench -workload analytic-warm -runs 5   # spread of the end-to-end metrics
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run (default: all four)")
	seed := fs.Int64("seed", 1, "seed of the generated data and op sequences")
	seconds := fs.Float64("seconds", runSeconds, "length of the measured region, in seconds")
	trace := fs.Int("trace", -1, "0: untraced pass only, the result line holds the end-to-end metrics; 1: both passes, the result line holds the per-layer metrics; -1: both passes, both sets")
	runs := fs.Int("runs", 1, "repeat the untraced pass this many times and report median and quartiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// The passes run on one P, but the tier probe needs a second CPU, and a
	// one-CPU host has nowhere but the benchmark's P for the kernel's own
	// work; numbers from one have misled before.
	if runtime.NumCPU() == 1 {
		fmt.Fprintln(stderr, "bench: refusing to record on a host with one CPU")
		return 2
	}
	names := workloads
	if *workload != "" {
		names = []string{*workload}
	}
	out := filepath.Join("bench", "out")
	env, _ := json.Marshal(environment(*seed, *seconds))
	fmt.Fprintf(stdout, "env %s\n", env)

	failed := false
	for _, name := range names {
		cfg := runConfig{workload: name, seed: *seed, seconds: *seconds, scale: 1, out: out}
		if *runs > 1 {
			if err := spread(stdout, cfg, *runs); err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
				return 1
			}
			continue
		}
		// The untraced pass always runs: the traced pass takes from it the
		// end-to-end numbers that are reported per layer.
		res := result{Metrics: map[string]metricValue{}}
		add := func(r *report, defs []metricDef, emit bool) {
			printReport(stdout, r, defs)
			res.Attempted += r.attempted
			res.Failed += r.failed
			for _, d := range defs {
				if emit {
					res.Metrics[d.name] = metricValue{r.metrics[d.name], d.unit}
				}
			}
		}
		base, err := runUntraced(cfg)
		if err == nil {
			add(base, endToEnd, *trace != 1)
			if *trace != 0 {
				var traced *report
				if traced, err = runTraced(cfg, base); err == nil {
					add(traced, perLayer, true)
				}
			}
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		res.Correct = res.Failed == 0
		failed = failed || !res.Correct
		line, _ := json.Marshal(res)
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if failed {
		return 1
	}
	return 0
}

// result is the last line of a workload's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printReport lists every metric by name with its unit.
func printReport(w io.Writer, r *report, defs []metricDef) {
	for _, d := range defs {
		fmt.Fprintf(w, "%-16s %-30s %16.4f %s\n", r.workload, d.name, r.metrics[d.name], d.unit)
	}
	extra := make([]string, 0, len(r.extra))
	for k := range r.extra {
		extra = append(extra, k)
	}
	sort.Strings(extra)
	for _, k := range extra {
		fmt.Fprintf(w, "%-16s %-30s %16.4f (not gated)\n", r.workload, k, r.extra[k])
	}
	if r.trace != "" {
		fmt.Fprintf(w, "%-16s trace written to %s\n", r.workload, r.trace)
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "%-16s FAILED: %s\n", r.workload, f)
	}
	fmt.Fprintf(w, "%-16s checks: %d attempted, %d failed\n", r.workload, r.attempted, r.failed)
}

// spread repeats the untraced pass and prints, per end-to-end metric, the
// median, the quartiles and their distance as a share of the median: the
// number a regression bound has to stay above.
func spread(w io.Writer, cfg runConfig, runs int) error {
	values := map[string][]float64{}
	for i := 0; i < runs; i++ {
		r, err := runUntraced(cfg)
		if err != nil {
			return err
		}
		if r.failed > 0 {
			return fmt.Errorf("run %d failed %d checks: %v", i, r.failed, r.failures)
		}
		for _, d := range endToEnd {
			values[d.name] = append(values[d.name], r.metrics[d.name])
		}
		for k, v := range r.extra {
			values[k] = append(values[k], v)
		}
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-16s %-28s %14s %14s %14s %8s  (%d runs)\n", "workload", "metric", "q1", "median", "q3", "iqr/med", runs)
	for _, k := range names {
		q1, med, q3 := quantile(values[k], 0.25), median(values[k]), quantile(values[k], 0.75)
		fmt.Fprintf(w, "%-16s %-28s %14.4f %14.4f %14.4f %8.4f\n", cfg.workload, k, q1, med, q3, ratio(q3-q1, med))
	}
	return nil
}

// environment is printed with every result, so a number is never read
// without the host and the sizes it came from.
func environment(seed int64, seconds float64) map[string]any {
	return map[string]any{
		"go": runtime.Version(), "num_cpu": runtime.NumCPU(), "gomaxprocs": 1, // both passes run on one P
		"kernel": kernelRelease(), "commit": commit(),
		"seed": seed, "seconds": seconds,
		"frozen": map[string]any{
			"setup_repeats": setupRepeats, "reference_share": refShare, "open_repeats": openRepeats,
			"server_clients": serverClients, "heap_instalments": heapInstalments, "stretch_groups": stretchGroups,
			"probe_slices": probeSlices, "probe_nominal_us": probeNominalUS,
			"catalog_items": 60000, "orders": 20000, "sweep_domain": sweepDomain, "point_keys": pointKeys,
		},
	}
}

// commit is the revision the program was built from, with "+dirty" when the
// tree had changes.  go build stamps it into the binary; go run does not, so
// then git is asked.  Outside a repository it is "unknown".
func commit() string {
	rev, dirty := "", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if rev == "" {
		// The program runs from the root of a checkout: git need not, and
		// must not, look for a repository above it.
		git := func(args ...string) ([]byte, error) {
			cmd := exec.Command("git", args...)
			if wd, err := os.Getwd(); err == nil {
				cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
			}
			return cmd.Output()
		}
		out, err := git("rev-parse", "HEAD")
		if err != nil {
			return "unknown"
		}
		rev = strings.TrimSpace(string(out))
		status, err := git("status", "--porcelain")
		dirty = err != nil || len(status) > 0
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}
