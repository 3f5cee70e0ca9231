package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkFile is the shape of BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkFileMatchesProgram pins BENCHMARK.json and the program to
// each other: the same workloads, the same metrics with the same units and
// directions, inside the limits the benchmark contract sets.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	b := loadBenchmarkFile(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2–8", n)
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1–16", n)
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1–128", n)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	for i, w := range b.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i])
		}
		if !name.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q is malformed or repeated", w.Name)
		}
		seen[w.Name] = true
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	compare := func(kind string, file []benchmarkMetric, prog []metricDef, bounded bool) {
		if len(file) != len(prog) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(file), len(prog))
			return
		}
		for i, f := range file {
			p := prog[i]
			better := "lower"
			if p.higher {
				better = "higher"
			}
			if f.Name != p.name || f.Unit != p.unit || f.Better != better {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s, %s], the program %s [%s, %s]",
					kind, i, f.Name, f.Unit, f.Better, p.name, p.unit, better)
			}
			if !name.MatchString(f.Name) || !unit.MatchString(f.Unit) || seen[f.Name] {
				t.Errorf("%s metric %q [%s] is malformed or its name repeated", kind, f.Name, f.Unit)
			}
			seen[f.Name] = true
			if bounded && (f.Bound <= 0 || f.Bound > 0.25) {
				t.Errorf("%s metric %q: bound %v is outside (0, 0.25]", kind, f.Name, f.Bound)
			}
		}
	}
	compare("end-to-end", b.EndToEnd, endToEnd, true)
	compare("per-layer", b.PerLayer, perLayer, false)
	if b.EndToEnd[0].Name != "setup_s" || b.EndToEnd[0].Unit != "s" {
		t.Errorf("the first end-to-end metric must be setup_s in s")
	}
	if b.RunSeconds != runSeconds || b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds is %d, want the program's default -seconds, %d, inside 1–60", b.RunSeconds, runSeconds)
	}
}

// TestSmoke runs every workload at about 1/50 of its size, both passes, and
// requires every check to pass and every metric to be emitted.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w, func(t *testing.T) {
			cfg := runConfig{workload: w, seed: 7, seconds: 0.3, scale: 0.02, out: t.TempDir()}
			base, err := runUntraced(cfg)
			if err != nil {
				t.Fatalf("untraced: %v", err)
			}
			traced, err := runTraced(cfg, base)
			if err != nil {
				t.Fatalf("traced: %v", err)
			}
			passes := []struct {
				name string
				r    *report
				defs []metricDef
			}{
				{"untraced", base, endToEnd},
				{"traced", traced, perLayer},
			}
			for _, ps := range passes {
				if ps.r.failed != 0 || ps.r.attempted == 0 {
					t.Errorf("%s: %d of %d checks failed: %v", ps.name, ps.r.failed, ps.r.attempted, ps.r.failures)
				}
				if len(ps.r.metrics) != len(ps.defs) {
					t.Errorf("%s: emitted %d metrics, want %d", ps.name, len(ps.r.metrics), len(ps.defs))
				}
				for _, d := range ps.defs {
					if _, ok := ps.r.metrics[d.name]; !ok {
						t.Errorf("%s: metric %s was not emitted", ps.name, d.name)
					}
				}
			}
		})
	}
}
