package engine

import (
	"fmt"
	"runtime"

	"incdata/internal/certain"
	"incdata/internal/plan"
	"incdata/internal/value"
)

// Mode selects how a query is evaluated.  The zero value is ModeCertain,
// the sound cheap route the paper's Section 6 results justify.
type Mode uint8

// Evaluation modes, one per certain-answer notion the library implements.
const (
	// ModeCertain is naïve evaluation followed by null stripping
	// (equation (4)): correct for positive queries under OWA/CWA and for
	// RAcwa queries under CWA.
	ModeCertain Mode = iota
	// ModeNaive is naïve evaluation with nulls kept in the answer (the
	// certainO representation for monotone generic queries).
	ModeNaive
	// ModeCertainCWA is intersection-based certain answers by CWA world
	// enumeration — the exact (exponential) ground truth.
	ModeCertainCWA
	// ModeCertainOWA is intersection-based certain answers over the
	// enumerated OWA world set (exact for monotone queries when
	// MaxExtraTuples is 0).
	ModeCertainOWA
	// ModeCertainObject is certainO under CWA: the greatest lower bound of
	// the answer set in the information ordering (Section 5.3).
	ModeCertainObject
)

// modeNames maps the textual mode names (as used by the incq CLI) to
// modes.
var modeNames = map[string]Mode{
	"certain":        ModeCertain,
	"naive":          ModeNaive,
	"certain-cwa":    ModeCertainCWA,
	"certain-owa":    ModeCertainOWA,
	"certain-object": ModeCertainObject,
}

// String returns the textual name of the mode.
func (m Mode) String() string {
	for name, mode := range modeNames {
		if mode == m {
			return name
		}
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// sweeps reports whether the mode enumerates worlds, whose domain is drawn
// from the whole database rather than from the relations the query reads.
func (m Mode) sweeps() bool { return m != ModeCertain && m != ModeNaive }

// ParseMode converts a textual mode name into a Mode.
func ParseMode(s string) (Mode, error) {
	if m, ok := modeNames[s]; ok {
		return m, nil
	}
	return 0, fmt.Errorf("engine: unknown mode %q (want naive, certain, certain-cwa, certain-owa or certain-object)", s)
}

// PlannerSetting selects the evaluation path: the query planner (planned
// one-shot evaluation and world-invariant subplan hoisting) or the
// naïve-evaluation oracle, which computes identical results, only slower.
type PlannerSetting uint8

const (
	// PlannerAuto is the zero value and defaults to the planner being on.
	PlannerAuto PlannerSetting = iota
	// PlannerOn selects the planned fast paths.
	PlannerOn
	// PlannerOff selects the naïve-evaluation oracle.
	PlannerOff
)

// ParsePlanner converts "on" or "off" (or "", meaning the default) into a
// PlannerSetting.
func ParsePlanner(s string) (PlannerSetting, error) {
	switch s {
	case "", "auto":
		return PlannerAuto, nil
	case "on":
		return PlannerOn, nil
	case "off":
		return PlannerOff, nil
	default:
		return 0, fmt.Errorf("engine: planner must be on or off (got %q)", s)
	}
}

// Options is the unified evaluation-options struct of the engine facade,
// replacing the per-package option structs the entry points used to take.
// The zero value asks for certain answers via null stripping with the
// planner on — the cheapest sound configuration.
type Options struct {
	// Mode selects the certain-answer notion to compute.
	Mode Mode

	// Planner selects the planned fast paths or the oracle; PlannerAuto
	// (the zero value) means on.
	Planner PlannerSetting

	// ExtraFresh is the number of fresh constants (outside adom and the
	// query constants) added to the world-enumeration domain; 0 defaults
	// to 1 when the database has nulls.  Only the world-enumeration modes
	// read it.
	ExtraFresh int

	// MaxExtraTuples bounds the additional tuples considered in OWA world
	// enumeration (ModeCertainOWA; 0 enumerates only minimal worlds).
	MaxExtraTuples int

	// ExtraConstants are added to the enumeration domain on top of adom
	// and the constants mentioned by the query.
	ExtraConstants []value.Value

	// Workers sizes the world pool of the world-sweep modes: a sweep's
	// valuations are split into one contiguous range per worker, and one
	// worker runs on the caller's goroutine.  0 (the zero value) means
	// GOMAXPROCS.  Answers are the same at any count.  Plans always
	// evaluate serially; Engine.Serve parallelizes across the queries of
	// a batch.
	Workers int

	// MaxWorlds aborts world enumeration when the sweep that would run
	// exceeds it (0 means no bound): its valuations, |dom|^(nulls of the
	// relations the query reads) under the planner and |dom|^|Null(D)|
	// with PlannerOff, or materialized worlds under MaxExtraTuples.
	MaxWorlds int

	// rowOnly keeps planned evaluation off the dictionary-coded tier, which
	// otherwise runs wherever it is eligible: tests hold the coded tier
	// against the row path with it.
	rowOnly bool
}

// resolvedWorkers resolves the Workers knob for the world pool: 0 (the
// zero value) means GOMAXPROCS, anything below 1 clamps to one worker.
func (o Options) resolvedWorkers() int {
	if o.Workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if o.Workers < 1 {
		return 1
	}
	return o.Workers
}

// evalConfig is the plan execution configuration of the planned modes.
func (o Options) evalConfig() plan.EvalConfig {
	return plan.EvalConfig{Coded: !o.rowOnly}
}

// certainOptions converts the world-enumeration knobs for package certain.
func (o Options) certainOptions() certain.Options {
	return certain.Options{
		ExtraFresh:     o.ExtraFresh,
		MaxExtraTuples: o.MaxExtraTuples,
		ExtraConstants: o.ExtraConstants,
		Workers:        o.resolvedWorkers(),
		MaxWorlds:      o.MaxWorlds,
	}
}
