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

// CodedSetting selects whether planned evaluation may run on the
// dictionary-coded execution tier: monomorphic []uint64 code-vector
// kernels over the database's value dictionary.  The coded path computes
// bit-identical results to the row path; eligibility is resolved per
// query subtree (every base relation read must encode cleanly), so "on"
// and the auto default are always safe: a refused subtree runs on the
// row path.
type CodedSetting uint8

const (
	// CodedAuto is the zero value and defaults to coded being on: the
	// coded path is used whenever the read relations' dictionaries are
	// available, and a refused subtree runs on the row path.
	CodedAuto CodedSetting = iota
	// CodedOn selects the coded path where eligible.
	CodedOn
	// CodedOff disables the coded tier, keeping the row path as the
	// differential oracle.
	CodedOff
)

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

	// Coded selects the dictionary-coded execution tier of planned
	// evaluation; CodedAuto (the zero value) means on where eligible.
	// Only the planned naive/certain modes read it — the
	// world-enumeration modes and the oracle path are row-based.
	Coded CodedSetting

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

	// Workers sizes the per-world enumeration pool of the world-sweep
	// modes: 0 (the zero value) means GOMAXPROCS, 1 sweeps serially (the
	// differential oracle every pooled result is pinned against), and > 1
	// uses a pool of exactly that many goroutines.  Plans always evaluate
	// serially; Engine.Serve parallelizes across the queries of a batch.
	Workers int

	// MaxWorlds aborts world enumeration when the sweep that would run
	// needs more valuations (0 means no bound): |dom|^(nulls of the
	// relations the query reads) under the planner, |dom|^|Null(D)| with
	// PlannerOff.
	MaxWorlds int

	// MemBudget, when positive, bounds (approximately, in bytes) the
	// memory a hash join may pin for its build side: a build side over
	// budget is Grace-partitioned to disk and joined partition by
	// partition, so certain-answer queries run against databases larger
	// than RAM.  Answers are bit-identical to the unbounded path.  A
	// budgeted evaluation runs on the row engine (Coded is overridden):
	// the budget is a hard cap, and the coded tier assumes resident build
	// sides.
	MemBudget int64
}

// resolvedWorkers resolves the Workers knob for the per-world pool: 0 (the
// zero value) means GOMAXPROCS, anything below 1 clamps to serial.
func (o Options) resolvedWorkers() int {
	if o.Workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if o.Workers < 1 {
		return 1
	}
	return o.Workers
}

// resolvedCoded resolves the Coded knob: anything but an explicit off
// means the coded tier is offered (per-subtree eligibility still
// decides whether it actually runs).
func (o Options) resolvedCoded() bool {
	return o.Coded != CodedOff
}

// evalConfig bundles the resolved execution knobs for package plan.
func (o Options) evalConfig() plan.EvalConfig {
	return plan.EvalConfig{
		Coded:     o.resolvedCoded(),
		MemBudget: o.MemBudget,
	}
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
