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

// ColumnarSetting selects the plan execution layout: the vectorized
// columnar path (column chunks, selection vectors, columnar kernels) or
// the per-tuple row path, which computes bit-identical results and is
// kept as the differential oracle of the columnar one.
type ColumnarSetting uint8

const (
	// ColumnarAuto is the zero value and defaults to columnar being on.
	ColumnarAuto ColumnarSetting = iota
	// ColumnarOn selects the vectorized columnar path.
	ColumnarOn
	// ColumnarOff selects the per-tuple row path (the oracle).
	ColumnarOff
)

// ParseColumnar converts "on" or "off" (or "", meaning the default) into
// a ColumnarSetting.
func ParseColumnar(s string) (ColumnarSetting, error) {
	switch s {
	case "", "auto":
		return ColumnarAuto, nil
	case "on":
		return ColumnarOn, nil
	case "off":
		return ColumnarOff, nil
	default:
		return 0, fmt.Errorf("engine: columnar must be on or off (got %q)", s)
	}
}

// CodedSetting selects whether planned evaluation may run on the
// dictionary-coded execution tier: monomorphic []uint64 code-vector
// kernels over the database's value dictionary.  The coded path computes
// bit-identical results to the columnar and row paths; eligibility is
// resolved per query subtree (every base relation read must encode
// cleanly), so "on" and the auto default are always safe and silently
// fall back where coding does not apply.
type CodedSetting uint8

const (
	// CodedAuto is the zero value and defaults to coded being on: the
	// coded path is used whenever the read relations' dictionaries are
	// available, and falls back to the columnar path otherwise.
	CodedAuto CodedSetting = iota
	// CodedOn selects the coded path where eligible.
	CodedOn
	// CodedOff disables the coded tier, keeping the columnar path as the
	// differential oracle.
	CodedOff
)

// ParseCoded converts "on" or "off" (or "", meaning the default) into a
// CodedSetting.
func ParseCoded(s string) (CodedSetting, error) {
	switch s {
	case "", "auto":
		return CodedAuto, nil
	case "on":
		return CodedOn, nil
	case "off":
		return CodedOff, nil
	default:
		return 0, fmt.Errorf("engine: coded must be on or off (got %q)", s)
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

	// Columnar selects the vectorized columnar execution path or the
	// per-tuple row path of planned evaluation; ColumnarAuto (the zero
	// value) means on.  Only the planned naive/certain modes read it —
	// the world-enumeration modes and the oracle path are row-based.
	Columnar ColumnarSetting

	// Coded selects the dictionary-coded execution tier of planned
	// evaluation; CodedAuto (the zero value) means on where eligible.
	// Like Columnar, only the planned naive/certain modes read it.
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

	// Workers is the intra-query worker budget: morsel-parallel plan
	// evaluation (partitioned hash joins), partition-parallel stable parts
	// of world plans, and the per-world enumeration pool all share it.  The
	// zero value resolves to GOMAXPROCS; 1 forces the serial path (the
	// differential oracle every parallel result is pinned against); > 1
	// uses a pool of exactly that many goroutines.  (Engine.Serve
	// additionally parallelizes across the queries of a batch.)
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
	// budgeted evaluation runs on the serial row engine (Workers,
	// Columnar and Coded are overridden): the budget is a hard cap, and
	// the parallel/vectorized tiers assume resident build sides.
	MemBudget int64
}

// resolvedWorkers resolves the Workers knob: 0 (the zero value) means
// GOMAXPROCS, anything below 1 clamps to serial.
func (o Options) resolvedWorkers() int {
	if o.Workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if o.Workers < 1 {
		return 1
	}
	return o.Workers
}

// resolvedColumnar resolves the Columnar knob: anything but an explicit
// off means the vectorized path.
func (o Options) resolvedColumnar() bool {
	return o.Columnar != ColumnarOff
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
		Workers:   o.resolvedWorkers(),
		Columnar:  o.resolvedColumnar(),
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
