// Package engine evaluates XPath location paths over pre/post encoded
// documents, with the staircase join as the axis-step workhorse.
//
// The engine is the evaluation façade over the plan compiler
// (internal/plan): EvalString builds the logical plan, applies the
// rewrite rules, compiles the physical plan against the document and
// executes it; Compile returns a reusable parse+rewrite handle and
// Prepare a bound physical plan for callers that run one query many
// times (the query server, benchmark loops). A strategy knob selects
// the staircase join variant (Experiment 2's skipping comparison); the
// paper's tree-unaware comparators live in internal/baseline and are
// composed by the bench harness, not planned here. The differential
// property suites (plan_equiv_test.go, value_equiv_test.go) check
// every knob combination against a brute-force reference evaluator
// built from the axis region predicates (engine_test.go), which shares
// no kernel with the planner.
//
// Name-test pushdown (§4.4): for a step like ancestor::bidder the
// engine may rewrite
//
//	nametest(staircasejoin_anc(doc, cs), "bidder")
//	  -> staircasejoin_anc(nametest(doc, "bidder"), cs)
//
// running the join over the (much smaller) tag node list. A simple
// selectivity heuristic decides automatically — the cost-model stub the
// paper lists as future research — and can be overridden for ablation.
//
// Parallel execution (§3.2/§6): Options.Parallelism > 1 evaluates the
// four partitioning axes with the partition-parallel staircase join
// (core.ParallelJoin). The cost model clamps the requested worker count
// so that each worker has enough estimated scan work to amortise the
// fan-out, and factors the per-worker scan bound into the name-test
// pushdown decision. Results are identical to serial evaluation —
// pruning leaves staircase partitions that scan disjoint document
// regions, so per-worker results concatenate in document order.
//
// Pushdown fragments come from the document's shared tag/kind index
// (doc.TagIndex, internal/index): built at most once per document —
// or loaded straight from an SCJ2 file — and shared lock-free by every
// engine over the document, so no engine ever rescans the name column.
// Options.NoIndex restores the pre-index behaviour (an O(n) scan per
// pushed step) for ablation; results are identical either way.
package engine

import (
	"time"

	"staircase/internal/axis"
	"staircase/internal/core"
	"staircase/internal/doc"
	"staircase/internal/plan"
)

// Strategy selects the staircase join variant for partitioning axes.
// It is an alias of plan.Strategy: the planner owns the strategy space,
// the engine re-exports it for its callers.
type Strategy = plan.Strategy

const (
	// Staircase is the paper's full configuration: staircase join with
	// estimation-based skipping.
	Staircase = plan.Staircase
	// StaircaseSkip uses plain skipping (Algorithm 3).
	StaircaseSkip = plan.StaircaseSkip
	// StaircaseNoSkip uses the basic algorithm (Algorithm 2).
	StaircaseNoSkip = plan.StaircaseNoSkip
)

// Pushdown controls name-test pushdown for staircase strategies (an
// alias of plan.Pushdown).
type Pushdown = plan.Pushdown

const (
	// PushAuto decides by tag selectivity (the cost-model heuristic).
	PushAuto = plan.PushAuto
	// PushAlways forces pushdown whenever a name test is present.
	PushAlways = plan.PushAlways
	// PushNever evaluates the join first and filters afterwards.
	PushNever = plan.PushNever
)

// AutoParallelism requests one staircase-join worker per available CPU
// (runtime.GOMAXPROCS) when assigned to Options.Parallelism.
const AutoParallelism = -1

// Options configures evaluation. The zero value is the paper default:
// full staircase join with automatic pushdown, serial execution.
type Options struct {
	Strategy Strategy
	Pushdown Pushdown
	// Parallelism is the worker count for partition-parallel staircase
	// joins on the descendant/ancestor/following/preceding axes: 0 or 1
	// evaluates serially, > 1 uses at most that many workers, and any
	// negative value (canonically AutoParallelism) uses GOMAXPROCS. The
	// cost model may use fewer workers on steps too small to amortise
	// the goroutine fan-out; StepReport.Core.Workers records the count
	// actually used.
	Parallelism int
	// MorselWorkers is the worker count for morsel-driven parallel
	// execution inside streaming (cursor-based) evaluation: > 1 lets a
	// single cursor pipeline cut each staircase join into many small
	// tasks drained by that many workers through an order-restoring
	// merge, a negative value (canonically AutoParallelism) uses
	// GOMAXPROCS. Results are byte-identical to serial cursors; batch
	// evaluation is unaffected (it uses Parallelism).
	MorselWorkers int
	// NoIndex disables the document's shared tag/kind index for this
	// evaluation: pushdown fragments are rebuilt with an O(n) column
	// scan per step (the pre-index behaviour). Results are identical;
	// the knob exists for ablation and the rescan-baseline benchmarks.
	NoIndex bool
	// NoValueIndex disables the document's value index for this
	// evaluation: comparison and contains() predicates fall back to
	// per-node evaluation instead of value-fragment semijoins. Results
	// are identical; the knob exists for ablation and the value-rescan
	// benchmarks.
	NoValueIndex bool
	// NoReorder disables the planner's statistics-driven greedy
	// ordering of commutable filter chains, the empty-fragment
	// short-circuit and mid-flight adaptive re-planning: predicates
	// evaluate strictly in source order, semijoins always sweep their
	// fragment. Results are identical; the knob exists for ablation and
	// the ordering benchmarks.
	NoReorder bool
}

// planOptions converts engine options to planner options.
func planOptions(o *Options) *plan.Options {
	return &plan.Options{
		Strategy:      o.Strategy,
		Pushdown:      o.Pushdown,
		Parallelism:   o.Parallelism,
		MorselWorkers: o.MorselWorkers,
		NoIndex:       o.NoIndex,
		NoValueIndex:  o.NoValueIndex,
		NoReorder:     o.NoReorder,
	}
}

// StepReport records per-step evaluation statistics.
type StepReport struct {
	// Step is the canonical rendering of the location step.
	Step string
	// Axis of the step.
	Axis axis.Axis
	// InputSize and OutputSize are the context and result sequence
	// lengths (after predicates).
	InputSize, OutputSize int
	// Pushed reports whether the name/kind test was pushed below the
	// join; Indexed reports whether the pushed fragment came from the
	// document's shared tag/kind index (false: name-column scan).
	Pushed, Indexed bool
	// Core holds staircase join work counters (partitioning axes
	// only).
	Core core.Stats
	// Duration is the wall-clock time of the step.
	Duration time.Duration
}

// Result is the outcome of a path evaluation.
type Result struct {
	// Nodes is the result sequence: pre ranks in document order,
	// duplicate-free (XPath node-sequence semantics).
	Nodes []int32
	// Steps reports per-step statistics in evaluation order.
	Steps []StepReport
	// Truncated reports that a limited evaluation (EvalFirst,
	// EvalLimit) stopped at its limit while further results may exist.
	Truncated bool
	// Replans counts the mid-flight adaptive re-planning switches the
	// execution adopted (streaming evaluation only).
	Replans int
}

// Engine evaluates XPath paths over one document. Engines hold no
// mutable state and are safe for concurrent use: pushdown fragments
// live in the document's shared immutable tag/kind index, not in the
// engine.
type Engine struct {
	d *doc.Document
}

// New returns an engine over the document.
func New(d *doc.Document) *Engine {
	return &Engine{d: d}
}

// Document returns the engine's document.
func (e *Engine) Document() *doc.Document { return e.d }

// TagList returns the pre-sorted list of element nodes carrying the
// given name id — the nametest(doc, n) fragment of §4.4, served by the
// document's shared index (built at most once per document).
func (e *Engine) TagList(nameID int32) []int32 {
	return e.d.TagIndex().Tag(nameID)
}

// EvalString parses and evaluates a query (a location path, or a union
// of paths combined with '|'). Absolute paths start at the document
// root; relative paths are evaluated with the root as the initial
// context node as well (the conventional CLI behaviour).
func (e *Engine) EvalString(query string, opts *Options) (*Result, error) {
	c, err := Compile(query)
	if err != nil {
		return nil, err
	}
	return e.EvalCompiled(c, opts)
}

// planResult converts a plan execution result to the engine's report
// form (the two are field-compatible by construction).
func planResult(r *plan.Result) *Result {
	res := &Result{Nodes: r.Nodes, Steps: make([]StepReport, len(r.Steps)), Truncated: r.Truncated, Replans: r.Replans()}
	for i, s := range r.Steps {
		res.Steps[i] = StepReport{
			Step:       s.Step,
			Axis:       s.Axis,
			InputSize:  s.InputSize,
			OutputSize: s.OutputSize,
			Pushed:     s.Pushed,
			Indexed:    s.Indexed,
			Core:       s.Core,
			Duration:   s.Duration,
		}
	}
	return res
}
