// The greedy ordering pass: statistics-exact reordering of commutable
// work, run after the rewrite rules as the last stage of Compile.
//
// The tag and value indexes expose *exact* fragment cardinalities, so
// there is no estimation problem to solve: the pass ranks the
// commutable filters stacked on one location step (non-positional
// predicates are conjunctive and order-independent) by exact fragment
// count and hoists cheap selective semijoins ahead of expensive
// per-node predicate programs — a greedy order over exact statistics,
// the "when greedy beats optimal" price/performance point. Semijoin
// probe *direction* (sweep the fragment vs. binary-probe each input
// node) is decided at execution time from the actual cardinalities
// (ops.go/value.go); and when any intermediate is provably empty —
// a name test over an absent tag, an empty semijoin fragment — the
// whole branch is replaced by a zero-cardinality EmptyOp and the
// downstream operators never execute.
//
// Ordering decisions are result-invariant and therefore excluded from
// Plan.Canon: the canonical string renders filter chains in source
// order regardless of the evaluation order chosen here, so equivalent
// query spellings keep sharing result-cache and shared-scan entries.
// Options.NoReorder disables the pass (ablation; the differential
// suite pins greedy ≡ left-to-right ≡ the reference evaluator).
//
// Mid-flight adaptive re-planning (adapt.go) builds on the chain
// metadata attached here: reordered filter chains execute through one
// chain cursor whose stage order can be revised at batch boundaries
// when observed selectivities diverge from the compile-time estimates.

package plan

import (
	"fmt"
	"sort"

	"staircase/internal/axis"
)

// replanRatio is the divergence threshold for adaptive re-planning:
// a stage's observed selectivity must differ from its compile-time
// estimate by at least this factor (either direction) before the chain
// cursor revises its stage order.
const replanRatio = 4.0

// chainMeta is the adaptive-execution metadata of a commutable filter
// chain, attached to the chain's topmost operator. base is the
// operator below the chain (its cursor feeds the stages); members are
// the filter operators in the greedy evaluation order. Immutable after
// compile: the chain cursor copies the member order per execution.
type chainMeta struct {
	base    op
	members []op
}

// emptyOp replaces a branch whose result is provably empty at compile
// time (zero-cardinality fragment on the spine): it emits nothing and
// the wrapped operators never execute. Canon renders through it
// transparently — emptiness is a property of the document binding, not
// of the result the plan identifies.
type emptyOp struct {
	opBase
	inner  op
	reason string
}

func (o *emptyOp) kids() []op { return []op{o.inner} }

func (o *emptyOp) run(ec *execCtx) ([]int32, error) {
	ec.ops[o.id].record(0, 0)
	return nil, nil
}

func (o *emptyOp) open(ec *execCtx) (cursor, error) {
	ec.ops[o.id].record(0, 0)
	return &sliceCursor{}, nil
}

// orderPlan is the greedy ordering pass entry point, run by Compile
// unless Options.NoReorder. Per union branch:
// reorder the commutable filter chains, then short-circuit the branch
// entirely when its spine holds a provably empty intermediate.
func (c *compiler) orderPlan() {
	p := c.p
	wrap := func(b op) op {
		b = c.reorderFrom(b)
		if reason := c.branchEmptyReason(b); reason != "" {
			e := &emptyOp{inner: b, reason: reason}
			c.add(e)
			p.orderNotes = append(p.orderNotes, "empty: "+reason+"; downstream operators skipped")
			return e
		}
		return b
	}
	if m, ok := p.root.(*mergeOp); ok {
		for i, b := range m.ins {
			m.ins[i] = wrap(b)
		}
	} else {
		p.root = wrap(p.root)
	}
}

// chainable reports whether an operator is a commutable filter — a
// member of a reorderable chain. Positional filters are excluded (they
// are order-sensitive by definition).
func chainable(o op) bool {
	switch o.(type) {
	case *predFilterOp, *semiJoinOp, *valueSemiJoinOp:
		return true
	}
	return false
}

// primaryIn returns a chain member's input operator.
func primaryIn(o op) op {
	switch t := o.(type) {
	case *predFilterOp:
		return t.in
	case *semiJoinOp:
		return t.in
	case *valueSemiJoinOp:
		return t.in
	}
	return nil
}

// setChainIn rewires a chain member's input operator.
func setChainIn(o, in op) {
	switch t := o.(type) {
	case *predFilterOp:
		t.in = in
	case *semiJoinOp:
		t.in = in
	case *valueSemiJoinOp:
		t.in = in
	}
}

// setChainEst re-stamps a chain member's cardinality estimates after
// reordering (In = upstream Out, Out = the compile convention's half).
func setChainEst(o op, est estimates) {
	switch t := o.(type) {
	case *predFilterOp:
		t.est = est
	case *semiJoinOp:
		t.est = est
	case *valueSemiJoinOp:
		t.est = est
	}
}

// chainLabel renders a chain member for ordering notes.
func chainLabel(o op) string {
	switch t := o.(type) {
	case *predFilterOp:
		return "[" + t.pred.String() + "]"
	case *semiJoinOp:
		return "[" + t.pred + "]"
	case *valueSemiJoinOp:
		return "[" + t.pred + "]"
	}
	return "?"
}

// chainRank ranks a chain member for the greedy sort. Class 0 holds
// filters with an exact fragment count (exists-semijoins whose
// fragment the index counted at compile, value semijoins whose
// fragment is resident), ordered by that count ascending — smallest
// certified fragment first. Class 1 holds unknown-count semijoins
// (NoIndex compilations: still a set-at-a-time sweep, cheaper than
// per-node work). Class 2 holds per-node predicate programs and
// fallback value semijoins. Ties keep source order (stable sort).
type chainRank struct {
	cls   int
	count int64
	src   int
}

func (c *compiler) rankMember(o op) chainRank {
	switch t := o.(type) {
	case *semiJoinOp:
		if t.frag.card >= 0 {
			return chainRank{cls: 0, count: t.frag.card, src: t.srcOrd}
		}
		return chainRank{cls: 1, src: t.srcOrd}
	case *valueSemiJoinOp:
		if list, ok := t.scan.resolveWith(c.d, c.opts); ok {
			return chainRank{cls: 0, count: int64(len(list)), src: t.srcOrd}
		}
		return chainRank{cls: 2, src: t.srcOrd}
	case *predFilterOp:
		return chainRank{cls: 2, src: t.srcOrd}
	}
	return chainRank{cls: 3}
}

func (r chainRank) less(o chainRank) bool {
	if r.cls != o.cls {
		return r.cls < o.cls
	}
	if r.cls == 0 && r.count != o.count {
		return r.count < o.count
	}
	return r.src < o.src
}

// reorderFrom reorders every commutable filter chain in the subtree
// rooted at o, returning o's replacement (the new chain top when o
// itself headed a chain).
func (c *compiler) reorderFrom(o op) op {
	switch t := o.(type) {
	case *joinOp:
		t.in = c.reorderFrom(t.in)
		return o
	case *axisStepOp:
		t.in = c.reorderFrom(t.in)
		return o
	case *posFilterOp:
		t.in = c.reorderFrom(t.in)
		return o
	case *mergeOp:
		for i := range t.ins {
			t.ins[i] = c.reorderFrom(t.ins[i])
		}
		return o
	}
	if !chainable(o) {
		return o
	}
	// o heads a maximal filter chain (its consumer is not chainable).
	var members []op // top-down
	cur := o
	for chainable(cur) {
		members = append(members, cur)
		cur = primaryIn(cur)
	}
	base := c.reorderFrom(cur)
	// Reverse into evaluation order (bottom-up).
	for i, j := 0, len(members)-1; i < j; i, j = i+1, j-1 {
		members[i], members[j] = members[j], members[i]
	}
	return c.orderChain(base, members)
}

// orderChain greedily sorts one chain's members, rewires the operator
// links, re-stamps estimates, and attaches the adaptive chain
// metadata. members arrive in (source) evaluation order; the returned
// op is the new chain top.
func (c *compiler) orderChain(base op, members []op) op {
	ranks := make(map[op]chainRank, len(members))
	for _, m := range members {
		ranks[m] = c.rankMember(m)
	}
	sorted := append([]op(nil), members...)
	sort.SliceStable(sorted, func(i, j int) bool {
		return ranks[sorted[i]].less(ranks[sorted[j]])
	})

	changed := false
	for i := range sorted {
		if sorted[i] != members[i] {
			changed = true
			break
		}
	}
	if changed {
		var labels []string
		for _, m := range sorted {
			labels = append(labels, chainLabel(m))
		}
		var src []string
		for _, m := range members {
			src = append(src, chainLabel(m))
		}
		c.p.orderNotes = append(c.p.orderNotes, fmt.Sprintf(
			"step %d: greedy filter order %v (source order %v)",
			chainOrd(members[0]), labels, src))
		if c.p.opOrder == nil {
			c.p.opOrder = make(map[int]string)
		}
		for i, m := range sorted {
			if m == members[i] {
				continue
			}
			r := ranks[m]
			note := fmt.Sprintf("eval position %d/%d (source position %d)", i+1, len(sorted), r.src+1)
			if r.cls == 0 {
				note += fmt.Sprintf(", fragment=%d", r.count)
			}
			c.p.opOrder[m.opID()] = note
		}
	}

	// Rewire and re-stamp estimates along the new order.
	in := base
	estIn := opEstimate(base)
	for _, m := range sorted {
		setChainIn(m, in)
		setChainEst(m, estimates{In: estIn, Out: maxInt64(estIn/2, 1)})
		estIn = maxInt64(estIn/2, 1)
		in = m
	}
	top := sorted[len(sorted)-1]
	if len(sorted) >= 2 {
		setChainMeta(top, &chainMeta{base: base, members: sorted})
	}
	return top
}

// setChainMeta attaches the adaptive-execution metadata to the chain's
// topmost member.
func setChainMeta(o op, m *chainMeta) {
	switch t := o.(type) {
	case *predFilterOp:
		t.chain = m
	case *semiJoinOp:
		t.chain = m
	case *valueSemiJoinOp:
		t.chain = m
	}
}

// chainOrd returns the step ordinal a chain member belongs to.
func chainOrd(o op) int {
	switch t := o.(type) {
	case *predFilterOp:
		return t.meta.ord
	case *semiJoinOp:
		return t.meta.ord
	case *valueSemiJoinOp:
		return t.meta.ord
	}
	return 0
}

// branchEmptyReason walks a branch's spine looking for a provably
// empty intermediate — an exact zero-cardinality fragment that forces
// every operator above it to emit nothing — and returns a description,
// or "" when the branch cannot be short-circuited. Soundness: every
// non-first-step operator's output is a function of its input that
// maps an empty sequence to an empty sequence, and first-step
// (document-node) operators sit below everything else on the spine, so
// emptiness anywhere on the spine forces an empty branch result.
// Attribute-axis steps are never judged by element fragments (the tag
// index counts elements only).
func (c *compiler) branchEmptyReason(o op) string {
	for o != nil {
		switch t := o.(type) {
		case *joinOp:
			// Partitioning-axis output passes the node test; an exact
			// zero-cardinality fragment means no document node does.
			if t.frag != nil && t.frag.card == 0 {
				return fmt.Sprintf("step %d (%s) matches no document node", t.meta.ord, t.meta.display)
			}
			o = t.in
		case *axisStepOp:
			if t.a != axis.Attribute && c.fragCard(t.test) == 0 {
				return fmt.Sprintf("step %d (%s) matches no document node", t.meta.ord, t.meta.display)
			}
			o = t.in
		case *posFilterOp:
			if t.step.Axis != axis.Attribute && c.fragCard(t.step.Test) == 0 {
				return fmt.Sprintf("step %d (%s) matches no document node", t.meta.ord, t.meta.display)
			}
			o = t.in
		case *semiJoinOp:
			if t.frag.card == 0 {
				return fmt.Sprintf("step %d predicate %s has an empty fragment", t.meta.ord, chainLabel(t))
			}
			o = t.in
		case *valueSemiJoinOp:
			if list, ok := t.scan.resolveWith(c.d, c.opts); ok && len(list) == 0 {
				return fmt.Sprintf("step %d predicate %s has an empty value fragment", t.meta.ord, chainLabel(t))
			}
			o = t.in
		case *predFilterOp:
			o = t.in
		default:
			return ""
		}
	}
	return ""
}
