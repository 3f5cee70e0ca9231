package version

// Three-way merge with order-theoretic conflict reconciliation.  The merge
// of two branch heads a and b works from their first-parent base: the
// result starts from a's state and replays b's net changes, so disjoint
// edits union exactly as in a set-based merge.  The paper-specific part is
// what happens when both branches refined the same incomplete tuple — a
// deletion of a null-carrying base tuple paired with an insertion of a
// more informative version of it (base ⪯ replacement in the tuple-level
// informativeness order).  Two refinements of one base tuple are
// reconciled by their greatest lower bound: the most informative tuple
// below both sides, i.e. exactly the information both branches agree is
// certain, and never less than the base.  Comparable refinements resolve
// silently (the GLB is just the less informative side); incomparable ones
// — the branches assert conflicting constants or refine different
// positions — still resolve to the GLB, but are reported as explicit
// Conflicts.  A refinement racing a plain deletion resolves to the
// deletion (certainty-preserving under CWA: a tuple one branch no longer
// asserts cannot be certain) and is reported too.

import (
	"fmt"
	"sort"

	"incdata/internal/order"
	"incdata/internal/table"
)

// ConflictKind classifies a reported merge conflict.
type ConflictKind uint8

const (
	// ConflictRefineRefine means both branches refined the same base
	// tuple in incomparable ways; the resolution is the GLB of the two
	// refinements.
	ConflictRefineRefine ConflictKind = iota
	// ConflictRefineDelete means one branch refined a base tuple the
	// other deleted; the resolution is the deletion.
	ConflictRefineDelete
)

// String names the conflict kind.
func (k ConflictKind) String() string {
	switch k {
	case ConflictRefineRefine:
		return "refine/refine"
	case ConflictRefineDelete:
		return "refine/delete"
	default:
		return fmt.Sprintf("ConflictKind(%d)", uint8(k))
	}
}

// Conflict is one reported reconciliation.  Ours is the receiving branch's
// tuple, Theirs the merged-in branch's; either may be nil for a deletion.
// Resolution is the tuple the merge kept, nil when it resolved by
// deletion.
type Conflict struct {
	Relation   string
	Kind       ConflictKind
	Base       table.Tuple
	Ours       table.Tuple
	Theirs     table.Tuple
	Resolution table.Tuple
}

// String renders the conflict for reports.
func (c Conflict) String() string {
	res := "deleted"
	if c.Resolution != nil {
		res = c.Resolution.String()
	}
	return fmt.Sprintf("%s %s: base %v, ours %v, theirs %v -> %s",
		c.Relation, c.Kind, c.Base, c.Ours, c.Theirs, res)
}

// MergeResult reports the outcome of a Merge.
type MergeResult struct {
	// Commit is the merge commit (or the surviving head for fast-forward
	// and already-up-to-date merges).
	Commit CommitID
	// State is the merged database state — immutable and shared, clone
	// before mutating.
	State *table.Database
	// Conflicts lists every non-silent reconciliation, in deterministic
	// order.
	Conflicts []Conflict
	// FastForward reports that no merge commit was needed: the branches
	// had not diverged.
	FastForward bool
}

// refinement pairs a deleted null-carrying base tuple with the single
// inserted tuple refining it within one branch's net diff.
type refinement struct {
	baseKey string
	base    table.Tuple
	to      table.Tuple
	toKey   string
}

// refinements extracts the base→replacement pairs of one branch's net
// delta for a relation: a deleted tuple with nulls and exactly one
// inserted refinement of it, where that insertion refines no other
// deleted tuple (the pairing must be unambiguous in both directions).
// Unpaired deletions and insertions stay plain set edits.
func refinements(d *table.Delta) []refinement {
	if d.Empty() {
		return nil
	}
	delKeys := sortedKeys(d.Deleted)
	insKeys := sortedKeys(d.Inserted)
	candidates := make([]refinement, 0, len(delKeys))
	insUses := map[string]int{}
	for _, dk := range delKeys {
		t0 := d.Deleted[dk]
		if t0.IsComplete() {
			continue
		}
		var match refinement
		matches := 0
		for _, ik := range insKeys {
			t1 := d.Inserted[ik]
			if order.TupleLeq(t0, t1) {
				match = refinement{baseKey: dk, base: t0, to: t1, toKey: ik}
				matches++
			}
		}
		if matches == 1 {
			candidates = append(candidates, match)
			insUses[match.toKey]++
		}
	}
	out := candidates[:0]
	for _, r := range candidates {
		if insUses[r.toKey] == 1 {
			out = append(out, r)
		}
	}
	return out
}

func sortedKeys(m map[string]table.Tuple) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Merge merges the other branch's head into the named branch: it computes
// both sides' net diffs against their first-parent base, builds the merged
// state (reconciling refinement conflicts via tuple-level GLBs), commits
// it with both heads as parents, and advances the branch ref.  Branches
// that have not diverged fast-forward without a new commit.
func (h *History) Merge(branch, other, message string) (*MergeResult, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	a, ok := h.branches[branch]
	if !ok {
		return nil, fmt.Errorf("version: unknown branch %q", branch)
	}
	b, ok := h.branches[other]
	if !ok {
		return nil, fmt.Errorf("version: unknown branch %q", other)
	}
	base, err := h.firstParentBase(a, b)
	if err != nil {
		return nil, err
	}
	// Not diverged: already up to date, or fast-forward.
	if base == b || a == b {
		state, err := h.asOfLocked(a)
		if err != nil {
			return nil, err
		}
		return &MergeResult{Commit: a, State: state, FastForward: true}, nil
	}
	if base == a {
		state, err := h.asOfLocked(b)
		if err != nil {
			return nil, err
		}
		h.branches[branch] = b
		return &MergeResult{Commit: b, State: state, FastForward: true}, nil
	}

	stateA, err := h.asOfLocked(a)
	if err != nil {
		return nil, err
	}
	stateB, err := h.asOfLocked(b)
	if err != nil {
		return nil, err
	}
	diffA, err := h.diffLocked(base, a)
	if err != nil {
		return nil, err
	}
	diffB, err := h.diffLocked(base, b)
	if err != nil {
		return nil, err
	}

	merged := stateA.Clone()
	tr := merged.Track()
	conflicts := mergeChanges(merged, diffA, diffB, stateA, stateB)
	cs := tr.Stop()
	id, err := h.commitLocked(branch, message, cs, nil, b)
	if err != nil {
		return nil, err
	}
	// Materialize the merge state: memoized (and checkpointed on
	// boundary) so follow-up AsOf/Checkout reads share it.
	mergedSnap := merged.Snapshot()
	if h.opts.CheckpointEvery > 0 && h.commits[id].depth%h.opts.CheckpointEvery == 0 {
		if _, ok := h.checkpoints[id]; !ok {
			h.checkpoints[id] = mergedSnap
		}
	}
	h.memoLocked(id, mergedSnap)
	return &MergeResult{Commit: id, State: mergedSnap, Conflicts: conflicts}, nil
}

// diffLocked is Diff with h.mu already held.
func (h *History) diffLocked(a, b CommitID) (*table.ChangeSet, error) {
	base, err := h.firstParentBase(a, b)
	if err != nil {
		return nil, err
	}
	down, err := h.firstParentPath(base, a)
	if err != nil {
		return nil, err
	}
	up, err := h.firstParentPath(base, b)
	if err != nil {
		return nil, err
	}
	net := table.NewChangeSet()
	for i := len(down) - 1; i >= 0; i-- {
		net.Compose(down[i].Delta.Invert())
	}
	for _, c := range up {
		net.Compose(c.Delta)
	}
	return net, nil
}

// mergeChanges replays B's net changes onto the merged state (which starts
// as a copy of A's state), reconciling refinement conflicts, and returns
// the reported conflicts in deterministic order.
func mergeChanges(merged *table.Database, diffA, diffB *table.ChangeSet, stateA, stateB *table.Database) []Conflict {
	glb := order.NewGLBAlloc(maxNullID(stateA, stateB) + 1)
	var conflicts []Conflict

	rels := map[string]bool{}
	for _, n := range diffA.RelationNames() {
		rels[n] = true
	}
	for _, n := range diffB.RelationNames() {
		rels[n] = true
	}
	names := make([]string, 0, len(rels))
	for n := range rels {
		names = append(names, n)
	}
	sort.Strings(names)

	for _, name := range names {
		rel := merged.Relation(name)
		if rel == nil {
			continue
		}
		dA, dB := diffA.Delta(name), diffB.Delta(name)
		refsA, refsB := refinements(dA), refinements(dB)
		refAByBase := map[string]refinement{}
		for _, r := range refsA {
			refAByBase[r.baseKey] = r
		}
		refBByBase := map[string]refinement{}
		for _, r := range refsB {
			refBByBase[r.baseKey] = r
		}
		refBaseB := map[string]bool{}
		refToB := map[string]bool{}
		for _, r := range refsB {
			refBaseB[r.baseKey] = true
			refToB[r.toKey] = true
		}

		// B's refinements, reconciled against A's view of the base tuple.
		for _, rb := range refsB {
			if fa, ok := refAByBase[rb.baseKey]; ok {
				// Both sides refined the same base tuple: replace A's
				// refinement (present in merged) by the GLB of both.
				g := glb.TupleGLB(fa.to, rb.to)
				if !g.Equal(fa.to) {
					rel.Remove(fa.to)
					rel.MustAdd(g)
				}
				if !order.TuplesComparable(fa.to, rb.to) {
					conflicts = append(conflicts, Conflict{
						Relation: name, Kind: ConflictRefineRefine,
						Base: rb.base, Ours: fa.to, Theirs: rb.to, Resolution: g,
					})
				}
				continue
			}
			if dA != nil {
				if _, deletedByA := dA.Deleted[rb.baseKey]; deletedByA {
					// A deleted the tuple B refined: deletion wins; the
					// refinement is dropped (merged already lacks the base).
					conflicts = append(conflicts, Conflict{
						Relation: name, Kind: ConflictRefineDelete,
						Base: rb.base, Theirs: rb.to,
					})
					continue
				}
			}
			// A left the base tuple alone: apply B's refinement.
			rel.Remove(rb.base)
			rel.MustAdd(rb.to)
		}

		if dB != nil {
			// B's plain deletions (not refinement bases).
			for _, k := range sortedKeys(dB.Deleted) {
				if refBaseB[k] {
					continue
				}
				t0 := dB.Deleted[k]
				if fa, refinedByA := refAByBase[k]; refinedByA {
					// B deleted the tuple A refined: deletion wins.
					rel.Remove(fa.to)
					conflicts = append(conflicts, Conflict{
						Relation: name, Kind: ConflictRefineDelete,
						Base: t0, Ours: fa.to,
					})
					continue
				}
				rel.Remove(t0)
			}
			// B's plain insertions (not refinement targets).
			for _, k := range sortedKeys(dB.Inserted) {
				if refToB[k] {
					continue
				}
				rel.MustAdd(dB.Inserted[k])
			}
		}

		// Common tuples survive: a tuple asserted by BOTH final states is
		// shared certain information and must be in the merge, even when
		// the reconciliation above replaced it (e.g. a refinement target
		// colliding with a tuple the other branch kept).
		relA, relB := stateA.Relation(name), stateB.Relation(name)
		relB.Each(func(t table.Tuple) bool {
			if relA.Contains(t) && !rel.Contains(t) {
				rel.MustAdd(t)
			}
			return true
		})
	}
	return conflicts
}

// maxNullID returns the largest null id occurring in either database.
func maxNullID(dbs ...*table.Database) uint64 {
	var max uint64
	for _, d := range dbs {
		for n := range d.Nulls() {
			if id := n.NullID(); id > max {
				max = id
			}
		}
	}
	return max
}
