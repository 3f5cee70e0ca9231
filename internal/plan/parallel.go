package plan

import (
	"sync"
	"sync/atomic"

	"incdata/internal/ra"
	"incdata/internal/schema"
	"incdata/internal/table"
)

// Morsel-driven parallel evaluation.  A plan is parallelized by splitting
// the base relation that drives its probe pipeline — the scan reached by
// walking the left spine of the operator tree — into morsels, and running
// the whole pipeline once per morsel on a pool of workers.  Each worker
// owns its pctx (scratch buffers, morsel assignment) and a private output
// relation; the locals are merged at the end, and set semantics make the
// merged result independent of scheduling, so the parallel answer is
// bit-identical to the serial one.
//
// Two morsel shapes exist:
//
//   - Partitioned join: when the lowest hash join's probe chain down to the
//     driving scan preserves tuple positions (only filters and renames),
//     both join sides are hash-partitioned on their key columns
//     (table.Partitioning).  Matching keys land in the same bucket, so each
//     worker joins probe bucket i against the per-partition index of build
//     bucket i — smaller indexes, no cross-partition probes.
//   - Round-robin morsels: otherwise the driving scan is split round-robin
//     and every other operator runs unchanged, probing the shared
//     whole-relation structures.
//
// Before workers start, a single-threaded prepare phase materializes every
// pipeline breaker off the driving spine (join build sides, diff/intersect
// key sets, product right sides) into a sharedEval, so that work happens
// once instead of once per worker.  After prepare, the shared state is
// read-only; the structures workers probe concurrently (relations, hash
// indexes, partitionings, key-set closures) are all immutable.

// parallelCutoff is the minimum driving-relation size for going parallel;
// below it, goroutine and merge overhead dominates.  It is a variable so
// tests can lower it to force the parallel paths on small corpora.
var parallelCutoff = 512

// morselFanout is the number of morsels (or partitions) per worker.  More
// morsels than workers smooths load imbalance from skewed buckets; too
// many shrinks each bucket below chunk size.
const morselFanout = 4

// sharedEval is the read-only state an evaluation's workers share: the
// prepare phase's materialized pipeline breakers and key-set probes, keyed
// by operator identity.
type sharedEval struct {
	mats     map[pnode]*table.Relation
	contains map[*pdiff]func(table.Tuple) bool
	// codedContains holds the coded twins of contains, built during
	// prepare for diffs whose right side has a coded form; sets holds the
	// ones that probe a set, released when the evaluation ends.
	codedContains map[*pdiff]codedContains
	sets          []*codedSet
}

// parallelizable reports whether any union branch of the plan has a
// driving scan over a relation big enough to warrant the worker pool.
func parallelizable(n pnode, db ra.DB) bool {
	if u, ok := n.(*punion); ok {
		return parallelizable(u.l, db) || parallelizable(u.r, db)
	}
	scan, _ := drivingChain(n)
	if scan == nil {
		return false
	}
	rel := db.Relation(scan.name)
	return rel != nil && rel.Len() >= parallelCutoff
}

// drivingChain walks the left spine of an operator tree to the scan that
// drives its probe pipeline, and returns the lowest hash join whose chain
// down to that scan preserves tuple positions (only filters and renames in
// between) — that join can be evaluated partition-wise.  A nil scan means
// the tree has no driving scan (division, Δ, empty).
func drivingChain(root pnode) (scan *pscan, partJoin *pjoin) {
	n := root
	var cand *pjoin
	clean := false
	for {
		switch x := n.(type) {
		case *pscan:
			if clean {
				return x, cand
			}
			return x, nil
		case *pfilter:
			n = x.in
		case *pschema:
			n = x.in
		case *pproject:
			// Projection changes tuple positions: joins above it cannot
			// partition the scan on their probe-key columns.
			cand, clean = nil, false
			n = x.in
		case *pjoin:
			cand, clean = x, true
			n = x.l
		case *pdiff:
			cand, clean = nil, false
			n = x.l
		case *pproduct:
			cand, clean = nil, false
			n = x.l
		default:
			return nil, nil
		}
	}
}

// runParallel evaluates root into out with a worker pool.  Union branches
// are evaluated one after the other (each internally parallel when its
// driving relation is big enough, serially otherwise), all sharing one
// prepare phase.
func runParallel(root pnode, db ra.DB, cfg EvalConfig, certainOnly bool, out *table.Relation) error {
	shared := &sharedEval{
		mats:          make(map[pnode]*table.Relation),
		contains:      make(map[*pdiff]func(table.Tuple) bool),
		codedContains: make(map[*pdiff]codedContains),
	}
	// Every worker has joined by the time runParallel returns.
	defer func() {
		for _, s := range shared.sets {
			s.release()
		}
	}()
	c0 := newPctx(db, cfg, shared)

	branches := unionBranches(root, nil)
	type branchRun struct {
		root pnode
		scan *pscan
		join *pjoin
		rel  *table.Relation
	}
	runs := make([]branchRun, 0, len(branches))
	for _, b := range branches {
		br := branchRun{root: b}
		br.scan, br.join = drivingChain(b)
		if br.scan != nil {
			if br.rel = db.Relation(br.scan.name); br.rel == nil {
				return relationErr(br.scan.name)
			}
			if br.rel.Len() < parallelCutoff || !br.scan.splittable(br.rel) {
				br.scan, br.join = nil, nil // too small, or an index serves the scan; evaluate serially
			}
		}
		if err := prepareShared(b, c0, br.join); err != nil {
			return err
		}
		runs = append(runs, br)
	}

	// The serial branches share one gather, finished after the parallel
	// branches have merged their workers' results into out.
	serial := gather{c: c0, out: out}
	for _, br := range runs {
		if br.scan == nil {
			if err := serial.add(br.root, certainOnly); err != nil {
				return err
			}
			continue
		}
		if err := runBranch(br.root, br.scan, br.join, br.rel, db, shared, cfg, certainOnly, out); err != nil {
			return err
		}
	}
	serial.finish()
	return nil
}

// unionBranches flattens the punion tree at the root into its branches;
// every other node is a single branch.
func unionBranches(n pnode, acc []pnode) []pnode {
	if u, ok := n.(*punion); ok {
		return unionBranches(u.r, unionBranches(u.l, acc))
	}
	return append(acc, n)
}

// prepareShared materializes, single-threaded, every pipeline breaker off
// the driving spine into the shared cache: join build sides (with their
// whole-relation index, except for the partition-joined one, whose
// per-partition indexes replace it), product right sides, diff/intersect
// key-set probes, and division inputs.
func prepareShared(n pnode, c *pctx, partJoin *pjoin) error {
	switch x := n.(type) {
	case *pscan:
		if c.coded {
			// Build (and cache) the scan's encoding once, single-threaded,
			// instead of racing duplicate builds across workers.
			if rel := c.db.Relation(x.name); rel != nil {
				rel.Encoding(c.dict)
			}
		}
		return nil
	case *pfilter:
		return prepareShared(x.in, c, partJoin)
	case *pproject:
		return prepareShared(x.in, c, partJoin)
	case *pschema:
		return prepareShared(x.in, c, partJoin)
	case *punion:
		if err := prepareShared(x.l, c, partJoin); err != nil {
			return err
		}
		return prepareShared(x.r, c, partJoin)
	case *pjoin:
		if err := prepareShared(x.l, c, partJoin); err != nil {
			return err
		}
		rel, err := shareMat(x.r, c)
		if err != nil {
			return err
		}
		if x != partJoin {
			rel.Index(x.rpos) // built once here, probed by every worker
			if c.coded {
				if enc := rel.Encoding(c.dict); enc.Ok() {
					enc.Index(x.rpos)
				}
			}
		}
		return nil
	case *pproduct:
		if err := prepareShared(x.l, c, partJoin); err != nil {
			return err
		}
		_, err := shareMat(x.r, c)
		return err
	case *pdiff:
		if err := prepareShared(x.l, c, partJoin); err != nil {
			return err
		}
		f, err := x.containsFn(c)
		if err != nil {
			return err
		}
		c.shared.contains[x] = f
		if c.coded {
			cf, set, err := x.codedContainsFn(c)
			if err != nil {
				return err
			}
			if cf != nil {
				c.shared.codedContains[x] = cf
			}
			if set != nil {
				c.shared.sets = append(c.shared.sets, set)
			}
		}
		return nil
	case *pdivision:
		if _, err := shareMat(x.l, c); err != nil {
			return err
		}
		_, err := shareMat(x.r, c)
		return err
	default:
		return nil
	}
}

// shareMat materializes a node into the shared cache (base relation scans
// are already shared storage and are returned as-is).
func shareMat(n pnode, c *pctx) (*table.Relation, error) {
	rel, err := materialize(n, c)
	if err != nil {
		return nil, err
	}
	if _, ok := n.(*pscan); !ok {
		c.shared.mats[n] = rel
	}
	return rel, nil
}

// runBranch evaluates one union branch with the worker pool.  With a
// partition join, probe and build sides are hash-partitioned on their key
// columns and bucket i probes the index of bucket i; otherwise the driving
// relation is split round-robin and workers probe the shared structures.
// Workers pull partitions from an atomic counter (morsel stealing) and
// collect into private relations, merged into out afterwards.
func runBranch(root pnode, scan *pscan, join *pjoin, rel *table.Relation, db ra.DB,
	shared *sharedEval, cfg EvalConfig, certainOnly bool, out *table.Relation) error {
	workers := cfg.Workers
	parts := workers * morselFanout
	var lp, rp *table.Partitioning
	if join != nil {
		buildRel, err := materialize(join.r, &pctx{db: db, shared: shared})
		if err != nil {
			return err
		}
		lp = rel.Partition(join.lpos, parts)
		rp = buildRel.Partition(join.rpos, parts)
	} else {
		lp = rel.Partition(nil, parts)
	}

	// Resolve the branch's coded eligibility once: per-partition coded
	// indexes are only worth building when the branch will run coded.
	codedBranch := false
	if join != nil {
		probe := newPctx(db, cfg, shared)
		codedBranch = codedEligible(root, probe)
	}

	locals := make([]*table.Relation, workers)
	errs := make([]error, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			local := table.NewRelation(root.out())
			locals[w] = local
			c := newPctx(db, cfg, shared)
			c.morselFor = scan
			// One gather for all the worker's morsels: its set drops what
			// they repeat, and local is built once, at the end.
			g := gather{c: c, out: local}
			for {
				i := int(next.Add(1)) - 1
				if i >= parts {
					g.finish()
					return
				}
				c.morsel = lp.Bucket(i)
				if len(c.morsel) == 0 {
					continue
				}
				if join != nil {
					c.partIdxFor, c.partIdx = join, rp.Index(i)
					if codedBranch {
						c.partCoded = rp.CodedIndex(i, c.dict)
					}
				}
				if err := g.add(root, certainOnly); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for _, local := range locals {
		if local == nil {
			continue
		}
		if err := out.AddAll(local); err != nil {
			return err
		}
	}
	return nil
}

// Partition-parallel stable evaluation for world plans (world.go): the
// stable part of a join is computed by partitioning both sides on their
// join keys, and map-shaped stable parts (σ, π, ×) by round-robin morsels.

// parallelStableJoin joins sl ⋈ sr partition-wise: both sides are
// hash-partitioned on their key columns and each worker joins bucket i
// against bucket i's per-partition index.
func parallelStableJoin(sl, sr *table.Relation, n *wnode, workers int) (*table.Relation, error) {
	parts := workers * morselFanout
	lp := sl.Partition(n.lpos, parts)
	rp := sr.Partition(n.rpos, parts)
	return mergeStableWorkers(n.rs, workers, parts, func(i int, local *table.Relation, keyBuf []byte) []byte {
		bucket := lp.Bucket(i)
		if len(bucket) == 0 {
			return keyBuf
		}
		ix := rp.Index(i)
		for _, lt := range bucket {
			keyBuf = keyBuf[:0]
			for _, p := range n.lpos {
				keyBuf = lt[p].AppendKey(keyBuf)
			}
			joinProbe(local, ix, keyBuf, lt, n.extraIdx)
		}
		return keyBuf
	})
}

// parallelStableMap evaluates a tuple-at-a-time stable part (σ, π, ×) over
// round-robin morsels of sl.
func parallelStableMap(sl *table.Relation, rs schema.Relation, workers int, per func(table.Tuple, *table.Relation)) (*table.Relation, error) {
	parts := workers * morselFanout
	mp := sl.Partition(nil, parts)
	return mergeStableWorkers(rs, workers, parts, func(i int, local *table.Relation, keyBuf []byte) []byte {
		for _, t := range mp.Bucket(i) {
			per(t, local)
		}
		return keyBuf
	})
}

// mergeStableWorkers runs the per-partition body on a worker pool feeding
// from an atomic partition counter and merges the per-worker locals.
func mergeStableWorkers(rs schema.Relation, workers, parts int,
	body func(i int, local *table.Relation, keyBuf []byte) []byte) (*table.Relation, error) {
	locals := make([]*table.Relation, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			local := table.NewRelation(rs)
			locals[w] = local
			var keyBuf []byte
			for {
				i := int(next.Add(1)) - 1
				if i >= parts {
					return
				}
				keyBuf = body(i, local, keyBuf)
			}
		}(w)
	}
	wg.Wait()
	out := table.NewRelation(rs)
	for _, local := range locals {
		if local == nil {
			continue
		}
		if err := out.AddAll(local); err != nil {
			return nil, err
		}
	}
	return out, nil
}
