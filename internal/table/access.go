package table

// Access-path choice for equality selections.  A selection attr = const on
// a base relation can be answered by a hash index on the attribute's
// position (Index for the row path, CodedIndex for the coded one) instead
// of a scan.  Whether an index is there to use is decided here,
// per relation header, by a ski-rental rule with no setting behind it:
//
//   - an index the header holds, or can bring up to date from a candidate it
//     inherited (Database.SnapshotReusing), is used;
//   - otherwise the selection scans, and the scan is counted on the header;
//     once the scans served since the header's last mutation have cost what
//     building the index costs (indexBuildScans of them), the next selection
//     builds it;
//   - before an index is used for the first time a sample decides whether
//     the key is selective enough for a lookup to beat the filtered scan
//     (selectiveKeys); if not, the header keeps scanning and never builds.
//
// The count and the verdict live in a demand record per position list.  They
// follow the sidecars: share carries a copy to the new header, a changed
// relation's snapshot header takes over its predecessor's while the segment
// count stands (adoptCandidates), and a mutation drops them with everything
// else derived (invalidateDerived).  A state reconstructed by Clone + Apply
// therefore starts from zero, and a one-off query over it scans.

import (
	"fmt"
	"sync/atomic"
)

// indexBuildScans is the number of scans after which an index has paid for
// itself.  Building a hash index costs some ten to twelve row-tier scans of
// the relation with a compiled predicate (BenchmarkPointSelect, string keys:
// 20 000 tuples, build 6.0 ms, scan 0.50 ms; 1 000 000 tuples, 640 ms and
// 64 ms), so a header that has scanned seven times for the same key has
// spent well over half a build's worth and builds on the next request: the
// ski-rental rule, a little before its break-even and never more than about
// twice the cost of having known in advance.  The coded
// tier's scan is some twenty times cheaper than the row tier's and counts
// the same, so there the rule builds early; the selectivity gate below is
// what keeps that from costing anything on keys where the index would not
// be a clear win.
const indexBuildScans = 7

// selectiveKeys is the selectivity gate: an equality is served by an index
// only when it is estimated to keep at most 1/selectiveKeys of the relation,
// the estimate being n / (distinct keys in a sample).  Below that a lookup's
// chain walk and row gather cost a small fraction of the coded tier's
// filter over the code vector; at a few dozen rows per hundred the filter,
// which touches memory in order, is the cheaper path and the index would be
// built and patched for nothing.  selectSample bounds the sample.
const (
	selectiveKeys = 64
	selectSample  = 1024
)

// selectDemand is one header's record for equality selections on one
// position list.
type selectDemand struct {
	positions []int
	scans     atomic.Int32 // selections served by a scan since the header's last mutation
	verdict   atomic.Int32 // selectivity of the key: see the constants below
}

const (
	verdictUnknown int32 = iota // not sampled yet
	verdictSelective
	verdictUnselective
)

// clone returns an independent record with the same state.
func (d *selectDemand) clone() *selectDemand {
	out := &selectDemand{positions: d.positions}
	out.scans.Store(d.scans.Load())
	out.verdict.Store(d.verdict.Load())
	return out
}

// cloneDemands copies a header's demand records for another header, which
// from then on counts on its own.
func cloneDemands(set *[]*selectDemand) *[]*selectDemand {
	if set == nil {
		return nil
	}
	out := make([]*selectDemand, len(*set))
	for i, d := range *set {
		out[i] = d.clone()
	}
	return &out
}

// demandFor returns the header's record for the positions, adding one on
// first use (CAS-published like the sidecar sets).
func (r *Relation) demandFor(positions []int) *selectDemand {
	for {
		set := r.demands.Load()
		if d, _ := findSidecar(set, func(d *selectDemand) bool { return samePositions(d.positions, positions) }); d != nil {
			return d
		}
		d := &selectDemand{positions: append([]int(nil), positions...)}
		if r.demands.CompareAndSwap(set, withSidecar(set, -1, d)) {
			return d
		}
	}
}

// SelectKind says which way an equality selection was served.
type SelectKind uint8

const (
	// SelectUndecided is the zero SelectPath: no selection has run.
	SelectUndecided SelectKind = iota
	// SelectIndexed: an index on the key positions answered.
	SelectIndexed
	// SelectScanBelowThreshold: no index is there and the scans so far have
	// not cost a build yet.
	SelectScanBelowThreshold
	// SelectScanNotSelective: the key is estimated to match too large a
	// share of the relation for an index to beat the filter.
	SelectScanNotSelective
)

// SelectPath is the access path one equality selection took: its kind and,
// for a scan below the build threshold, how many scans the header has now
// served.
type SelectPath uint32

func selectPath(kind SelectKind, scans int32) SelectPath {
	return SelectPath(kind) | SelectPath(scans)<<8
}

// Kind returns the way the selection was served.
func (p SelectPath) Kind() SelectKind { return SelectKind(p & 0xff) }

// String renders the path the way Plan.Describe prints it.
func (p SelectPath) String() string {
	switch p.Kind() {
	case SelectIndexed:
		return "index"
	case SelectScanBelowThreshold:
		return fmt.Sprintf("scan: below build threshold %d/%d", p>>8, indexBuildScans)
	case SelectScanNotSelective:
		return "scan: not selective"
	default:
		return "not evaluated"
	}
}

// countedScan serves a selection by a scan, and counts it, when the key is
// known to be unselective or when no index is held and the header's scans
// have not cost a build yet; false means an index is there or due.
func (r *Relation) countedScan(d *selectDemand, held bool) (SelectPath, bool) {
	if d.verdict.Load() == verdictUnselective {
		r.encStats.noteSelectScan()
		return selectPath(SelectScanNotSelective, 0), true
	}
	if served := d.scans.Load(); !held && served < indexBuildScans {
		d.scans.Add(1)
		r.encStats.noteSelectScan()
		return selectPath(SelectScanBelowThreshold, served+1), true
	}
	return 0, false
}

// decideSelect runs the rule of the file comment for one selection on the
// positions.  held says whether an index of the kind the caller wants is on
// the header or can be patched from a candidate.  On SelectIndexed the
// caller fetches the index (Index, Encoding.Index), which builds or patches
// as needed.
func (r *Relation) decideSelect(positions []int, held bool) SelectPath {
	d := r.demandFor(positions)
	if path, scanned := r.countedScan(d, held); scanned {
		return path
	}
	// An index is about to be used: the first time, look whether the key is
	// worth one.
	if d.verdict.Load() == verdictUnknown {
		if !r.selective(positions) {
			d.verdict.Store(verdictUnselective)
			r.encStats.noteSelectScan()
			return selectPath(SelectScanNotSelective, 0)
		}
		d.verdict.Store(verdictSelective)
	}
	r.encStats.noteIndexLookup()
	return selectPath(SelectIndexed, 0)
}

// selective reports whether an equality on the positions is estimated to
// keep at most 1/selectiveKeys of the relation: whether a sample of up to
// selectSample tuples holds that many distinct keys.  Rows keep the order
// they were inserted in, which may follow a key, so the sample takes every
// stride-th row of each segment; a key column answers after selectiveKeys
// tuples.
func (r *Relation) selective(positions []int) bool {
	seen := make(map[string]struct{}, selectiveKeys)
	var buf [keyBufSize]byte
	left := selectSample
	stride := max(1, r.n/selectSample)
	for _, s := range r.segs {
		for i := 0; i < len(s.rows); i += stride {
			key := appendProjectedKey(buf[:0], s.rows[i], positions)
			if _, ok := seen[string(key)]; !ok {
				seen[string(key)] = struct{}{}
				if len(seen) == selectiveKeys {
					return true
				}
			}
			if left--; left == 0 {
				return false
			}
		}
	}
	return false
}

// SelectIndex is Index for an equality selection on the positions: it
// returns the index when the access-path rule (see the file comment) says
// to use one, building it when it is due, and nil when the selection should
// scan.  Either way the returned path says why.  The same concurrency
// contract as Index.
func (r *Relation) SelectIndex(positions []int) (*Index, SelectPath) {
	r.ensure()
	cur, _ := findSidecar(r.indexes.Load(), func(ix *Index) bool { return samePositions(ix.positions, positions) })
	held := cur != nil && (sameSegs(cur.segs, r.segs) || patchable(cur.segs, r.segs))
	path := r.decideSelect(positions, held)
	if path.Kind() != SelectIndexed {
		return nil, path
	}
	return r.Index(positions), path
}

// SelectCodedIndex is SelectIndex for the coded tier: e must be r's
// encoding (Relation.Encoding) and Ok, and the index is Encoding.Index's.
// Both kinds of index draw on the same demand record, so scans of either
// tier count towards the build of whichever is asked for once it is due.
// A coded join asks it too, for a base left side's index on its join key.
func (r *Relation) SelectCodedIndex(e *Encoding, positions []int) (*CodedIndex, SelectPath) {
	cur, _ := findSidecar(e.indexes.Load(), func(ix *CodedIndex) bool { return samePositions(ix.positions, positions) })
	held := cur != nil && (sameSegs(cur.segs, e.segs) || patchable(cur.segs, e.segs))
	path := r.decideSelect(positions, held)
	if path.Kind() != SelectIndexed {
		return nil, path
	}
	return e.Index(positions), path
}
