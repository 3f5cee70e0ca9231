package plan

import (
	"sync"

	"incdata/internal/table"
)

// Chunked execution.  Operators that implement chunkStreamer move tuples in
// fixed-size batches instead of one per closure call: a scan fills a chunk
// from its relation, filters compact into their own chunk, projections and
// join probes build output chunks, and materialization inserts each chunk
// with a single Relation.AddBatch (one version bump / COW check per chunk
// instead of per tuple).  Operators without a native chunked form are
// adapted from their per-tuple stream, so the two execution models compose
// freely within one plan.
//
// Chunk contract: the slice passed to emit is producer-owned scratch —
// consumers must not retain or modify it after returning (its tuples are
// immutable and may be adopted, exactly as with per-tuple emit).  Chunks
// hold at most chunkSize tuples.  Chunk buffers are recycled through a
// process-wide sync.Pool so the chunked path does not add allocations per
// evaluation.

// chunkSize is the number of tuples moved per batch.  Large enough to
// amortize per-chunk overhead (AddBatch, pool traffic), small enough that a
// chunk of tuple headers stays cache-resident.
const chunkSize = 256

// chunkPool recycles chunk buffers across operators and evaluations.
var chunkPool = sync.Pool{
	New: func() any {
		s := make([]table.Tuple, 0, chunkSize)
		return &s
	},
}

func getChunk() *[]table.Tuple { return chunkPool.Get().(*[]table.Tuple) }

func putChunk(c *[]table.Tuple) {
	*c = (*c)[:0]
	chunkPool.Put(c)
}

// chunkStreamer is the chunked counterpart of pnode.stream, implemented by
// operators with a native batched form.
type chunkStreamer interface {
	streamChunks(c *pctx, emit func([]table.Tuple) bool) error
}

// streamChunks drives n's output in chunks, using the operator's native
// chunked implementation when it has one and adapting the per-tuple stream
// otherwise.
func streamChunks(n pnode, c *pctx, emit func([]table.Tuple) bool) error {
	if cs, ok := n.(chunkStreamer); ok {
		return cs.streamChunks(c, emit)
	}
	chp := getChunk()
	defer putChunk(chp)
	chunk := (*chp)[:0]
	stopped := false
	err := n.stream(c, func(t table.Tuple) bool {
		chunk = append(chunk, t)
		if len(chunk) == chunkSize {
			if !emit(chunk) {
				stopped = true
				return false
			}
			chunk = chunk[:0]
		}
		return true
	})
	*chp = chunk[:0]
	if err != nil || stopped {
		return err
	}
	if len(chunk) > 0 {
		emit(chunk)
	}
	return nil
}

// streamChunks on a scan iterates the relation into pooled chunks.
func (n *pscan) streamChunks(c *pctx, emit func([]table.Tuple) bool) error {
	rel := c.db.Relation(n.name)
	if rel == nil {
		return relationErr(n.name)
	}
	chp := getChunk()
	defer putChunk(chp)
	chunk := (*chp)[:0]
	n.each(c, rel, func(t table.Tuple) bool {
		chunk = append(chunk, t)
		if len(chunk) == chunkSize {
			if !emit(chunk) {
				return false
			}
			chunk = chunk[:0]
		}
		return true
	})
	*chp = chunk[:0]
	if len(chunk) > 0 {
		emit(chunk)
	}
	return nil
}

// streamChunks on a filter compacts each input chunk into its own buffer.
func (n *pfilter) streamChunks(c *pctx, emit func([]table.Tuple) bool) error {
	chp := getChunk()
	defer putChunk(chp)
	return streamChunks(n.in, c, func(in []table.Tuple) bool {
		out := (*chp)[:0]
		for _, t := range in {
			if n.pred(t) {
				out = append(out, t)
			}
		}
		*chp = out
		if len(out) == 0 {
			return true
		}
		return emit(out)
	})
}

// streamChunks on a projection applies the fused pre-filter and projects
// each surviving tuple into its own output chunk.
func (n *pproject) streamChunks(c *pctx, emit func([]table.Tuple) bool) error {
	chp := getChunk()
	defer putChunk(chp)
	return streamChunks(n.in, c, func(in []table.Tuple) bool {
		out := (*chp)[:0]
		for _, t := range in {
			if n.pred != nil && !n.pred(t) {
				continue
			}
			out = append(out, t.Project(n.idx...))
		}
		*chp = out
		if len(out) == 0 {
			return true
		}
		return emit(out)
	})
}

// streamChunks on a rename passes chunks through untouched.
func (n *pschema) streamChunks(c *pctx, emit func([]table.Tuple) bool) error {
	return streamChunks(n.in, c, emit)
}

// streamChunks on a union streams both sides' chunks.
func (n *punion) streamChunks(c *pctx, emit func([]table.Tuple) bool) error {
	stopped := false
	err := streamChunks(n.l, c, func(ts []table.Tuple) bool {
		if !emit(ts) {
			stopped = true
			return false
		}
		return true
	})
	if err != nil || stopped {
		return err
	}
	return streamChunks(n.r, c, emit)
}

// streamChunks on a hash join probes each input chunk against the build
// index, accumulating matches into an output chunk.
func (n *pjoin) streamChunks(c *pctx, emit func([]table.Tuple) bool) error {
	ix, err := n.buildIndex(c)
	if err != nil {
		return err
	}
	chp := getChunk()
	defer putChunk(chp)
	out := (*chp)[:0]
	stopped := false
	err = streamChunks(n.l, c, func(in []table.Tuple) bool {
		for _, lt := range in {
			key := c.appendPosKey(lt, n.lpos)
			for sh, i := ix.Lookup(key); i != 0; {
				var rt table.Tuple
				rt, i = sh.At(i)
				combined := make(table.Tuple, len(lt), len(lt)+len(n.extraIdx))
				copy(combined, lt)
				for _, ri := range n.extraIdx {
					combined = append(combined, rt[ri])
				}
				out = append(out, combined)
				if len(out) == chunkSize {
					if !emit(out) {
						*chp = out[:0]
						stopped = true
						return false
					}
					out = out[:0]
				}
			}
		}
		*chp = out
		return true
	})
	if err != nil || stopped {
		return err
	}
	if len(out) > 0 {
		emit(out)
	}
	return nil
}

// streamChunks on a diff/intersect filters the left side's chunks through
// the right-side key set, with the fused projection applied to survivors.
func (n *pdiff) streamChunks(c *pctx, emit func([]table.Tuple) bool) error {
	contains, err := n.containsFn(c)
	if err != nil {
		return err
	}
	chp := getChunk()
	defer putChunk(chp)
	return streamChunks(n.l, c, func(in []table.Tuple) bool {
		out := (*chp)[:0]
		for _, t := range in {
			if n.lpred != nil && !n.lpred(t) {
				continue
			}
			if contains(c.sideRow(t, n.lproj)) == n.negate {
				continue
			}
			if n.lproj != nil {
				out = append(out, t.Project(n.lproj...))
			} else {
				out = append(out, t)
			}
		}
		*chp = out
		if len(out) == 0 {
			return true
		}
		return emit(out)
	})
}

// materializeInto evaluates n into out, optionally keeping only null-free
// tuples (the fused null-stripping of certain-answer extraction), through a
// gather of its own (codedexec.go).
func materializeInto(n pnode, c *pctx, certainOnly bool, out *table.Relation) error {
	return materializeIntoAdopt(n, c, certainOnly, false, out)
}

// materializeIntoAdopt is materializeInto with control over whether a
// coded materialization also publishes its codes as out's Encoding sidecar
// (see AdoptEncoding).  Only temporaries that downstream operators will
// consume coded — materialize()'s pipeline breakers — pass adopt; nothing
// ever reads a root result's codes.
func materializeIntoAdopt(n pnode, c *pctx, certainOnly, adopt bool, out *table.Relation) error {
	g := gather{c: c, out: out, adopt: adopt}
	if err := g.add(n, certainOnly); err != nil {
		return err
	}
	g.finish()
	return nil
}
