package plan

// Grace-style spill-to-disk hash join (the MemBudget path of EvalConfig).
//
// A budgeted join buffers its build side only while it fits the budget.
// The moment the running size estimate crosses it, the join switches to
// Grace partitioning: every build tuple (buffered and still arriving) is
// routed by a hash of its join key into one of spillFanout temporary
// partition files, the probe side is routed the same way with its own
// join key, and the join then runs partition by partition — each
// partition's build side is small enough to index in memory, and equal
// join keys always land in the same partition, so the union of the
// per-partition joins is exactly the unbounded join.  Duplicates are
// preserved on both sides just as the streaming path preserves them; set
// semantics are restored at materialization like everywhere else.
//
// Spill records are length-prefixed tuple keys: uvarint byte count, then
// the tuple's self-delimiting key encoding (table.Tuple.AppendKey),
// decoded back with table.DecodeTuple.  The spill directory lives under
// the OS temp dir and is removed when the join finishes, succeeds or not.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"incdata/internal/table"
)

// spillFanout is the number of Grace partitions.  With the build side
// hashed uniformly, each partition holds ~1/32 of it, so the in-memory
// index of one partition stays far under any budget that triggered the
// spill in the first place.
const spillFanout = 32

// tupleOverheadBytes is the assumed per-value in-memory overhead used by
// the build-side size estimate, on top of the encoded key bytes.
const tupleOverheadBytes = 16

// errStopStream distinguishes an emit-requested early stop from a real
// error inside stream callbacks that cannot return one directly.
var errStopStream = errors.New("plan: stream stopped")

// spillStream evaluates a budgeted hash join: resident build + normal
// probe while the build side fits c.budget, Grace partition spill once it
// does not.
func (n *pjoin) spillStream(c *pctx, emit func(table.Tuple) bool) error {
	var (
		buffered []table.Tuple // build tuples while under budget
		used     int64
		sp       *spillJoin
		inErr    error
	)
	defer func() {
		if sp != nil {
			sp.cleanup()
		}
	}()
	err := n.r.stream(c, func(rt table.Tuple) bool {
		if sp == nil {
			used += spillTupleBytes(c, rt)
			buffered = append(buffered, rt)
			if used <= c.budget {
				return true
			}
			// Budget crossed: open the spill, drain the buffer into the
			// build partitions, and stop buffering.
			var err error
			if sp, err = newSpillJoin(n.r.out().Arity(), n.l.out().Arity()); err != nil {
				inErr = err
				return false
			}
			for _, bt := range buffered {
				if err := sp.addBuild(c, bt, n.rpos); err != nil {
					inErr = err
					return false
				}
			}
			buffered = nil
			return true
		}
		if err := sp.addBuild(c, rt, n.rpos); err != nil {
			inErr = err
			return false
		}
		return true
	})
	if err == nil {
		err = inErr
	}
	if err != nil {
		return err
	}

	if sp == nil {
		// The whole build side fit the budget: index it and probe as usual.
		rrel := table.NewRelation(n.r.out())
		if err := rrel.AddBatch(buffered); err != nil {
			return err
		}
		return n.probeWith(c, rrel.Index(n.rpos), emit)
	}

	// Route the probe side to its partitions, then join partition by
	// partition.
	inErr = nil
	err = n.l.stream(c, func(lt table.Tuple) bool {
		if err := sp.addProbe(c, lt, n.lpos); err != nil {
			inErr = err
			return false
		}
		return true
	})
	if err == nil {
		err = inErr
	}
	if err != nil {
		return err
	}
	if err := sp.finishWrites(); err != nil {
		return err
	}
	for p := 0; p < spillFanout; p++ {
		if err := n.joinPartition(c, sp, p, emit); err != nil {
			if err == errStopStream {
				return nil
			}
			return err
		}
	}
	return nil
}

// joinPartition loads one build partition into an in-memory relation,
// indexes it on the build join key, and probes it with the partition's
// probe tuples.  Returns errStopStream when emit asked to stop.
func (n *pjoin) joinPartition(c *pctx, sp *spillJoin, p int, emit func(table.Tuple) bool) error {
	build := table.NewRelation(n.r.out())
	if err := sp.build.each(p, sp.buildArity, func(t table.Tuple) error {
		return build.Add(t)
	}); err != nil {
		return err
	}
	if build.Len() == 0 {
		return nil // no build tuples: every probe in p misses
	}
	ix := build.Index(n.rpos)
	return sp.probe.each(p, sp.probeArity, func(lt table.Tuple) error {
		key := c.appendPosKey(lt, n.lpos)
		for sh, i := ix.Lookup(key); i != 0; {
			var rt table.Tuple
			rt, i = sh.At(i)
			if !n.emitJoined(lt, rt, emit) {
				return errStopStream
			}
		}
		return nil
	})
}

// spillTupleBytes estimates the in-memory footprint of one build tuple:
// its encoded key bytes (proportional to the payload) plus a per-value
// overhead for headers and map bookkeeping.
func spillTupleBytes(c *pctx, t table.Tuple) int64 {
	k := t.AppendKey(c.keyBuf[:0])
	c.keyBuf = k
	return int64(len(k)) + int64(tupleOverheadBytes*(len(t)+1))
}

// spillJoin owns the temporary directory and the two partitioned spill
// sides of one Grace join.
type spillJoin struct {
	dir        string
	build      spillSide
	probe      spillSide
	buildArity int
	probeArity int
}

func newSpillJoin(buildArity, probeArity int) (*spillJoin, error) {
	dir, err := os.MkdirTemp("", "incdata-spill-")
	if err != nil {
		return nil, fmt.Errorf("plan: create spill dir: %w", err)
	}
	sp := &spillJoin{dir: dir, buildArity: buildArity, probeArity: probeArity}
	if err := sp.build.open(dir, "build"); err != nil {
		sp.cleanup()
		return nil, err
	}
	if err := sp.probe.open(dir, "probe"); err != nil {
		sp.cleanup()
		return nil, err
	}
	return sp, nil
}

// addBuild routes one build tuple to its partition by the hash of its
// join key (the keyPos positions).
func (sp *spillJoin) addBuild(c *pctx, t table.Tuple, keyPos []int) error {
	return sp.build.add(c, t, keyPos)
}

// addProbe routes one probe tuple by its own join key; equal keys hash to
// the same partition on both sides.
func (sp *spillJoin) addProbe(c *pctx, t table.Tuple, keyPos []int) error {
	return sp.probe.add(c, t, keyPos)
}

// finishWrites flushes both sides' buffered writers; after it, partitions
// may be read back.
func (sp *spillJoin) finishWrites() error {
	if err := sp.build.flush(); err != nil {
		return err
	}
	return sp.probe.flush()
}

// cleanup closes every partition file and removes the spill directory.
func (sp *spillJoin) cleanup() {
	sp.build.close()
	sp.probe.close()
	os.RemoveAll(sp.dir)
}

// spillSide is one side's spillFanout partition files with buffered
// writers.
type spillSide struct {
	files [spillFanout]*os.File
	w     [spillFanout]*bufio.Writer
}

func (s *spillSide) open(dir, name string) error {
	for p := 0; p < spillFanout; p++ {
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-%02d", name, p)))
		if err != nil {
			return fmt.Errorf("plan: create spill partition: %w", err)
		}
		s.files[p] = f
		s.w[p] = bufio.NewWriter(f)
	}
	return nil
}

// add appends one tuple record — uvarint length, then the tuple's key
// encoding — to the partition selected by the FNV-1a hash of the tuple's
// join key.
func (s *spillSide) add(c *pctx, t table.Tuple, keyPos []int) error {
	p := spillPartition(c.appendPosKey(t, keyPos))
	rec := t.AppendKey(c.keyBuf[:0])
	c.keyBuf = rec
	var lenBuf [binary.MaxVarintLen64]byte
	nn := binary.PutUvarint(lenBuf[:], uint64(len(rec)))
	w := s.w[p]
	if _, err := w.Write(lenBuf[:nn]); err != nil {
		return fmt.Errorf("plan: write spill record: %w", err)
	}
	if _, err := w.Write(rec); err != nil {
		return fmt.Errorf("plan: write spill record: %w", err)
	}
	return nil
}

func (s *spillSide) close() {
	for p := 0; p < spillFanout; p++ {
		if s.files[p] != nil {
			s.files[p].Close()
		}
	}
}

func (s *spillSide) flush() error {
	for p := 0; p < spillFanout; p++ {
		if err := s.w[p].Flush(); err != nil {
			return fmt.Errorf("plan: flush spill partition: %w", err)
		}
	}
	return nil
}

// each decodes every tuple record of one partition in write order,
// preserving duplicates.  fn's error aborts the scan and is returned
// as-is (the join uses errStopStream for early stop).
func (s *spillSide) each(p, arity int, fn func(table.Tuple) error) error {
	f := s.files[p]
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("plan: rewind spill partition: %w", err)
	}
	r := bufio.NewReader(f)
	var rec []byte
	for {
		ln, err := binary.ReadUvarint(r)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("plan: read spill record length: %w", err)
		}
		if uint64(cap(rec)) < ln {
			rec = make([]byte, ln)
		}
		rec = rec[:ln]
		if _, err := io.ReadFull(r, rec); err != nil {
			return fmt.Errorf("plan: read spill record: %w", err)
		}
		t, rest, err := table.DecodeTuple(rec, arity)
		if err != nil {
			return fmt.Errorf("plan: decode spill record: %w", err)
		}
		if len(rest) != 0 {
			return fmt.Errorf("plan: spill record has %d trailing bytes", len(rest))
		}
		if err := fn(t); err != nil {
			return err
		}
	}
}

// spillPartition maps a join key to its partition: FNV-1a over the key
// bytes, reduced mod spillFanout.  Both sides hash the same key bytes
// (value key encodings), so equal join keys always meet in one partition.
func spillPartition(key []byte) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return int(h % spillFanout)
}
