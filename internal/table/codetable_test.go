package table

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// codeTableModel is the plain-map model a CodeTable is held against: per
// hash, the references stored under it, one slot each.
type codeTableModel map[uint64][]int32

// refsOf walks every slot of the table that holds h.
func refsOf(t *CodeTable, h uint64) []int32 {
	var refs []int32
	for pos, ref := t.Find(h, -1); ref != 0; pos, ref = t.Find(h, pos) {
		refs = append(refs, ref)
	}
	return refs
}

// checkCodeTable holds the table against the model for every hash of the
// model and for the given hashes that may be absent.
func checkCodeTable(t *testing.T, ct *CodeTable, model codeTableModel, probes []uint64) {
	t.Helper()
	n := 0
	for h, want := range model {
		n += len(want)
		got := refsOf(ct, h)
		slices.Sort(got)
		want = slices.Clone(want)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("hash %#x: table holds %v, model %v", h, got, want)
		}
		if first := ct.Get(h); !slices.Contains(want, first) {
			t.Fatalf("hash %#x: Get = %d, model %v", h, first, want)
		}
	}
	if ct.Len() != n {
		t.Fatalf("Len = %d, model holds %d", ct.Len(), n)
	}
	for _, h := range probes {
		if _, ok := model[h]; ok {
			continue
		}
		if ref := ct.Get(h); ref != 0 {
			t.Fatalf("absent hash %#x: Get = %d", h, ref)
		}
		if _, ref := ct.Find(h, -1); ref != 0 {
			t.Fatalf("absent hash %#x: Find = %d", h, ref)
		}
	}
	// The invariant every probe loop rests on.
	if ct.Len() >= len(ct.slots) {
		t.Fatalf("no empty slot: %d references in %d slots", ct.Len(), len(ct.slots))
	}
}

// runCodeTableProgram interprets data as a program over a CodeTable and its
// model: each step takes a hash (from a small pool, so that hashes repeat,
// with the low bits of half of them forced equal, so that they share home
// slots at every table size) and either adds a slot for it, overwrites the
// reference of its first slot, deletes one of its slots (often in the middle
// of the run the shared home slots make, whose later slots must shift back
// over it), probes, or recycles the table: Release, then a PooledCodeTable
// whose array may be one a table of this program left behind (every grow of
// a pooled table hands one back), which must hold none of the hashes probed
// so far.
func runCodeTableProgram(t *testing.T, data []byte) {
	ct := MakeCodeTable(0)
	model := codeTableModel{}
	var probes []uint64
	ref := int32(0)
	for len(data) >= 3 {
		op, a, b := data[0], data[1], data[2]
		data = data[3:]
		h := uint64(a)<<56 | uint64(b)<<8 | uint64(a^b) // spread over high and low bits
		if a&1 == 0 {
			h = uint64(a)<<56 | uint64(b)<<32 | 0x5 // same home slot, whatever the size
		}
		probes = append(probes, h, h+1, h^(1<<63))
		switch op % 6 {
		case 0, 1: // one more slot under h
			pos, r := ct.Find(h, -1)
			for r != 0 {
				pos, r = ct.Find(h, pos)
			}
			ref++
			ct.Set(pos, h, ref)
			model[h] = append(model[h], ref)
		case 2: // overwrite the first slot of h, or take one
			pos, r := ct.Find(h, -1)
			ref++
			ct.Set(pos, h, ref)
			if r == 0 {
				model[h] = append(model[h], ref)
			} else {
				model[h][slices.Index(model[h], r)] = ref
			}
		case 3:
			checkCodeTable(t, &ct, model, probes)
		case 4: // recycle, presized for up to 255 references
			ct.Release()
			ct = PooledCodeTable(int(b))
			model = codeTableModel{}
			checkCodeTable(t, &ct, model, probes)
		case 5: // delete the k-th slot of h, if it has one
			pos, r := ct.Find(h, -1)
			for k := op / 6 % 4; k > 0 && r != 0; k-- {
				pos, r = ct.Find(h, pos)
			}
			if r != 0 {
				ct.Delete(pos)
				i := slices.Index(model[h], r)
				model[h] = slices.Delete(model[h], i, i+1)
				if len(model[h]) == 0 {
					delete(model, h)
				}
			}
		}
	}
	checkCodeTable(t, &ct, model, probes)
	ct.Release()
}

func FuzzCodeTable(f *testing.F) {
	f.Add([]byte{0, 2, 2, 0, 2, 2, 2, 2, 2, 3, 0, 0})
	f.Add([]byte{1, 1, 7, 1, 3, 7, 0, 4, 9, 0, 6, 9, 2, 4, 9, 3, 0, 0})
	f.Add([]byte{0, 2, 1, 0, 4, 1, 0, 6, 1, 0, 2, 2, 5, 4, 1, 3, 0, 0, 0, 8, 1, 11, 2, 2, 3, 0, 0})
	rnd := rand.New(rand.NewSource(1))
	long := make([]byte, 3*400)
	rnd.Read(long)
	f.Add(long)
	f.Fuzz(runCodeTableProgram)
}

// TestCodeTableModel runs random programs (FuzzCodeTable's interpreter) and
// then the sizes a program of bytes cannot reach: 10⁵ distinct hashes
// through every doubling from the smallest table, and a table made for them
// up front, which must not grow.
func TestCodeTableModel(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		data := make([]byte, 3*(1+rnd.Intn(300)))
		rnd.Read(data)
		runCodeTableProgram(t, data)
	}

	const n = 100_000
	for _, hint := range []int{0, n} {
		ct := MakeCodeTable(hint)
		made := len(ct.slots)
		model := make(map[uint64]int, n)
		for len(model) < n {
			h := rnd.Uint64()
			if len(model)%64 == 0 {
				h &^= 0xFFFF // some 1500 hashes share their low 16 bits: one long probe run
			}
			if _, ok := model[h]; ok {
				continue
			}
			pos, ref := ct.Find(h, -1)
			if ref != 0 {
				t.Fatalf("hash %#x found before it was set", h)
			}
			ct.Set(pos, h, int32(len(model)+1))
			model[h] = len(model) + 1
		}
		if hint == n && len(ct.slots) != made {
			t.Fatalf("a table made for %d references grew from %d to %d slots", n, made, len(ct.slots))
		}
		if ct.Len() != n || ct.Len()*4 > len(ct.slots)*3 {
			t.Fatalf("Len = %d in %d slots, want %d at a load of at most 3/4", ct.Len(), len(ct.slots), n)
		}
		for h, want := range model {
			if got := int(ct.Get(h)); got != want {
				t.Fatalf("hash %#x: Get = %d, want %d", h, got, want)
			}
			if ct.Get(h+1) != 0 && model[h+1] == 0 {
				t.Fatalf("hash %#x was never set and is found", h+1)
			}
		}
	}
}

// TestCodeTableDeleteInRun deletes each slot of a probe run that wraps
// around the end of the array, in every order of two: the slots after the
// hole must shift back to where a walk from their home slot finds them, and
// the ones at home must stay.
func TestCodeTableDeleteInRun(t *testing.T) {
	// Six hashes for a 16-slot table: homes 14, 14, 15, 15, 0, 14, so the run
	// covers slots 14, 15, 0, 1, 2, 3.
	homes := []uint64{14, 14, 15, 15, 0, 14}
	for first := range homes {
		for second := range homes {
			if second == first {
				continue
			}
			ct := MakeCodeTable(0)
			ct.slots = make([]codeSlot, 16)
			model := codeTableModel{}
			for i, home := range homes {
				h := uint64(i+1)<<40 | home
				pos, _ := ct.Find(h, -1)
				ct.Set(pos, h, int32(i+1))
				model[h] = []int32{int32(i + 1)}
			}
			for _, i := range []int{first, second} {
				h := uint64(i+1)<<40 | homes[i]
				pos, ref := ct.Find(h, -1)
				if ref != int32(i+1) {
					t.Fatalf("deleting %d then %d: hash %d found with reference %d", first, second, i, ref)
				}
				ct.Delete(pos)
				delete(model, h)
				checkCodeTable(t, &ct, model, []uint64{h})
			}
		}
	}
}

// TestCodeSlotSize pins the slot width the heap budget of the coded
// indexes was sized with.
func TestCodeSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(codeSlot{}); got != 12 {
		t.Fatalf("a slot takes %d bytes, want 12", got)
	}
}
