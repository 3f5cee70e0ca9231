package main

import (
	"fmt"
	"runtime"
	"time"
)

// The host this benchmark runs on is a small virtual machine on a shared
// server.  Its speed changes by a third within minutes and by more within
// seconds, with no steal time to show for it, and a second virtual CPU is at
// times not there at all (see README.md, "The host").  Two measures keep the
// end-to-end timings comparable between runs that are minutes apart:
//
//   - both passes run on one P (singleP), so no timed call waits for a
//     second virtual CPU to be scheduled;
//   - every timed stretch is bracketed by bursts of a fixed reference kernel
//     (hostProbe), and its times are divided by how much slower than nominal
//     the kernel ran around it.
//
// The kernel is the benchmark's own code and allocates nothing, so neither a
// change to the program under test nor the state of its heap moves it.

// singleP sets GOMAXPROCS to 1 and returns the function that restores it.
func singleP() (restore func()) {
	old := runtime.GOMAXPROCS(1)
	return func() { runtime.GOMAXPROCS(old) }
}

const (
	probeKeys   = 8192
	probeSlots  = 1 << 15 // uint64s: the hash table, a quarter full
	probeTable  = 1 << 17 // uint64s: 1 MB, inside a private L2
	probeSlices = 15      // slices per burst; a burst reports their median
	// probeNominalUS is what one slice takes when the reference host is
	// quiet, so that a normalised time reads as the time on a quiet host.
	probeNominalUS = 130.0
)

// hostProbe is the reference kernel: what an engine's inner loops do, in
// fixed amounts.  One slice hashes 8192 string keys into an emptied
// open-addressing table (byte loads, multiplies, probing, scattered writes
// over 256 kB), scatters 8192 more writes over a 1 MB table, and scans an
// eighth of it.  It writes no pointer and allocates nothing: a map of
// strings ran 1.8 times slower whenever a collection of the program's heap
// was in its mark phase, because of the write barrier, and so measured the
// program.
type hostProbe struct {
	keys  []string
	slots []uint64
	table []uint64
	sink  uint64

	slowdowns []float64 // of every burst, for the report
}

func newHostProbe() *hostProbe {
	h := &hostProbe{keys: make([]string, probeKeys), slots: make([]uint64, probeSlots), table: make([]uint64, probeTable)}
	for i := range h.keys {
		h.keys[i] = fmt.Sprintf("sku-%06d", mix(uint64(i))%1000000)
	}
	h.burst() // faults the tables in
	h.slowdowns = nil
	return h
}

func (h *hostProbe) slice() time.Duration {
	t0 := time.Now()
	clear(h.slots)
	for _, k := range h.keys {
		x := uint64(14695981039346656037) // FNV-1a
		for i := 0; i < len(k); i++ {
			x = (x ^ uint64(k[i])) * 1099511628211
		}
		x |= 1 // 0 marks an empty slot
		i := x % probeSlots
		for h.slots[i] != 0 && h.slots[i] != x {
			i = (i + 1) % probeSlots
		}
		h.slots[i] = x
	}
	x := uint64(88172645463325252) // xorshift64
	for i := 0; i < 8192; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		h.table[x%probeTable] += x
	}
	s := uint64(0)
	for _, v := range h.table[:probeTable/8] {
		s += v
	}
	h.sink += s
	return time.Since(t0)
}

// burst returns the host's slowdown right now: the median slice time over
// the nominal one.  1 is the quiet reference host.
func (h *hostProbe) burst() float64 {
	us := make([]float64, probeSlices)
	for i := range us {
		us[i] = float64(h.slice()) / 1e3
	}
	f := median(us) / probeNominalUS
	h.slowdowns = append(h.slowdowns, f)
	return f
}
