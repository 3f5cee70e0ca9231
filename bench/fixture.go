package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"incdata/internal/engine"
	"incdata/internal/queryparse"
	"incdata/internal/ra"
	srvclient "incdata/internal/server/client" // "client" is a loop parameter throughout this file
	"incdata/internal/server/wire"
	"incdata/internal/table"
	"incdata/internal/value"
	"incdata/internal/workload"
)

// opKind is what one operation asks of the system.  The same five kinds
// describe an in-process call and a wire request, so one staged executor
// (stage.go) can replay any workload layer by layer.
type opKind uint8

const (
	kQuery   opKind = iota // evaluate text under mode on the session's state
	kUpdate                // apply ups to the live database
	kCommit                // commit the pending updates
	kAsOf                  // pin the session to an earlier acknowledged commit
	kRefresh               // re-pin the session to the live head
)

// op is one operation.  Generators fill both the textual form (what the
// wire carries) and the parsed form (what an in-process caller holds), so
// neither driver parses inside a timed region unless the real path does.
type op struct {
	kind opKind
	db   int // index into fixture.dbs

	text string // kQuery
	expr ra.Expr
	mode engine.Mode

	ups  []wire.UpdateOp // kUpdate
	muts []mutation

	ref uint64 // kAsOf: picks acked[ref % len(acked)] at run time
}

// mutation is one parsed tuple insert or delete.
type mutation struct {
	add bool
	rel string
	t   table.Tuple
}

// fixture is a workload's data and its deterministic op generator.
type fixture struct {
	workload string
	dbs      []*table.Database // base states; drivers clone, never mutate
	viewQ    string            // the view a served system maintains, over dbs[0]
	joinKey  map[string][]int  // per relation of dbs[0]: the positions joins hash on
	// tierQueries are read-only queries over dbs[0] that the traced pass
	// executes under each executor configuration (plan.*_speedup).
	tierQueries []string
	cycle       int // groups after which the loop is back in the phase it started in
	// instalment is the number of groups (per client) a region is measured
	// in: a whole number of cycles, so that every instalment is the same mix
	// of ops and its rate can be held against the next one's, and about
	// half a second to a second and a half long, so that the host's speed
	// is probed that often (sut.measure).
	instalment int
	readOnly   bool   // no op of the loop writes
	warm       [][]op // read-only groups a set-up runs before measuring
	// verifyEvery > 0: check every n-th answer against the oracle (writes
	// keep changing the state); 0: the first answer at each cycle position.
	verifyEvery int
	// changesView reports whether a committed tuple change alters viewQ's
	// answer; the served fixture's writes are built to make that decidable
	// from the commit log alone.
	changesView func(rel string, t table.Tuple) bool

	// loop returns one client's closed loop: each call yields the next op
	// group.  Two loops of the same client yield the same sequence.
	loop func(client int) func() []op

	mu    sync.Mutex // guards exprs: the server mix generates from two goroutines
	exprs map[string]ra.Expr
}

// loopOf is the closed loop of a single-caller workload: group 0, 1, 2, …
func loopOf(group func(i int) []op) func(client int) func() []op {
	return func(int) func() []op {
		i := 0
		return func() []op {
			i++
			return group(i - 1)
		}
	}
}

// mix hashes its arguments (splitmix64 finaliser over a running sum), so
// op i of seed s is the same in every pass without any generator state.
func mix(vs ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vs {
		h += v + 0x9e3779b97f4a7c15
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// scaled shrinks a size for the smoke test, keeping it usable.
func scaled(n int, scale float64, floor int) int {
	m := int(float64(n) * scale)
	if m < floor {
		return floor
	}
	return m
}

func (f *fixture) query(db int, text string, mode engine.Mode) op {
	f.mu.Lock()
	defer f.mu.Unlock()
	e, ok := f.exprs[text]
	if !ok {
		var err error
		if e, err = queryparse.Parse(text); err != nil {
			panic(fmt.Sprintf("bench: generated query %q does not parse: %v", text, err))
		}
		f.exprs[text] = e
	}
	return op{kind: kQuery, db: db, text: text, expr: e, mode: mode}
}

func update(ups ...wire.UpdateOp) op {
	o := op{kind: kUpdate, ups: ups}
	for _, u := range ups {
		t := make(table.Tuple, len(u.Row))
		for i, cell := range u.Row {
			v, err := value.Parse(cell)
			if err != nil {
				panic(fmt.Sprintf("bench: generated cell %q does not parse: %v", cell, err))
			}
			t[i] = v
		}
		o.muts = append(o.muts, mutation{add: u.Op == "add", rel: u.Rel, t: t})
	}
	return o
}

// sweepTemplates are positive join-project UCQs over R(a,b), S(b,c).  Each
// unions the join with a projection of a base relation, so an anchor tuple
// carrying a null (see anchoredRandom) contributes a constant to every
// world's delta: the running intersection never empties and no sweep exits
// early, whatever the seed.
var sweepTemplates = []string{
	"union(project(join(rename(R; R1; a, b), rename(S; S1; b, c)); a), project(rename(R; R2; a, d); a))",
	"union(project(join(rename(R; R1; a, b), rename(S; S1; b, c)); c), project(rename(S; S2; d, c); c))",
	"union(project(join(rename(R; R1; a, b), rename(S; S1; b, a)); a), project(rename(R; R2; a, d); a))",
}

// anchoredRandom is a complete workload.Random database plus an incomplete
// part of the same shape for every seed, so that the cost of a sweep does
// not depend on how many nulls a seed happened to draw: per relation four
// tuples with a null in the join column and two with a null in the other
// (constants drawn from the seed), three anchor tuples that use each null
// beside a constant no other tuple has, and a filler tuple for any constant
// of the domain the seed left out, which fixes the size of the world set at
// (domain+4)³.
func anchoredRandom(seed int64, tuples, domain int) *table.Database {
	db := workload.Random(workload.RandomConfig{
		Relations:         map[string]int{"R": 2, "S": 2},
		TuplesPerRelation: tuples, DomainSize: domain, Seed: seed,
	})
	c := func(salt, k int) value.Value {
		return value.Int(1 + int64((mix(uint64(seed), uint64(salt))+uint64(k))%uint64(domain)))
	}
	null := func(k int) value.Value { return value.Null(uint64(1 + k%3)) }
	for k := 0; k < 4; k++ {
		db.MustAdd("R", table.NewTuple(c(1, k), null(k)))
		db.MustAdd("S", table.NewTuple(null(k+1), c(2, k)))
	}
	for k := 0; k < 2; k++ {
		db.MustAdd("R", table.NewTuple(null(k+2), c(3, k)))
		db.MustAdd("S", table.NewTuple(c(4, k), null(k)))
	}
	db.MustAdd("R", table.NewTuple(value.Int(int64(domain+1)), value.Null(1)))
	db.MustAdd("S", table.NewTuple(value.Null(2), value.Int(int64(domain+2))))
	db.MustAdd("R", table.NewTuple(value.Int(int64(domain+3)), value.Null(3)))
	consts := db.Consts()
	for v := 1; v <= domain; v++ {
		if !consts[value.Int(int64(v))] {
			db.MustAdd("R", table.NewTuple(value.Int(int64(v)), value.Int(int64(v))))
		}
	}
	return db
}

// --- analytic-warm / analytic-churn -------------------------------------

// catalogTemplates rotate in order; %c and %t are drawn per op from a pool
// of four categories and four tags: 47 distinct texts in all, so the
// 128-entry plan cache holds every one and stays valid after warm-up.
var catalogTemplates = []struct {
	text  string
	reads []string
}{
	{"project(join(Item, Tagged); category, tag)", []string{"Item", "Tagged"}},
	{"diff(project(Item; sku), project(Tagged; sku))", []string{"Item", "Tagged"}},
	{"project(join(select(Item; category = '%c'), Tagged); sku, tag)", []string{"Item", "Tagged"}},
	{"union(project(select(Item; category = '%c'); sku), project(select(Tagged; tag = '%t'); sku))", []string{"Item", "Tagged"}},
	{"intersect(project(Item; sku), project(Tagged; sku))", []string{"Item", "Tagged"}},
	{"project(join(Item, select(Tagged; tag = '%t')); category)", []string{"Item", "Tagged"}},
	{"project(select(Tagged; tag = '%t'); sku)", []string{"Tagged"}},
	{"diff(project(select(Item; category = '%c'); sku), project(select(Tagged; tag = '%t'); sku))", []string{"Item", "Tagged"}},
}

const (
	catalogCategories = 24
	catalogTags       = 40
)

func newCatalogFixture(name string, seed int64, scale float64) *fixture {
	items := scaled(60000, scale, 400)
	f := &fixture{workload: name, exprs: map[string]ra.Expr{}}
	f.dbs = []*table.Database{
		workload.Catalog(workload.CatalogConfig{Items: items, Categories: catalogCategories, Tags: catalogTags, Nulls: 3, NullRate: 0.02, Seed: seed}),
	}
	f.joinKey = map[string][]int{"Item": {0}, "Tagged": {0}}

	template := func(i int) (string, []string) {
		tp := catalogTemplates[i%len(catalogTemplates)]
		h := mix(uint64(seed), 1, uint64(i))
		cat := fmt.Sprintf("cat-%d", (uint64(seed)+5*(h%4))%catalogCategories)
		tag := fmt.Sprintf("tag-%d", (uint64(seed)+7*((h>>8)%4))%catalogTags)
		return strings.NewReplacer("%c", cat, "%t", tag).Replace(tp.text), tp.reads
	}
	// churnRow is the tuple op i adds: a sku no base tuple has, so the add
	// always changes the relation and the matching delete always finds it.
	churnRow := func(rel string, i int) []string {
		h := mix(uint64(seed), 2, uint64(i))
		if rel == "Item" {
			return []string{fmt.Sprintf("sku-c%07d", i), fmt.Sprintf("cat-%d", h%catalogCategories)}
		}
		return []string{fmt.Sprintf("sku-c%07d", i), fmt.Sprintf("tag-%d", h%catalogTags)}
	}
	n := len(catalogTemplates)
	analytic := func(i int) []op {
		text, _ := template(i)
		return []op{f.query(0, text, engine.ModeCertain)}
	}
	// Cycles of the eight templates alternate add and delete: the odd cycle
	// removes what the even cycle's same slot added, in the relation that
	// slot's query reads (alternating per pair of cycles where the query
	// reads both).
	churn := func(i int) []op {
		text, reads := template(i)
		cycle := i / n
		rel := reads[(cycle/2+i)%len(reads)]
		var u wire.UpdateOp
		if cycle%2 == 0 {
			u = srvclient.Add(rel, churnRow(rel, i)...)
		} else {
			u = srvclient.Delete(rel, churnRow(rel, i-n)...)
		}
		return []op{update(u), f.query(0, text, engine.ModeCertain)}
	}
	f.loop, f.cycle, f.instalment, f.readOnly = loopOf(analytic), n, 4*n, true
	if name == "analytic-churn" {
		// Adds for one round of the templates, deletes for the next; the
		// relation written alternates per pair of rounds, so the mix of ops
		// repeats after four.
		f.loop, f.cycle, f.readOnly = loopOf(churn), 2*n, false
		f.verifyEvery = 10
	}
	for i := 0; i < 3*n; i++ {
		f.warm = append(f.warm, analytic(i))
	}
	for i := 0; i < n; i++ {
		text, _ := template(i)
		f.tierQueries = append(f.tierQueries, text)
	}
	return f
}

// --- worlds-sweep ---------------------------------------------------------

// sweepDomain is calibrated so one sweep enumerates (domain+4)³ = 8000
// worlds (the constants 1..domain, three anchors, one fresh constant).
const sweepDomain = 16

func newWorldsFixture(seed int64, scale float64) *fixture {
	f := &fixture{workload: "worlds-sweep", exprs: map[string]ra.Expr{}}
	domain := sweepDomain
	if scale < 1 {
		domain = 4 // the smoke test: 8³ worlds
	}
	const dbs = 4
	for k := 0; k < dbs; k++ {
		f.dbs = append(f.dbs, anchoredRandom(seed*dbs+int64(k), 40, domain))
	}
	f.joinKey = map[string][]int{"R": {1}, "S": {0}}
	f.tierQueries = sweepTemplates
	// Databases rotate fastest, templates next, so consecutive sweeps never
	// share a cached world plan's database.
	sweep := func(i int) []op {
		return []op{f.query(i%dbs, sweepTemplates[(i/dbs)%len(sweepTemplates)], engine.ModeCertainCWA)}
	}
	f.loop, f.cycle = loopOf(sweep), dbs*len(sweepTemplates)
	f.instalment, f.readOnly = f.cycle, true
	for i := 0; i < f.cycle; i++ {
		f.warm = append(f.warm, sweep(i))
	}
	return f
}

// --- server-durable -------------------------------------------------------

const (
	unpaidQ   = "diff(project(Order; o_id), project(Pay; order))"
	pointKeys = 2000 // distinct point-query constants: 128-entry plan cache sees hits and evictions
	zipfS     = 1.1
)

// The server mix is dealt from a deck of ten groups: seven point queries,
// one scan, one write group, one time-travel group.
const (
	gPoint = iota
	gScan
	gWrite
	gAsOf
)

// dealt returns the kind of a client's i-th group.  Each block of ten
// groups is the deck in an order shuffled from the seed, so every block, and
// with it every instalment, holds exactly the same mix: drawn independently,
// the scans of a hundred groups (each worth forty point queries) would swing
// an instalment's rate by a third.
func dealt(seed int64, client, i int) int {
	deck := [10]int{gScan, gWrite, gAsOf} // the rest are gPoint
	for j := len(deck) - 1; j > 0; j-- {
		k := mix(uint64(seed), 9, uint64(client), uint64(i/len(deck)), uint64(j)) % uint64(j+1)
		deck[j], deck[k] = deck[k], deck[j]
	}
	return deck[i%len(deck)]
}

func newOrdersFixture(seed int64, scale float64) *fixture {
	orders := scaled(20000, scale, 400)
	f := &fixture{workload: "server-durable", exprs: map[string]ra.Expr{}}
	db, _ := workload.Orders(workload.OrdersConfig{Orders: orders, PaidFraction: 0.7, NullRate: 0.1, Seed: seed})
	f.dbs = []*table.Database{db}
	f.viewQ = unpaidQ
	f.joinKey = map[string][]int{"Order": {0}, "Pay": {1}}
	f.tierQueries = []string{unpaidQ}
	f.cycle, f.instalment = 1, 100
	f.changesView = func(rel string, t table.Tuple) bool {
		return rel == "Order" && strings.HasPrefix(t[0].String(), "oid-u")
	}

	// Zipf over pointKeys ranks by inverse CDF, so the draw needs no state.
	cdf := make([]float64, pointKeys)
	total := 0.0
	for r := range cdf {
		total += 1 / math.Pow(float64(r+1), zipfS)
		cdf[r] = total
	}
	point := func(h uint64) op {
		u := float64(h>>11) / float64(1<<53) * total
		rank := sort.SearchFloat64s(cdf, u)
		// Spread the ranks over the base orders; base orders are never
		// updated, so a point reply is the same at every commit.
		return f.query(0, fmt.Sprintf("select(Order; o_id = 'oid%d')", (rank*7919)%orders), engine.ModeCertain)
	}
	scan := f.query(0, unpaidQ, engine.ModeCertain)
	// write builds the i-th UPDATE of a client.  The four kinds make the
	// push count checkable from the commit log alone: only "oid-u" orders
	// (kinds 0 and 3) change the unpaid view; a payment with a null order
	// reference and an order inserted together with its payment do not.
	write := func(client, i int) op {
		n := func(j int) int { return 1 + int(mix(uint64(seed), 3, uint64(client), uint64(j))%4) }
		var ups []wire.UpdateOp
		switch i % 4 {
		case 0:
			for k := 0; k < n(i); k++ {
				ups = append(ups, srvclient.Add("Order", fmt.Sprintf("oid-u-%d-%d-%d", client, i, k), "pr-u"))
			}
		case 1:
			for k := 0; k < n(i); k++ {
				null := value.Null(uint64(10000000 + 1000000*client + 4*i + k)).String()
				ups = append(ups, srvclient.Add("Pay", fmt.Sprintf("pid-n-%d-%d-%d", client, i, k), null, "55"))
			}
		case 2:
			for k := 0; k < (n(i)+1)/2; k++ {
				oid := fmt.Sprintf("oid-p-%d-%d-%d", client, i, k)
				ups = append(ups, srvclient.Add("Order", oid, "pr-p"), srvclient.Add("Pay", "pid-p"+oid[5:], oid, "77"))
			}
		case 3:
			for k := 0; k < n(i-3); k++ {
				ups = append(ups, srvclient.Delete("Order", fmt.Sprintf("oid-u-%d-%d-%d", client, i-3, k), "pr-u"))
			}
		}
		return update(ups...)
	}
	// The server mix: 70 % point queries, 10 % each of scans, write groups
	// and time-travel groups (dealt).  Write groups are numbered on their
	// own, so a client's kind-3 write always follows its kind-0 write
	// whatever the deck put in between.
	refresh := op{kind: kRefresh}
	f.loop = func(client int) func() []op {
		i, writes := 0, 0
		return func() []op {
			i++
			h := mix(uint64(seed), 8, uint64(client), uint64(i))
			switch dealt(seed, client, i-1) {
			case gScan:
				return []op{scan}
			case gWrite:
				writes++
				return []op{write(client, writes-1), {kind: kCommit}, refresh}
			case gAsOf:
				return []op{{kind: kAsOf, ref: h >> 8}, point(h), refresh}
			default:
				return []op{point(h)}
			}
		}
	}
	for i := 0; i < 96; i++ {
		f.warm = append(f.warm, []op{point(mix(uint64(seed), 7, uint64(i)))})
	}
	for i := 0; i < 4; i++ {
		f.warm = append(f.warm, []op{scan})
	}
	return f
}
