// Durability: persist an engine to a content-addressed store, commit over
// it, crash mid-append, and recover.  The delta algebra that drives
// incremental maintenance is also the write-ahead log: every commit
// appends one CRC-framed record to log.bin, relation contents live in
// sha256-keyed chunks shared across commits, and Open replays the log's
// valid prefix — a torn tail from a crash is truncated, landing the
// engine on the last fully appended commit with the whole history (and
// time travel) intact.
package main

import (
	"fmt"
	"os"
	"path/filepath"

	"incdata/internal/engine"
	"incdata/internal/ra"
	"incdata/internal/table"
	"incdata/internal/version"
	"incdata/internal/workload"
)

func main() {
	dir, err := os.MkdirTemp("", "incdata-durable-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	storeDir := filepath.Join(dir, "store")

	// A small orders database with one unknown: which order pid1 paid for.
	db := table.NewDatabase(workload.OrdersSchema())
	db.MustAddRow("Order", "oid1", "pr1")
	db.MustAddRow("Order", "oid2", "pr2")
	db.MustAddRow("Pay", "pid1", "⊥1", "100")
	eng := engine.New(db)

	// Persist: the store directory gets a chunk store and a commit log;
	// from here on every commit is durable.
	must(eng.Persist(storeDir))
	fmt.Printf("persisted to %s\n", storeDir)

	// Two durable commits: a new order, then the null refined to oid1.
	must(eng.Update(func(db *table.Database) error {
		return db.Add("Order", table.MustParseTuple("oid3", "pr3"))
	}))
	c1, err := eng.Commit("add oid3")
	must(err)
	must(eng.Update(func(db *table.Database) error {
		db.Relation("Pay").Remove(table.MustParseTuple("pid1", "⊥1", "100"))
		return db.Add("Pay", table.MustParseTuple("pid1", "oid1", "100"))
	}))
	c2, err := eng.Commit("payment was for oid1")
	must(err)
	must(eng.Close())

	// Crash: a power cut mid-append leaves a torn record at the log tail.
	log, err := os.OpenFile(filepath.Join(storeDir, "log.bin"), os.O_APPEND|os.O_WRONLY, 0o644)
	must(err)
	_, err = log.Write([]byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad}) // half a frame header
	must(err)
	must(log.Close())
	fmt.Println("simulated crash: torn record appended to log.bin")

	// Recovery: Open truncates the torn tail and replays the valid prefix.
	eng2, err := engine.Open(storeDir)
	must(err)
	defer eng2.Close()
	_, head, err := eng2.Head()
	must(err)
	fmt.Printf("reopened at head %s (crash lost nothing committed: head == c2 is %v)\n", head, head == c2)

	// Time travel runs against the recovered history exactly as in memory.
	unpaid := ra.Diff{
		Left:  ra.Rename{Input: ra.Project{Input: ra.Base("Order"), Attrs: []string{"o_id"}}, As: "O", Attrs: []string{"id"}},
		Right: ra.Rename{Input: ra.Project{Input: ra.Base("Pay"), Attrs: []string{"order"}}, As: "P", Attrs: []string{"id"}},
	}
	certain := engine.Options{Mode: engine.ModeCertain}
	for _, at := range []struct {
		label string
		id    version.CommitID
	}{{"after adding oid3", c1}, {"after refining ⊥1→oid1", c2}} {
		snap, err := eng2.AsOf(at.id)
		must(err)
		r, err := snap.Eval(unpaid, certain)
		must(err)
		fmt.Printf("unpaid %-24s %v\n", at.label+":", r)
	}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
