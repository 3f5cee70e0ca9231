// Command incq evaluates a relational-algebra query over CSV relations
// through the engine facade, under any of the evaluation modes the library
// implements:
//
//	naive           naïve evaluation (nulls as values), raw answer
//	certain         naïve evaluation + null stripping (sound for positive/RAcwa)
//	certain-cwa     intersection-based certain answers by CWA world enumeration
//	certain-owa     intersection-based certain answers over the OWA world set
//	certain-object  certainO: the GLB of the answer set (Section 5.3)
//
// The data directory must contain one <Relation>.csv file per relation, with
// a header row of attribute names and ⊥i / NULL markers for nulls.
//
// # Version history
//
// A data directory whose entries are subdirectories of CSV states (one
// database state per subdirectory, applied in sorted name order) is loaded
// as a commit history: the first state is the root commit and every
// further state commits its net tuple diff, each commit tagged with its
// directory name.  Queries then evaluate at the head by default, or at any
// historical commit with -as-of; -log prints the commit log and -diff
// prints the net change between two commits (both work without a query):
//
//	incq -data ./versioned -log
//	incq -data ./versioned -as-of v2 'project(Order; o_id)'
//	incq -data ./versioned -diff v1..v3
//
// Commits are referenced by id, unique id prefix, or directory name.
//
// # Durable stores
//
// -persist converts a data directory into a durable store (internal/
// store): content-addressed chunks plus an append-only commit log holding
// the full history.  A -data pointing at such a store opens it directly —
// -log, -diff and -as-of work against the recovered history:
//
//	incq -data ./versioned -persist ./store
//	incq -data ./store -as-of v2 'project(Order; o_id)'
//
// # Remote mode
//
// With -connect the query is evaluated by a running incserver instead of
// local data: the CLI becomes one session of the multi-session server,
// and -as-of pins that session to a historical commit of the server's
// history before evaluating.  -data, -log and -diff do not apply:
//
//	incq -connect 127.0.0.1:7070 -mode certain 'project(Order; o_id)'
//	incq -connect 127.0.0.1:7070 -as-of v2 'project(Order; o_id)'
//
// Exit codes distinguish failure classes: 2 for parse errors (bad flags,
// unknown mode, malformed query, malformed -diff spec — locally or as
// classified by the server), 1 for data and evaluation errors (including
// unknown commit references, history flags on an unversioned directory,
// and server-side evaluation or admission failures).
//
// Example:
//
//	incq -data ./data -mode certain 'diff(project(Order; o_id), project(Pay; order))'
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"incdata/internal/dataload"
	"incdata/internal/engine"
	"incdata/internal/queryparse"
	"incdata/internal/ra"
	"incdata/internal/server/client"
	"incdata/internal/server/wire"
	"incdata/internal/table"
	"incdata/internal/version"
)

// errParse marks failures to understand the invocation — flag errors,
// unknown modes, query syntax — as opposed to data and evaluation errors.
// main maps it to exit code 2, everything else to 1.
var errParse = errors.New("parse error")

// exitCode classifies an error from run.
func exitCode(err error) int {
	if err == nil {
		return 0
	}
	if errors.Is(err, errParse) {
		return 2
	}
	return 1
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "incq:", err)
		os.Exit(exitCode(err))
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("incq", flag.ContinueOnError)
	fs.SetOutput(io.Discard) // errors are reported (and classified) by main
	dataDir := fs.String("data", ".", "directory of <Relation>.csv files, or of versioned state subdirectories")
	mode := fs.String("mode", "certain", "evaluation mode: naive | certain | certain-cwa | certain-owa | certain-object")
	planner := fs.String("planner", "on", "evaluation path: on (query planner) or off (naïve-evaluation oracle)")
	extraFresh := fs.Int("fresh", 1, "fresh constants for world enumeration (certain-cwa/-owa/-object)")
	maxWorlds := fs.Int("max-worlds", 1<<20, "abort world enumeration when more valuations would be needed")
	workers := fs.Int("workers", 0, "intra-query worker budget: morsel-parallel evaluation and world enumeration (0 = serial plans and GOMAXPROCS world workers, 1 = serial)")
	parallel := fs.Bool("parallel", false, "use all CPUs for plans and world enumeration (overrides an explicit -workers)")
	connect := fs.String("connect", "", "evaluate on a running incserver at host:port instead of local data")
	asOf := fs.String("as-of", "", "evaluate at a historical commit (id, unique prefix, or state-directory name)")
	showLog := fs.Bool("log", false, "print the commit log of a versioned data directory")
	diffSpec := fs.String("diff", "", "print the net change between two commits, as <a>..<b>")
	persist := fs.String("persist", "", "write the loaded data and its history into a fresh durable store directory")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(os.Stderr)
			fs.Usage()
			return nil
		}
		return fmt.Errorf("%w: %v", errParse, err)
	}
	// -log, -diff and -persist are reports/conversions and need no query;
	// everything else wants exactly one.
	queryOptional := *showLog || *diffSpec != "" || *persist != ""
	if fs.NArg() != 1 && !(fs.NArg() == 0 && queryOptional) {
		return fmt.Errorf("%w: expected exactly one query argument, got %d", errParse, fs.NArg())
	}

	m, err := engine.ParseMode(*mode)
	if err != nil {
		return fmt.Errorf("%w: %v", errParse, err)
	}
	ps, err := engine.ParsePlanner(*planner)
	if err != nil {
		return fmt.Errorf("%w: %v", errParse, err)
	}
	var diffA, diffB string
	if *diffSpec != "" {
		a, b, ok := strings.Cut(*diffSpec, "..")
		if !ok || a == "" || b == "" {
			return fmt.Errorf("%w: -diff wants <a>..<b>, got %q", errParse, *diffSpec)
		}
		diffA, diffB = a, b
	}
	var expr ra.Expr
	if fs.NArg() == 1 {
		expr, err = queryparse.Parse(fs.Arg(0))
		if err != nil {
			return fmt.Errorf("%w: %v", errParse, err)
		}
	}

	if *connect != "" {
		if *showLog || *diffSpec != "" || *persist != "" {
			return fmt.Errorf("%w: -log, -diff and -persist are not available with -connect", errParse)
		}
		if expr == nil {
			return fmt.Errorf("%w: -connect needs a query", errParse)
		}
		w := *workers
		if *parallel {
			w = runtime.GOMAXPROCS(0)
		}
		return runRemote(*connect, *asOf, fs.Arg(0), *mode, *planner, w, expr)
	}

	eng, versioned, err := dataload.Load(*dataDir)
	if err != nil {
		return err
	}
	defer eng.Close() // release the durable store's log handle, if attached
	historyWanted := *asOf != "" || *showLog || *diffSpec != ""
	if historyWanted && !versioned {
		return fmt.Errorf("history flags need a versioned data directory (state subdirectories of CSV files); %s has none", *dataDir)
	}

	if *persist != "" {
		if eng.Durable() {
			return fmt.Errorf("%s is already a durable store", *dataDir)
		}
		if err := eng.Persist(*persist); err != nil {
			return err
		}
		fmt.Printf("persisted %s to %s\n", *dataDir, *persist)
	}

	if *showLog {
		log, err := eng.Log()
		if err != nil {
			return err
		}
		for _, c := range log {
			extra := ""
			if len(c.Parents) > 1 {
				extra = fmt.Sprintf("  (merges %s)", c.Parents[1])
			}
			fmt.Printf("%s  %s  (+%d -%d)%s\n", c.ID, c.Message, insertedCount(c), deletedCount(c), extra)
		}
	}
	if *diffSpec != "" {
		a, err := eng.ResolveCommit(diffA)
		if err != nil {
			return err
		}
		b, err := eng.ResolveCommit(diffB)
		if err != nil {
			return err
		}
		cs, err := eng.DiffVersions(a, b)
		if err != nil {
			return err
		}
		fmt.Printf("diff %s..%s\n%s", a, b, cs)
	}
	if expr == nil {
		return nil
	}

	opts := engine.Options{
		Mode:       m,
		Planner:    ps,
		ExtraFresh: *extraFresh,
		MaxWorlds:  *maxWorlds,
		Workers:    *workers,
	}
	if *parallel {
		opts.Workers = runtime.GOMAXPROCS(0)
	}

	fmt.Printf("query: %s\n", expr)
	fmt.Printf("fragment: %s\n", ra.Classify(expr))
	fmt.Printf("naïve evaluation sound for certain answers: owa=%v cwa=%v\n",
		ra.NaiveEvalSound(expr, false), ra.NaiveEvalSound(expr, true))

	rel, err := evalMaybeAsOf(eng, *asOf, expr, opts)
	if err != nil {
		return err
	}
	fmt.Println(rel.String())
	if ps != engine.PlannerOff && (m == engine.ModeNaive || m == engine.ModeCertain) {
		if plan, err := eng.Explain(expr); err == nil {
			fmt.Printf("plan:\n%s", plan)
		}
	}
	return nil
}

// runRemote evaluates the query as one session of a running incserver,
// pinning the session to the -as-of commit first when one is given.
// Server-side parse classifications keep the local exit-code convention.
func runRemote(addr, asOf, query, mode, planner string, workers int, expr ra.Expr) error {
	cl, err := client.Dial(addr)
	if err != nil {
		return remoteErr(err)
	}
	defer cl.Close()

	fmt.Printf("query: %s\n", expr)
	fmt.Printf("fragment: %s\n", ra.Classify(expr))
	fmt.Printf("server: %s\n", cl.Banner)

	if asOf != "" {
		id, err := cl.AsOf(asOf)
		if err != nil {
			return remoteErr(err)
		}
		fmt.Printf("as of: %s\n", id)
	}
	resp, err := cl.Query(query, mode, planner, workers)
	if err != nil {
		return remoteErr(err)
	}
	rows := make([]string, len(resp.Rows))
	for i, row := range resp.Rows {
		rows[i] = "(" + strings.Join(row, ", ") + ")"
	}
	fmt.Printf("columns: %s\n", strings.Join(resp.Columns, ", "))
	fmt.Println("answer{" + strings.Join(rows, ", ") + "}")
	cl.Quit()
	return nil
}

// remoteErr maps a server error reply onto the CLI's exit-code classes:
// the server's parse and protocol codes mean the request itself was
// malformed (exit 2), everything else is an evaluation failure (exit 1).
func remoteErr(err error) error {
	var re *client.RemoteError
	if errors.As(err, &re) && (re.Code == wire.CodeParse || re.Code == wire.CodeProto) {
		return fmt.Errorf("%w: %s", errParse, re.Msg)
	}
	return err
}

// evalMaybeAsOf evaluates at the head, or at the -as-of commit when given.
func evalMaybeAsOf(eng *engine.Engine, asOf string, expr ra.Expr, opts engine.Options) (*table.Relation, error) {
	if asOf == "" {
		return eng.Eval(expr, opts)
	}
	id, err := eng.ResolveCommit(asOf)
	if err != nil {
		return nil, err
	}
	snap, err := eng.AsOf(id)
	if err != nil {
		return nil, err
	}
	fmt.Printf("as of: %s\n", id)
	return snap.Eval(expr, opts)
}

func insertedCount(c *version.Commit) int {
	n := 0
	for _, d := range c.Delta.Rels {
		n += len(d.Inserted)
	}
	return n
}

func deletedCount(c *version.Commit) int {
	n := 0
	for _, d := range c.Delta.Rels {
		n += len(d.Deleted)
	}
	return n
}
