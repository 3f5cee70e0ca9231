// Command incserver serves one CSV data directory to many concurrent
// sessions over the incdata wire protocol (internal/server/wire): a
// long-lived process owning one engine, with per-session snapshot
// isolation, version history (ASOF time travel), server-side maintained
// views with subscription delta pushes, and admission control.
//
// The data directory uses any layout cmd/incq accepts: flat CSV files
// (history starts empty at the loaded state), versioned state
// subdirectories (the loaded history's commits are ASOF-addressable by
// directory name), or a durable store directory as written by
// `incq -persist` — commits made over the wire then append to its log
// and survive server restarts.  Clients connect with `incq -connect`, or
// any program speaking the wire protocol:
//
//	incserver -data ./testdata -addr 127.0.0.1:7070
//	incq -connect 127.0.0.1:7070 -mode certain 'project(Order; o_id)'
//
// SIGINT/SIGTERM shut the server down gracefully: in-flight requests
// finish and their replies flush before sockets close.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"incdata/internal/dataload"
	"incdata/internal/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "incserver:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("incserver", flag.ExitOnError)
	dataDir := fs.String("data", ".", "directory of <Relation>.csv files, or of versioned state subdirectories")
	addr := fs.String("addr", "127.0.0.1:7070", "listen address (host:port; port 0 picks a free port)")
	maxSessions := fs.Int("max-sessions", 0, "concurrent session cap (0 = default)")
	maxInflight := fs.Int("max-inflight", 0, "concurrent request cap across sessions (0 = default)")
	timeout := fs.Duration("timeout", 0, "how long a request may wait for an execution slot before BUSY (0 = default)")
	workers := fs.Int("workers", 0, "default per-world enumeration pool size for requests that set none (0 = GOMAXPROCS)")
	maxFrame := fs.Int("max-frame", 0, "wire frame payload cap in bytes; clients must dial with the same cap (0 = default 1 MiB)")
	fs.Parse(args)

	eng, versioned, err := dataload.Load(*dataDir)
	if err != nil {
		return err
	}
	defer eng.Close() // release the durable store's log handle, if attached
	srv, err := server.New(eng, server.Config{
		MaxSessions:    *maxSessions,
		MaxInflight:    *maxInflight,
		RequestTimeout: *timeout,
		Workers:        *workers,
		MaxFrame:       *maxFrame,
	})
	if err != nil {
		return err
	}
	bound, err := srv.Listen(*addr)
	if err != nil {
		return err
	}
	layout := "flat"
	if versioned {
		layout = "versioned"
	}
	if eng.Durable() {
		layout = "durable"
	}
	fmt.Printf("incserver: serving %s (%s) on %s\n", *dataDir, layout, bound)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("incserver: shutting down (draining in-flight requests)")
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		return fmt.Errorf("drain timed out after 30s")
	}
}
