// Command ecfdserver runs eCFD violation detection as a long-running
// HTTP/JSON service: register a schema and constraint set once per
// session, then load data, detect, apply incremental updates, probe
// candidate tuples and stream violations over the wire. See
// internal/server for the protocol.
//
// Usage:
//
//	ecfdserver [-addr :8080] [-workers N] [-queue N] [-timeout 30s]
//
// The process exits cleanly on SIGINT/SIGTERM: the listener stops
// accepting, in-flight requests drain (bounded), sessions close and
// their engines release.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ecfd/internal/server"
)

// errUsage is run's answer to a command line it could not accept; the
// reason has been printed by then.
var errUsage = errors.New("usage: ecfdserver [-addr :8080] [-workers N] [-queue N] [-timeout 30s]")

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	err := run(ctx, os.Args[1:], func(addr net.Addr) { log.Printf("ecfdserver listening on %s", addr) })
	if errors.Is(err, errUsage) {
		os.Exit(2)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// run is the whole process: parse args, listen, call ready with the
// bound address, serve until ctx is done, then stop accepting, drain
// the in-flight requests (bounded) and close every session. It returns
// once the serving goroutine has exited.
func run(ctx context.Context, args []string, ready func(net.Addr)) error {
	fs := flag.NewFlagSet("ecfdserver", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "concurrent data-path requests (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 0, "admission queue depth (0 = 4x workers)")
	timeout := fs.Duration("timeout", 30*time.Second, "default per-request deadline")
	maxTimeout := fs.Duration("max-timeout", 5*time.Minute, "cap on the ?timeout= override")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return nil
	} else if err != nil {
		return errUsage
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, errUsage)
		return errUsage
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	srv := server.New(server.Options{
		Workers:        *workers,
		QueueDepth:     *queue,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
	})
	defer srv.Close()
	httpSrv := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}
	ready(ln.Addr())

	served := make(chan error, 1)
	go func() { served <- httpSrv.Serve(ln) }()

	select {
	case <-ctx.Done():
		log.Printf("shutting down")
		shCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shCtx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		<-served // http.ErrServerClosed, as soon as Shutdown was called
		return nil
	case err := <-served:
		return fmt.Errorf("serve: %w", err)
	}
}
