// Command bgpd is the co-analysis daemon: it ingests RAS and job log
// records continuously — from files loaded at startup, from growing
// files followed tail -f style, and from POSTed line batches — keeps
// the filter cascade and the paper's analyses up to date
// incrementally, and serves the results over HTTP/JSON from immutable
// published epochs, so queries never block ingest and every response
// is consistent with exactly one publication.
//
// Usage:
//
//	bgpd -addr :8080 -ras ras.log -job job.log            # load then serve
//	bgpd -addr :8080 -ras ras.log -job job.log -follow    # tail growing logs
//	bgpd -addr :8080 -data /var/lib/bgpd                  # durable segments
//
// Endpoints (see README.md for examples):
//
//	POST /v1/ingest/ras   POST /v1/ingest/job   POST /v1/seal
//	POST /v1/publish      POST /v1/quiesce
//	GET  /v1/epoch        GET  /v1/query/{name} GET  /v1/report/{name}
//	GET  /v1/scan         GET  /healthz
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/joblog"
	"repro/internal/raslog"
	"repro/internal/serve"
)

// followBatch bounds how many tailed records accumulate before they
// are pushed into the engine even if the flush ticker has not fired.
const followBatch = 256

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bgpd:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bgpd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", ":8080", "HTTP listen address")
		dataDir      = fs.String("data", "", "directory for durable sealed segments (empty = in-memory only)")
		rasP         = fs.String("ras", "", "RAS log to ingest at startup (and follow with -follow)")
		jobP         = fs.String("job", "", "job log to ingest at startup (and follow with -follow)")
		follow       = fs.Bool("follow", false, "keep tailing -ras/-job for appended records")
		publishEvery = fs.Duration("publish-every", 5*time.Second, "how often to publish a fresh epoch")
		sealRecords  = fs.Int("seal-records", 4096, "filtered rows per durable segment")
		poll         = fs.Duration("poll", 0, "tail poll interval for -follow (0 = default)")
		flushEvery   = fs.Duration("flush-every", time.Second, "max latency before tailed records are ingested")
		memBudget    = fs.Int64("mem-budget", 0, "resident column budget in bytes; sealed segments past it drop their resident copy and are read from their -data files on demand (0 = keep everything resident; requires -data)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *memBudget > 0 && *dataDir == "" {
		return errors.New("-mem-budget requires -data (spilled segments live there)")
	}

	eng, err := serve.NewEngine(serve.Config{DataDir: *dataDir, SealRows: *sealRecords, MemBudget: *memBudget})
	if err != nil {
		return err
	}

	var wg sync.WaitGroup
	if *rasP != "" {
		f, err := os.Open(*rasP)
		if err != nil {
			return err
		}
		defer f.Close()
		if *follow {
			wg.Add(1)
			go func() {
				defer wg.Done()
				followRAS(ctx, eng, f, *poll, *flushEvery, stderr)
			}()
		} else if err := loadRAS(eng, f); err != nil {
			return fmt.Errorf("load %s: %w", *rasP, err)
		}
	}
	if *jobP != "" {
		f, err := os.Open(*jobP)
		if err != nil {
			return err
		}
		defer f.Close()
		if *follow {
			wg.Add(1)
			go func() {
				defer wg.Done()
				followJobs(ctx, eng, f, *poll, *flushEvery, stderr)
			}()
		} else if err := loadJobs(eng, f); err != nil {
			return fmt.Errorf("load %s: %w", *jobP, err)
		}
	}
	// Publish whatever the startup load produced so queries work
	// immediately; an empty engine has nothing to publish yet.
	if _, err := eng.Publish(); err != nil && ctx.Err() == nil {
		fmt.Fprintln(stderr, "bgpd: initial publish:", err)
	}

	// Periodic publication: tailed and POSTed records become visible to
	// queries at this cadence at the latest (POST /v1/publish forces it).
	// A tick with nothing ingested or sealed since the current epoch
	// leaves that epoch in place.
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(*publishEvery)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				if _, err := eng.PublishIfChanged(); err != nil {
					fmt.Fprintln(stderr, "bgpd: publish:", err)
				}
			}
		}
	}()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The resolved address line is the startup handshake: with -addr :0
	// it is the only way to learn the port.
	fmt.Fprintf(stdout, "bgpd: listening on %s\n", ln.Addr())

	srv := &http.Server{Handler: serve.NewServer(eng)}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			fmt.Fprintln(stderr, "bgpd: shutdown:", err)
		}
		wg.Wait()
		// Final seal: commit the in-memory tail so a restart against
		// -data resumes from everything ingested, not the last auto-seal.
		if err := eng.Seal(); err != nil {
			return fmt.Errorf("final seal: %w", err)
		}
		fmt.Fprintln(stdout, "bgpd: stopped")
		return nil
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}

// rasIngester is the engine's RAS ingest entry point.
type rasIngester interface {
	IngestRAS(recs []raslog.Record) error
}

// loadRAS bulk-ingests a complete RAS log. The engine's streaming
// contract wants (EventTime, RecID) order, but a complete file is all
// here already — sort it like the batch tools effectively do, then
// feed bounded batches.
func loadRAS(eng rasIngester, r io.Reader) error {
	rd := raslog.NewReader(r)
	recs, err := rd.ReadAll()
	if err != nil {
		return fmt.Errorf("line %d: %w", rd.Line(), err)
	}
	raslog.SortStable(recs)
	for i := 0; i < len(recs); i += followBatch {
		if err := eng.IngestRAS(recs[i:min(i+followBatch, len(recs))]); err != nil {
			return err
		}
	}
	return nil
}

// loadJobs bulk-ingests a complete job log, sorted into the engine's
// (EndTime, ID) ingest order.
func loadJobs(eng *serve.Engine, r io.Reader) error {
	rd := joblog.NewReader(r)
	jobs, err := rd.ReadAll()
	if err != nil {
		return fmt.Errorf("line %d: %w", rd.Line(), err)
	}
	joblog.SortStable(jobs)
	for i := 0; i < len(jobs); i += followBatch {
		if err := eng.IngestJobs(jobs[i:min(i+followBatch, len(jobs))]); err != nil {
			return err
		}
	}
	return nil
}

// followRAS tails a growing RAS log until ctx is cancelled, ingesting
// records in batches bounded by size (followBatch) and latency
// (flushEvery). Decode runs on its own goroutine because the tail
// reader blocks at end of input by design.
func followRAS(ctx context.Context, eng *serve.Engine, f io.Reader, poll, flushEvery time.Duration, stderr io.Writer) {
	rd := raslog.NewTailReader(ctx, f, poll)
	recc := make(chan raslog.Record, followBatch)
	go func() {
		defer close(recc)
		for rd.Next() {
			recc <- *rd.Record()
		}
		if err := rd.Err(); err != nil {
			fmt.Fprintf(stderr, "bgpd: ras tail: line %d: %v (stream abandoned)\n", rd.Line(), err)
		}
	}()
	var batch []raslog.Record
	flush := func() {
		if len(batch) == 0 {
			return
		}
		// The writer appends in event order but breaks same-timestamp
		// ties arbitrarily; restore the engine's (EventTime, RecID)
		// order within the batch.
		raslog.SortStable(batch)
		if err := eng.IngestRAS(batch); err != nil {
			fmt.Fprintf(stderr, "bgpd: ras tail: %v (%d records dropped)\n", err, len(batch))
		}
		batch = nil
	}
	tick := time.NewTicker(flushEvery)
	defer tick.Stop()
	for {
		select {
		case rec, ok := <-recc:
			if !ok {
				flush()
				return
			}
			batch = append(batch, rec)
			if len(batch) >= followBatch {
				flush()
			}
		case <-tick.C:
			flush()
		}
	}
}

// followJobs is followRAS for the job log.
func followJobs(ctx context.Context, eng *serve.Engine, f io.Reader, poll, flushEvery time.Duration, stderr io.Writer) {
	rd := joblog.NewTailReader(ctx, f, poll)
	jobc := make(chan joblog.Job, followBatch)
	go func() {
		defer close(jobc)
		for rd.Next() {
			jobc <- *rd.Job()
		}
		if err := rd.Err(); err != nil {
			fmt.Fprintf(stderr, "bgpd: job tail: line %d: %v (stream abandoned)\n", rd.Line(), err)
		}
	}()
	var batch []joblog.Job
	flush := func() {
		if len(batch) == 0 {
			return
		}
		joblog.SortStable(batch)
		if err := eng.IngestJobs(batch); err != nil {
			fmt.Fprintf(stderr, "bgpd: job tail: %v (%d jobs dropped)\n", err, len(batch))
		}
		batch = nil
	}
	tick := time.NewTicker(flushEvery)
	defer tick.Stop()
	for {
		select {
		case job, ok := <-jobc:
			if !ok {
				flush()
				return
			}
			batch = append(batch, job)
			if len(batch) >= followBatch {
				flush()
			}
		case <-tick.C:
			flush()
		}
	}
}
