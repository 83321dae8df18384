package main

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/joblog"
	"repro/internal/raslog"
	"repro/internal/simulate"
)

// TestLoadServeUnderIngest is the load harness: it drives the daemon
// with a fixed-rate ingest stream while concurrent workers hammer the
// query endpoints, and reports the sustained queries/sec. It is a
// functional test first — every response must be a known status and
// the final quiesced epoch must account for every ingested record —
// and a measurement second (the logged rates feed EXPERIMENTS.md).
func TestLoadServeUnderIngest(t *testing.T) {
	days := 10
	if v := os.Getenv("BGPD_LOAD_DAYS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("BGPD_LOAD_DAYS: bad value %q", v)
		}
		days = n
	}
	camp, err := simulate.Run(simulate.Config{Seed: 31, Days: days, NoisePerFatal: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	recs, jobs := camp.RAS.All(), camp.Jobs.All()

	// Pre-marshal fixed-size wire batches so the ingest loop measures
	// the daemon, not the client's encoder.
	const batchRecords = 128
	var rasBatches, jobBatches [][]byte
	for i := 0; i < len(recs); i += batchRecords {
		var buf bytes.Buffer
		w := raslog.NewWriter(&buf)
		for _, r := range recs[i:min(i+batchRecords, len(recs))] {
			if err := w.Write(&r); err != nil {
				t.Fatal(err)
			}
		}
		w.Flush()
		rasBatches = append(rasBatches, buf.Bytes())
	}
	for i := 0; i < len(jobs); i += batchRecords {
		var buf bytes.Buffer
		w := joblog.NewWriter(&buf)
		for _, j := range jobs[i:min(i+batchRecords, len(jobs))] {
			if err := w.Write(j); err != nil {
				t.Fatal(err)
			}
		}
		w.Flush()
		jobBatches = append(jobBatches, buf.Bytes())
	}

	base, stop := startDaemon(t, "-publish-every", "100ms")
	defer stop()

	// Fixed ingest rate: one batch every tick until the campaign runs
	// out, alternating streams so jobs and RAS advance together. The
	// tick is overridable so the EXPERIMENTS.md rate sweep is one
	// env var: BGPD_LOAD_TICK=2ms go test ./cmd/bgpd -run TestLoad -v
	ingestTick := 10 * time.Millisecond
	if v := os.Getenv("BGPD_LOAD_TICK"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			t.Fatalf("BGPD_LOAD_TICK: %v", err)
		}
		ingestTick = d
	}
	var ingested atomic.Int64
	ingestDone := make(chan struct{})
	go func() {
		defer close(ingestDone)
		tick := time.NewTicker(ingestTick)
		defer tick.Stop()
		ri, ji := 0, 0
		for ri < len(rasBatches) || ji < len(jobBatches) {
			<-tick.C
			if ri < len(rasBatches) {
				postBatch(t, base+"/v1/ingest/ras", rasBatches[ri])
				ingested.Add(int64(bytes.Count(rasBatches[ri], []byte("\n"))))
				ri++
			}
			if ji < len(jobBatches) {
				postBatch(t, base+"/v1/ingest/job", jobBatches[ji])
				ingested.Add(int64(bytes.Count(jobBatches[ji], []byte("\n"))))
				ji++
			}
		}
	}()

	// Query workers: rotate through every read endpoint until ingest
	// finishes. 503 (before first epoch) and 409 (unrenderable early
	// fragment) are legitimate early answers; anything else but 200 is
	// a failure.
	paths := []string{
		"/v1/epoch", "/healthz",
		"/v1/query/rates", "/v1/query/mtbf", "/v1/query/interruptions", "/v1/query/vulnerability",
		"/v1/report/t1", "/v1/report/obs1",
	}
	const workers = 8
	var queries, errors atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; ; i++ {
				select {
				case <-ingestDone:
					return
				default:
				}
				resp, err := http.Get(base + paths[i%len(paths)])
				if err != nil {
					errors.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK, http.StatusConflict, http.StatusServiceUnavailable:
					queries.Add(1)
				default:
					errors.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	if n := errors.Load(); n > 0 {
		t.Errorf("%d queries failed outright", n)
	}
	postBatch(t, base+"/v1/quiesce", nil)
	var sum epochSummary
	getJSON(t, base+"/v1/epoch", &sum)
	if sum.RASRecords != len(recs) || sum.Jobs != len(jobs) {
		t.Errorf("quiesced epoch saw %d records, %d jobs; ingested %d, %d",
			sum.RASRecords, sum.Jobs, len(recs), len(jobs))
	}

	qps := float64(queries.Load()) / elapsed.Seconds()
	ips := float64(ingested.Load()) / elapsed.Seconds()
	t.Logf("load: %d workers, %.0f records/sec ingest rate -> %.0f queries/sec over %.2fs (%d queries)",
		workers, ips, qps, elapsed.Seconds(), queries.Load())
}

func postBatch(t *testing.T, url string, body []byte) {
	t.Helper()
	resp, err := http.Post(url, "text/plain", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, b)
	}
}
