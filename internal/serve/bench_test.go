package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/joblog"
	"repro/internal/raslog"
	"repro/internal/simulate"
)

// The bench fixture simulates one campaign and pre-marshals it into
// the wire bodies the ingest benchmarks POST, so the benchmarks
// measure the serve path (HTTP dispatch, parse, cascade feed, segment
// append) and not campaign generation.
var (
	benchOnce sync.Once
	benchFix  struct {
		rasBatches [][]byte
		jobBatches [][]byte
		rasRecs    int
		err        error
	}
)

const benchBatchRecords = 256

func benchBatches(b *testing.B) ([][]byte, [][]byte) {
	b.Helper()
	benchOnce.Do(func() {
		camp, err := simulate.Run(simulate.Config{Seed: 3, Days: 20, NoisePerFatal: 0.5})
		if err != nil {
			benchFix.err = err
			return
		}
		recs := camp.RAS.All()
		benchFix.rasRecs = len(recs)
		for i := 0; i < len(recs); i += benchBatchRecords {
			var buf bytes.Buffer
			w := raslog.NewWriter(&buf)
			for _, r := range recs[i:min(i+benchBatchRecords, len(recs))] {
				if err := w.Write(&r); err != nil {
					benchFix.err = err
					return
				}
			}
			w.Flush()
			benchFix.rasBatches = append(benchFix.rasBatches, buf.Bytes())
		}
		jobs := camp.Jobs.All()
		for i := 0; i < len(jobs); i += benchBatchRecords {
			var buf bytes.Buffer
			w := joblog.NewWriter(&buf)
			for _, j := range jobs[i:min(i+benchBatchRecords, len(jobs))] {
				if err := w.Write(j); err != nil {
					benchFix.err = err
					return
				}
			}
			w.Flush()
			benchFix.jobBatches = append(benchFix.jobBatches, buf.Bytes())
		}
	})
	if benchFix.err != nil {
		b.Fatal(benchFix.err)
	}
	return benchFix.rasBatches, benchFix.jobBatches
}

func benchServer(b *testing.B) *Server {
	b.Helper()
	eng, err := NewEngine(Config{SealRows: 4096})
	if err != nil {
		b.Fatal(err)
	}
	return NewServer(eng)
}

func benchPost(b *testing.B, srv *Server, path string, body []byte) {
	b.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("POST %s: status %d: %s", path, rec.Code, rec.Body.Bytes())
	}
}

// BenchmarkServeIngest measures the cost of one POSTed ingest batch
// through the full server path. Ordering cursors forbid replaying the
// same batch, so the benchmark cycles through the campaign and swaps
// in a fresh engine (off the clock) whenever the campaign is spent.
func BenchmarkServeIngest(b *testing.B) {
	ras, jobs := benchBatches(b)
	srv := benchServer(b)
	ri, ji := 0, 0
	records := 0
	// Collect garbage only between ops, off the clock: every collection
	// empties the sync.Pools the HTTP path draws from (fmt,
	// encoding/json, net/textproto), and their refills make allocs/op
	// differ between samples, which the bgpbench gate rejects.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if ri == len(ras) {
			srv = benchServer(b)
			ri, ji = 0, 0
		}
		runtime.GC()
		b.StartTimer()
		benchPost(b, srv, "/v1/ingest/ras", ras[ri])
		records += bytes.Count(ras[ri], []byte("\n"))
		ri++
		if ji < len(jobs) {
			benchPost(b, srv, "/v1/ingest/job", jobs[ji])
			records += bytes.Count(jobs[ji], []byte("\n"))
			ji++
		}
	}
	b.ReportMetric(float64(records)/float64(b.N), "records/op")
}

// BenchmarkServeQuery measures concurrent read throughput against one
// published epoch: every op is a GET across the query endpoints plus a
// rendered report fragment, the mix a dashboard poller generates.
func BenchmarkServeQuery(b *testing.B) {
	ras, jobs := benchBatches(b)
	srv := benchServer(b)
	for _, batch := range ras {
		benchPost(b, srv, "/v1/ingest/ras", batch)
	}
	for _, batch := range jobs {
		benchPost(b, srv, "/v1/ingest/job", batch)
	}
	benchPost(b, srv, "/v1/quiesce", nil)

	paths := append([]string{}, "/v1/epoch", "/v1/report/t1")
	for _, q := range QueryNames() {
		paths = append(paths, "/v1/query/"+q)
	}
	var next atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			path := paths[next.Add(1)%uint64(len(paths))]
			req := httptest.NewRequest(http.MethodGet, path, nil)
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("GET %s: status %d: %s", path, rec.Code, rec.Body.Bytes())
			}
		}
	})
}
