package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro"
	"repro/internal/joblog"
	"repro/internal/raslog"
	"repro/internal/simulate"
)

func marshalRAS(t testing.TB, recs []raslog.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := raslog.NewWriter(&buf)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func marshalJobs(t testing.TB, jobs []joblog.Job) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := joblog.NewWriter(&buf)
	for _, j := range jobs {
		if err := w.Write(j); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func post(t testing.TB, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "text/plain", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func get(t testing.TB, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestServeMatchesBatch is the serve-vs-batch equivalence gate: a
// campaign is POSTed to a live server in randomized batches while
// query goroutines hammer every endpoint (run it under -race — `make
// race` does); after quiescing, every report fragment must be
// byte-identical to the batch pipeline's render of the same logs.
func TestServeMatchesBatch(t *testing.T) {
	camp, err := simulate.Run(simulate.Config{Seed: 5, Days: 12, NoisePerFatal: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	rasAll := camp.RAS.All()
	jobsAll := camp.Jobs.All()

	// Batch reference over the identical byte streams.
	ref, err := repro.Load(repro.Config{},
		bytes.NewReader(marshalRAS(t, rasAll)), bytes.NewReader(marshalJobs(t, jobsAll)))
	if err != nil {
		t.Fatal(err)
	}

	eng, err := NewEngine(Config{SealRows: 512})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(eng))
	defer ts.Close()

	// Query hammer: every read endpoint, continuously, while ingest and
	// publications run. Readers only require coherent responses (one of
	// the expected statuses, parseable bodies) — byte equality is
	// checked after quiescing.
	paths := append([]string{"/v1/epoch", "/healthz", "/v1/report/t1", "/v1/report/obs1", "/v1/report/f3"},
		func() []string {
			var qs []string
			for _, q := range QueryNames() {
				qs = append(qs, "/v1/query/"+q)
			}
			return qs
		}()...)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := g // stagger the endpoints per goroutine
			for {
				select {
				case <-done:
					return
				default:
				}
				url := ts.URL + paths[i%len(paths)]
				i++
				resp, err := http.Get(url)
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				switch resp.StatusCode {
				case http.StatusOK, http.StatusConflict, http.StatusServiceUnavailable:
				default:
					t.Errorf("GET %s: unexpected status %d: %s", url, resp.StatusCode, body)
					return
				}
			}
		}(g)
	}

	// Ingest the campaign in randomized batches, publishing every so
	// often mid-stream (early publications may 409 on an empty job log).
	rng := rand.New(rand.NewSource(42))
	ri, ji, batches := 0, 0, 0
	for ri < len(rasAll) || ji < len(jobsAll) {
		if ji >= len(jobsAll) || (ri < len(rasAll) && rng.Intn(2) == 0) {
			n := 1 + rng.Intn(400)
			if ri+n > len(rasAll) {
				n = len(rasAll) - ri
			}
			if status, body := post(t, ts.URL+"/v1/ingest/ras", marshalRAS(t, rasAll[ri:ri+n])); status != http.StatusOK {
				t.Fatalf("ingest/ras: status %d: %s", status, body)
			}
			ri += n
		} else {
			n := 1 + rng.Intn(50)
			if ji+n > len(jobsAll) {
				n = len(jobsAll) - ji
			}
			if status, body := post(t, ts.URL+"/v1/ingest/job", marshalJobs(t, jobsAll[ji:ji+n])); status != http.StatusOK {
				t.Fatalf("ingest/job: status %d: %s", status, body)
			}
			ji += n
		}
		if batches++; batches%40 == 0 {
			if status, body := post(t, ts.URL+"/v1/publish", nil); status != http.StatusOK && status != http.StatusConflict {
				t.Fatalf("publish: status %d: %s", status, body)
			}
		}
	}

	status, body := post(t, ts.URL+"/v1/quiesce", nil)
	if status != http.StatusOK {
		t.Fatalf("quiesce: status %d: %s", status, body)
	}
	close(done)
	wg.Wait()

	var sum EpochSummary
	if err := json.Unmarshal(body, &sum); err != nil {
		t.Fatalf("quiesce summary: %v", err)
	}
	if sum.RASRecords != len(rasAll) || sum.Jobs != len(jobsAll) {
		t.Fatalf("quiesced epoch saw %d records / %d jobs, want %d / %d",
			sum.RASRecords, sum.Jobs, len(rasAll), len(jobsAll))
	}

	// Byte-identical report fragments. The one artifact that re-runs
	// the cascade over the raw store ("sweep") is structurally
	// unavailable to a streaming report and must say so.
	for name, render := range repro.Artifacts() {
		status, got := get(t, ts.URL+"/v1/report/"+name)
		if name == "sweep" {
			if status != http.StatusConflict {
				t.Errorf("report/sweep: status %d, want %d (streaming reports retain no raw store)", status, http.StatusConflict)
			}
			continue
		}
		var want bytes.Buffer
		if err := render(ref, &want); err != nil {
			if status != http.StatusConflict {
				t.Errorf("report/%s: batch render fails (%v) but serve status is %d", name, err, status)
			}
			continue
		}
		if status != http.StatusOK {
			t.Errorf("report/%s: status %d: %s", name, status, got)
			continue
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("report/%s: quiesced fragment differs from batch output (%d vs %d bytes)",
				name, len(got), want.Len())
		}
	}

	// Query payloads carry the quiesced epoch and parse cleanly.
	for _, q := range QueryNames() {
		status, got := get(t, ts.URL+"/v1/query/"+q)
		if status != http.StatusOK {
			t.Fatalf("query/%s: status %d: %s", q, status, got)
		}
		var m map[string]any
		if err := json.Unmarshal(got, &m); err != nil {
			t.Fatalf("query/%s: %v", q, err)
		}
		if got := m["epoch"].(float64); uint64(got) != sum.Epoch {
			t.Fatalf("query/%s: epoch %v, want %d", q, got, sum.Epoch)
		}
	}
}

// TestIngestBatchAtomicity pins all-or-nothing ingest: a batch with an
// internal ordering violation is rejected without any of its records
// (even the valid prefix) reaching the engine.
func TestIngestBatchAtomicity(t *testing.T) {
	camp, err := simulate.Run(simulate.Config{Seed: 9, Days: 4, NoisePerFatal: 0})
	if err != nil {
		t.Fatal(err)
	}
	recs := camp.RAS.All()
	if len(recs) < 10 {
		t.Fatalf("campaign too small: %d records", len(recs))
	}
	eng, err := NewEngine(Config{})
	if err != nil {
		t.Fatal(err)
	}

	// Valid prefix, then a regression in the same batch.
	bad := append(append([]raslog.Record(nil), recs[:5]...), recs[2])
	err = eng.IngestRAS(bad)
	oe, ok := err.(*OrderError)
	if !ok {
		t.Fatalf("IngestRAS(disordered) error = %v, want *OrderError", err)
	}
	if oe.Stream != "ras" || oe.Index != 5 {
		t.Fatalf("OrderError = %+v, want stream ras index 5", oe)
	}
	if !strings.Contains(oe.Error(), "nothing was applied") {
		t.Fatalf("OrderError text %q does not state atomicity", oe.Error())
	}
	if got := eng.inc.Input(); got != 0 {
		t.Fatalf("cascade saw %d records after a rejected batch, want 0", got)
	}
	if _, _, rows := eng.segs.Counts(); eng.stats.RASRecords != 0 || rows != 0 {
		t.Fatalf("engine state perturbed by rejected batch: %+v rows=%d", eng.stats, rows)
	}

	// The same records in order are accepted afterwards.
	if err := eng.IngestRAS(recs); err != nil {
		t.Fatal(err)
	}
	fatal := 0
	for i := range recs {
		if recs[i].Fatal() {
			fatal++
		}
	}
	if got := eng.inc.Input(); got != fatal {
		t.Fatalf("cascade saw %d fatals, want %d", got, fatal)
	}

	// Jobs: same contract.
	jobs := camp.Jobs.All()
	badJobs := append(append([]joblog.Job(nil), jobs[:3]...), jobs[0])
	if _, ok := eng.IngestJobs(badJobs).(*OrderError); !ok {
		t.Fatalf("IngestJobs(disordered) did not return *OrderError")
	}
	if len(eng.jobs) != 0 {
		t.Fatalf("%d jobs applied from rejected batch, want 0", len(eng.jobs))
	}
	if err := eng.IngestJobs(jobs); err != nil {
		t.Fatal(err)
	}
	if len(eng.jobs) != len(jobs) {
		t.Fatalf("%d jobs applied, want %d", len(eng.jobs), len(jobs))
	}
}

// TestPublishBeforeJobs pins the pre-first-epoch behavior: publishing
// with no jobs fails cleanly and leaves no epoch.
func TestPublishBeforeJobs(t *testing.T) {
	eng, err := NewEngine(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Publish(); err == nil {
		t.Fatal("Publish() on an empty engine succeeded, want error")
	}
	if ep := eng.Epoch(); ep != nil {
		t.Fatalf("failed publish left epoch %d", ep.Seq)
	}
}

// TestPublishIfChangedSkipsIdle checks the periodic publisher's rule:
// with nothing ingested or sealed since the current epoch it keeps that
// epoch (same sequence, same pointer); an ingest batch or a seal makes
// the next call publish, and Publish always publishes.
func TestPublishIfChangedSkipsIdle(t *testing.T) {
	camp, err := simulate.Run(simulate.Config{Seed: 9, Days: 4, NoisePerFatal: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	recs, jobs := camp.RAS.All(), camp.Jobs.All()
	eng, err := NewEngine(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.PublishIfChanged(); err == nil {
		t.Fatal("PublishIfChanged on an empty engine succeeded, want Publish's error")
	}
	half := len(recs) / 2
	if err := eng.IngestRAS(recs[:half]); err != nil {
		t.Fatal(err)
	}
	if err := eng.IngestJobs(jobs[:len(jobs)/2]); err != nil {
		t.Fatal(err)
	}
	step := func(name string, wantPublished bool, wantSeq uint64) {
		t.Helper()
		before := eng.Epoch()
		ep, err := eng.PublishIfChanged()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if published := ep != before; published != wantPublished || ep.Seq != wantSeq || eng.Epoch() != ep {
			t.Fatalf("%s: published %v epoch %d, want %v epoch %d", name, published, ep.Seq, wantPublished, wantSeq)
		}
	}
	step("first", true, 1)
	step("idle", false, 1)
	step("idle again", false, 1)
	if err := eng.IngestRAS(nil); err != nil {
		t.Fatal(err)
	}
	step("empty batch", false, 1)
	if err := eng.IngestRAS(recs[half:]); err != nil {
		t.Fatal(err)
	}
	step("after RAS", true, 2)
	if err := eng.IngestJobs(jobs[len(jobs)/2:]); err != nil {
		t.Fatal(err)
	}
	step("after jobs", true, 3)
	step("idle at the end", false, 3)
	if err := eng.Seal(); err != nil {
		t.Fatal(err)
	}
	step("after seal", true, 4)
	if ep, err := eng.Publish(); err != nil || ep.Seq != 5 {
		t.Fatalf("forced Publish: epoch %v, %v; want 5", ep, err)
	}
	step("idle after forced", false, 5)
}

// TestPublishIfChangedSkipsFailedRetry pins that a failed publication is
// not retried while nothing changes: with RAS records but no job log
// every analysis attempt fails, so only the first PublishIfChanged may
// attempt one (and report its error); the rest return no epoch and no
// error. Publish still always attempts, and the first job batch makes
// the next periodic call publish.
func TestPublishIfChangedSkipsFailedRetry(t *testing.T) {
	camp, err := simulate.Run(simulate.Config{Seed: 9, Days: 4, NoisePerFatal: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.IngestRAS(camp.RAS.All()); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.PublishIfChanged(); err == nil {
		t.Fatal("first PublishIfChanged without jobs succeeded, want the analysis error")
	}
	for i := 0; i < 3; i++ {
		if ep, err := eng.PublishIfChanged(); ep != nil || err != nil {
			t.Fatalf("idle call %d after a failed attempt: epoch %v, err %v; want no attempt", i, ep, err)
		}
	}
	if _, err := eng.Publish(); err == nil {
		t.Fatal("forced Publish without jobs succeeded, want the analysis error")
	}
	if err := eng.IngestJobs(camp.Jobs.All()); err != nil {
		t.Fatal(err)
	}
	if ep, err := eng.PublishIfChanged(); err != nil || ep == nil || ep.Seq != 1 {
		t.Fatalf("PublishIfChanged after the jobs arrived: epoch %v, err %v; want epoch 1", ep, err)
	}
}
