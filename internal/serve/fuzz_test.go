package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/raslog"
	"repro/internal/store"
)

// fuzzBaseRecords returns a small valid batch used to give the engine
// a nonzero cursor before the fuzzed bodies arrive, so ordering
// rejections are reachable states.
func fuzzBaseRecords() []raslog.Record {
	base := time.Date(2009, 1, 5, 0, 0, 0, 0, time.UTC)
	recs := make([]raslog.Record, 4)
	for i := range recs {
		recs[i] = raslog.Record{
			RecID: int64(i + 1), MsgID: "KERN_0802", Component: raslog.CompKernel,
			ErrCode: "_bgp_unit_test", Severity: raslog.SevFatal,
			EventTime: base.Add(time.Duration(i) * time.Minute),
			Location:  "R00-M0",
		}
	}
	return recs
}

// engineShape is the observable ingest state the atomicity contract
// protects: a rejected batch must leave all of it untouched.
type engineShape struct {
	input, rows, jobs int
	stats             [3]int
	cursor            [2]int64
	// firstFatal is LogStats.FirstFatal's log line ("" without one).
	firstFatal string
}

func shapeOf(e *Engine) engineShape {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, _, rows := e.segs.Counts()
	s := engineShape{
		input:  e.inc.Input(),
		rows:   rows,
		jobs:   len(e.occ.Jobs()),
		stats:  [3]int{e.stats.RASRecords, e.stats.RASBytes, e.stats.FatalRecords},
		cursor: [2]int64{e.lastRecTime, e.lastRecID},
	}
	if e.stats.HasFatal {
		s.firstFatal = e.stats.FirstFatal.MarshalLine()
	}
	return s
}

// FuzzIngestBatch throws arbitrary bodies at both ingest endpoints and
// asserts the service-level contract: no panic, no 5xx, structured
// JSON errors carrying a line number for parse failures, and
// all-or-nothing application — a rejected batch leaves every piece of
// ingest state (cascade input, segment rows, aggregates, cursors)
// exactly as it was, so no partially applied batch can ever leak into
// a published epoch.
// FuzzSegmentSealRestore round-trips arbitrary RAS batches through the
// durability boundary: ingest → seal → persist → recover in a fresh
// engine. The recovered engine must carry the exact ingest state of the
// sealed prefix: the same segment and row counts, and the same rows.
func FuzzSegmentSealRestore(f *testing.F) {
	valid := fuzzBaseRecords()
	var validBody bytes.Buffer
	w := raslog.NewWriter(&validBody)
	for _, r := range valid {
		if err := w.Write(&r); err != nil {
			f.Fatal(err)
		}
	}
	w.Flush()

	// Seeds: a valid batch at several seal budgets (mid-batch seals,
	// exact-budget seals, everything in the unsealed tail), truncations,
	// garbage, the empty stream and a line that is not UTF-8.
	f.Add(validBody.Bytes(), uint8(1))
	f.Add(validBody.Bytes(), uint8(2))
	f.Add(validBody.Bytes(), uint8(4))
	f.Add(validBody.Bytes(), uint8(100))
	f.Add(validBody.Bytes()[:validBody.Len()/2], uint8(1))
	f.Add([]byte("x|M|KERNEL|s|c|FATAL|2008-04-14-15.08.12.285324|f|R00-M0|sn|msg\n"), uint8(1))
	f.Add([]byte(""), uint8(1))
	// A first FATAL record that is not valid UTF-8: the manifest must
	// still restore it byte for byte.
	f.Add([]byte("1|M|KERNEL|s|c|FATAL|2008-04-14-15.08.12.285324|f|R00-M0|sn|m\xffsg\n"), uint8(1))

	f.Fuzz(func(t *testing.T, rasBody []byte, budget uint8) {
		sealRows := int(budget%8) + 1
		dir := t.TempDir()
		eng, err := NewEngine(Config{DataDir: dir, SealRows: sealRows})
		if err != nil {
			t.Fatal(err)
		}
		if recs, err := raslog.NewReader(bytes.NewReader(rasBody)).ReadAll(); err == nil {
			// Out-of-order batches are rejected whole; that is a valid
			// (empty) prefix to recover.
			_ = eng.IngestRAS(recs)
		}
		if err := eng.Seal(); err != nil {
			t.Fatalf("seal: %v", err)
		}
		want := shapeOf(eng)

		// Recover under another seal budget: each persisted segment
		// keeps its own row count.
		re, err := NewEngine(Config{DataDir: dir, SealRows: 1})
		if err != nil {
			t.Fatalf("recovery failed: %v", err)
		}
		if got := shapeOf(re); got != want {
			t.Fatalf("recovered engine state differs from sealed state:\nsealed    %+v\nrecovered %+v", want, got)
		}

		if w, g := segmentView(t, eng), segmentView(t, re); !reflect.DeepEqual(g, w) {
			t.Fatalf("recovered segments differ from the sealed ones:\nsealed    %+v\nrecovered %+v", w, g)
		}
	})
}

// segmentSetView is what a reader can see of an engine's segment set.
type segmentSetView struct {
	segments, sealed, rows int
	stats                  store.ScanStats
	scan                   []store.Row
}

// segmentView scans every row of e's segment set, with its counts.
func segmentView(t *testing.T, e *Engine) segmentSetView {
	e.mu.Lock()
	defer e.mu.Unlock()
	var v segmentSetView
	v.segments, v.sealed, v.rows = e.segs.Counts()
	var err error
	v.stats, err = e.segs.Scan(store.Query{}, func(r store.Row) error {
		v.scan = append(v.scan, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func FuzzIngestBatch(f *testing.F) {
	valid := fuzzBaseRecords()
	var validBody bytes.Buffer
	w := raslog.NewWriter(&validBody)
	for _, r := range valid {
		if err := w.Write(&r); err != nil {
			f.Fatal(err)
		}
	}
	w.Flush()

	// Seeds: a valid batch, truncations and corruptions of it, the line
	// parsers' classic near-misses, job lines POSTed as RAS and vice
	// versa, and ordering violations.
	f.Add(validBody.Bytes(), []byte("1|j1|/bin/app|2009-01-05-00.00.00.000000|2009-01-05-00.10.00.000000|2009-01-05-01.00.00.000000|R00:1|u|p\n"))
	f.Add(validBody.Bytes()[:validBody.Len()/2], []byte(""))
	f.Add([]byte(""), []byte(""))
	f.Add([]byte("x|M|KERNEL|s|c|FATAL|2008-04-14-15.08.12.285324|f|R00-M0|sn|msg\n"), []byte("0|||1|.001|1|R00||\n"))
	f.Add([]byte("1|M|KERNEL|s|c|LOUD|2008-04-14-15.08.12.285324|f|R00-M0|sn|msg\n"), []byte("not|a|job\n"))
	f.Add(bytes.Repeat([]byte("|"), 64), bytes.Repeat([]byte("|"), 64))
	f.Add(append(append([]byte{}, validBody.Bytes()...), validBody.Bytes()...), []byte{0xff, 0xfe, 0x00})
	f.Add([]byte(strings.Repeat("A", 1<<16)+"\n"), []byte(strings.Repeat("A", 1<<16)))

	f.Fuzz(func(t *testing.T, rasBody, jobBody []byte) {
		eng, err := NewEngine(Config{})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.IngestRAS(fuzzBaseRecords()); err != nil {
			t.Fatal(err)
		}
		srv := NewServer(eng)

		for _, c := range []struct {
			path string
			body []byte
		}{
			{"/v1/ingest/ras", rasBody},
			{"/v1/ingest/job", jobBody},
		} {
			before := shapeOf(eng)
			req := httptest.NewRequest(http.MethodPost, c.path, bytes.NewReader(c.body))
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			after := shapeOf(eng)

			switch rec.Code {
			case http.StatusOK:
				var resp struct {
					Accepted int `json:"accepted"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Fatalf("POST %s: 200 body is not JSON: %v: %s", c.path, err, rec.Body.Bytes())
				}
				if c.path == "/v1/ingest/ras" {
					if got := after.stats[0] - before.stats[0]; got != resp.Accepted {
						t.Fatalf("POST %s: accepted %d but record count grew %d", c.path, resp.Accepted, got)
					}
				} else if got := after.jobs - before.jobs; got != resp.Accepted {
					t.Fatalf("POST %s: accepted %d but job count grew %d", c.path, resp.Accepted, got)
				}
			case http.StatusBadRequest, http.StatusConflict:
				if after != before {
					t.Fatalf("POST %s: status %d mutated engine state:\nbefore %+v\nafter  %+v\nbody %s",
						c.path, rec.Code, before, after, rec.Body.Bytes())
				}
				var ae apiError
				if err := json.Unmarshal(rec.Body.Bytes(), &ae); err != nil || ae.Error == "" {
					t.Fatalf("POST %s: status %d without structured error (%v): %s",
						c.path, rec.Code, err, rec.Body.Bytes())
				}
				if rec.Code == http.StatusBadRequest && ae.Line < 1 {
					t.Fatalf("POST %s: parse failure without line number: %s", c.path, rec.Body.Bytes())
				}
			default:
				t.Fatalf("POST %s: unexpected status %d: %s", c.path, rec.Code, rec.Body.Bytes())
			}
		}
	})
}
