package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/raslog"
	"repro/internal/simulate"
	"repro/internal/store"
)

// TestSpillEquivalence is the serve-side bounded-memory gate: the same
// campaign is ingested into a fully resident engine and into one whose
// MemBudget forces most sealed segments onto disk, while scan
// goroutines hammer /v1/scan on the spilling engine (run under -race —
// `make race` does). After quiescing, every report fragment and every
// window profile must be identical across the two engines, and the
// spilling engine must actually have spilled.
func TestSpillEquivalence(t *testing.T) {
	camp, err := simulate.Run(simulate.Config{Seed: 21, Days: 12, NoisePerFatal: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	rasAll := camp.RAS.All()
	jobsAll := camp.Jobs.All()

	resident, err := NewEngine(Config{SealRows: 128, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	// Budget of two segments' worth of rows: every older seal spills.
	budget := int64(2 * 128 * 32)
	spDir := t.TempDir()
	spilling, err := NewEngine(Config{SealRows: 128, DataDir: spDir, MemBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(spilling))
	defer ts.Close()

	// Scan hammer against the spilling engine while it ingests and
	// spills: responses must stay coherent (200s with parseable bodies).
	done := make(chan struct{})
	var wg sync.WaitGroup
	windows := []string{
		"",
		"?from=" + rasAll[0].EventTime.UTC().Format(time.RFC3339),
		"?to=" + rasAll[len(rasAll)/2].EventTime.UTC().Format(time.RFC3339),
		"?code=" + rasAll[0].ErrCode,
		"?loc=nowhere",
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := g
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/v1/scan" + windows[i%len(windows)])
				i++
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
				if resp.StatusCode != http.StatusOK {
					t.Errorf("scan: status %d: %s", resp.StatusCode, body)
					return
				}
				var p scanPayload
				if err := json.Unmarshal(body, &p); err != nil {
					t.Errorf("scan payload: %v", err)
					return
				}
			}
		}(g)
	}

	rng := rand.New(rand.NewSource(8))
	ri, ji := 0, 0
	for ri < len(rasAll) || ji < len(jobsAll) {
		if ji >= len(jobsAll) || (ri < len(rasAll) && rng.Intn(2) == 0) {
			n := 1 + rng.Intn(300)
			if ri+n > len(rasAll) {
				n = len(rasAll) - ri
			}
			batch := rasAll[ri : ri+n]
			if err := resident.IngestRAS(batch); err != nil {
				t.Fatal(err)
			}
			if err := spilling.IngestRAS(batch); err != nil {
				t.Fatal(err)
			}
			ri += n
		} else {
			n := 1 + rng.Intn(40)
			if ji+n > len(jobsAll) {
				n = len(jobsAll) - ji
			}
			batch := jobsAll[ji : ji+n]
			if err := resident.IngestJobs(batch); err != nil {
				t.Fatal(err)
			}
			if err := spilling.IngestJobs(batch); err != nil {
				t.Fatal(err)
			}
			ji += n
		}
	}
	close(done)
	wg.Wait()

	epR, err := resident.Quiesce()
	if err != nil {
		t.Fatal(err)
	}
	epS, err := spilling.Quiesce()
	if err != nil {
		t.Fatal(err)
	}
	var sumR, sumS EpochSummary
	if err := json.Unmarshal(epR.Summary(), &sumR); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(epS.Summary(), &sumS); err != nil {
		t.Fatal(err)
	}
	if sumR.RASRecords != len(rasAll) || sumS.RASRecords != len(rasAll) {
		t.Fatalf("epochs saw %d / %d records, want %d", sumR.RASRecords, sumS.RASRecords, len(rasAll))
	}

	// The budget must have done real work.
	// Every sealed segment has a committed file, so count what the set
	// holds resident, not the files: after the quiesce every row is
	// sealed, and a spill leaves fewer rows resident than there are.
	spilling.mu.Lock()
	residentBytes := spilling.segs.ResidentBytes()
	_, _, rows := spilling.segs.Counts()
	spilling.mu.Unlock()
	if residentBytes >= int64(rows)*store.RowBytes {
		t.Fatalf("MemBudget engine spilled nothing: %d of %d rows resident", residentBytes/store.RowBytes, rows)
	}
	if residentBytes > budget {
		t.Fatalf("resident payload %d bytes exceeds budget %d after quiesce", residentBytes, budget)
	}

	// Identical report fragments, spilled or not: epoch analysis runs off
	// the cascade's event snapshot, which spilling never touches.
	for name := range repro.Artifacts() {
		want, errR := epR.Fragment(name)
		got, errS := epS.Fragment(name)
		if (errR == nil) != (errS == nil) {
			t.Errorf("report/%s: resident err %v, spilling err %v", name, errR, errS)
			continue
		}
		if errR == nil && !bytes.Equal(want, got) {
			t.Errorf("report/%s: spilling output differs from resident (%d vs %d bytes)",
				name, len(got), len(want))
		}
	}

	// Identical window profiles, with the spilling engine answering some
	// of them from reloaded segment files.
	mid := rasAll[len(rasAll)/2].EventTime
	cfgs := []core.WindowConfig{
		{},
		{To: mid},
		{From: mid},
		{Code: rasAll[0].ErrCode},
		{Loc: "nowhere"},
	}
	for i, cfg := range cfgs {
		wantP, _, err := resident.ScanWindow(cfg)
		if err != nil {
			t.Fatal(err)
		}
		gotP, stats, err := spilling.ScanWindow(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wantP, gotP) {
			t.Errorf("window %d: profile differs:\nresident %+v\nspilling %+v", i, wantP, gotP)
		}
		if cfg.Loc == "nowhere" && stats.Scanned != 0 {
			t.Errorf("window %d: %d segments scanned for an absent location", i, stats.Scanned)
		}
	}
}

// TestMemBudgetRequiresDataDir pins the config validation: a budget
// with nowhere to spill is a construction-time error, not a runtime
// surprise.
func TestMemBudgetRequiresDataDir(t *testing.T) {
	if _, err := NewEngine(Config{MemBudget: 1}); err == nil {
		t.Fatal("NewEngine accepted MemBudget without DataDir")
	}
}

// TestScanWindowFilters scans a set holding spilled, resident sealed
// and unsealed rows with a code, a location and an absent code, and
// requires each profile to equal a naive filter over the ingested
// FATAL records. The skip counts are pinned, and a naive partition of
// those records into segments agrees with them: every segment without
// a matching row, the unsealed tail included, is refuted by its zone
// map alone.
func TestScanWindowFilters(t *testing.T) {
	const sealRows = 128
	camp, err := simulate.Run(simulate.Config{Seed: 21, Days: 12, NoisePerFatal: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	recs := camp.RAS.All()
	dir := t.TempDir()
	// A budget of one segment: every seal spills all but the newest.
	eng, err := NewEngine(Config{SealRows: sealRows, DataDir: dir, MemBudget: sealRows * store.RowBytes})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(recs); i += 100 {
		if err := eng.IngestRAS(recs[i:min(i+100, len(recs))]); err != nil {
			t.Fatal(err)
		}
	}
	var fatal []raslog.Record
	for _, r := range recs {
		if r.Fatal() {
			fatal = append(fatal, r)
		}
	}
	// Every sealed segment has a committed file, so count resident rows,
	// not the files. Each seal here is an auto-seal of sealRows rows.
	segments, sealed, rows := eng.segs.Counts()
	tail := rows - sealed*sealRows
	residentSealed := int(eng.segs.ResidentBytes()/store.RowBytes) - tail
	if rows != len(fatal) || residentSealed >= sealed*sealRows || residentSealed <= 0 || tail <= 0 || segments != sealed+1 {
		t.Fatalf("%d rows in %d segments (%d sealed, %d sealed rows resident, %d unsealed); want every FATAL record (%d) "+
			"and a spilled, a resident sealed and an unsealed segment", rows, segments, sealed, residentSealed, tail, len(fatal))
	}

	cases := []struct {
		cfg     core.WindowConfig
		skipped int
	}{
		{core.WindowConfig{Code: fatal[len(fatal)/2].ErrCode}, 3},
		{core.WindowConfig{Loc: fatal[0].Location}, 10},
		{core.WindowConfig{Code: "_bgp_no_such_code"}, segments},
	}
	for _, c := range cases {
		match := func(r raslog.Record) bool {
			return (c.cfg.Code == "" || r.ErrCode == c.cfg.Code) && (c.cfg.Loc == "" || r.Location == c.cfg.Loc)
		}
		var want core.WindowProfiler
		naiveSkipped := 0
		for lo := 0; lo < len(fatal); lo += sealRows {
			hit := false
			for _, r := range fatal[lo:min(lo+sealRows, len(fatal))] {
				if match(r) {
					hit = true
					want.Observe(store.Row{RecID: r.RecID, TimeNS: r.EventTime.UnixNano(), Code: r.ErrCode, Loc: r.Location,
						Comp: int32(r.Component), Sev: int32(r.Severity)})
				}
			}
			if !hit {
				naiveSkipped++
			}
		}
		got, stats, err := eng.ScanWindow(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want.Profile()) {
			t.Errorf("%+v: profile %+v, naive filter %+v", c.cfg, got, want.Profile())
		}
		if stats.Segments != segments || stats.Skipped != c.skipped || stats.Skipped != naiveSkipped ||
			stats.Scanned != segments-stats.Skipped {
			t.Errorf("%+v: scan stats %+v; want %d segments, %d skipped (naive partition: %d)",
				c.cfg, stats, segments, c.skipped, naiveSkipped)
		}
	}
}
