package serve

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/joblog"
	"repro/internal/raslog"
	"repro/internal/simulate"
	"repro/internal/store"
)

// campaignStreams returns a simulated campaign's records and jobs
// after one marshal/parse round trip, so the on-disk persistence round
// trip inside the engine is idempotent relative to the test input.
func campaignStreams(t *testing.T, seed int64, days int) ([]raslog.Record, []joblog.Job) {
	t.Helper()
	camp, err := simulate.Run(simulate.Config{Seed: seed, Days: days, NoisePerFatal: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := raslog.NewReader(bytes.NewReader(marshalRAS(t, camp.RAS.All()))).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := joblog.NewReader(bytes.NewReader(marshalJobs(t, camp.Jobs.All()))).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return recs, jobs
}

// checkEnginesEqual publishes both engines and requires identical
// epoch summaries, query payloads and report fragments.
func checkEnginesEqual(t *testing.T, label string, got, want *Engine) {
	t.Helper()
	gotEp, gotErr := got.Publish()
	wantEp, wantErr := want.Publish()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: publish errors diverge: got %v, want %v", label, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if !bytes.Equal(gotEp.Summary(), wantEp.Summary()) {
		t.Fatalf("%s: epoch summaries differ:\n got: %s\nwant: %s", label, gotEp.Summary(), wantEp.Summary())
	}
	for _, q := range QueryNames() {
		g, _ := gotEp.Query(q)
		w, _ := wantEp.Query(q)
		if !bytes.Equal(g, w) {
			t.Errorf("%s: query %s differs:\n got: %s\nwant: %s", label, q, g, w)
		}
	}
	for _, name := range gotEp.FragmentNames() {
		g, gerr := gotEp.Fragment(name)
		w, werr := wantEp.Fragment(name)
		if (gerr == nil) != (werr == nil) {
			t.Errorf("%s: fragment %s errors diverge: got %v, want %v", label, name, gerr, werr)
			continue
		}
		if !bytes.Equal(g, w) {
			t.Errorf("%s: fragment %s differs (%d vs %d bytes)", label, name, len(g), len(w))
		}
	}
}

// TestRecoveryEqualsUninterrupted kills an engine mid-segment and
// requires the recovered engine to equal a fresh engine that ingested
// exactly the committed (sealed) prefix — the unsealed tail is the
// only loss.
func TestRecoveryEqualsUninterrupted(t *testing.T) {
	recs, jobs := campaignStreams(t, 11, 8)
	dir := t.TempDir()

	// cut marks the committed prefix: everything before it is ingested
	// and explicitly sealed; everything after is ingested but never
	// sealed (the mid-segment tail a crash loses).
	rasCut, jobCut := 2*len(recs)/3, 2*len(jobs)/3

	eng1, err := NewEngine(Config{DataDir: dir, SealRows: 128})
	if err != nil {
		t.Fatal(err)
	}
	feed := func(e *Engine, upToRAS, upToJob int) {
		t.Helper()
		// Interleave in fixed-size batches so auto-seals land at the
		// same rows for every engine fed the same prefix.
		for i := 0; i < upToRAS; i += 200 {
			end := min(i+200, upToRAS)
			if err := e.IngestRAS(recs[i:end]); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < upToJob; i += 150 {
			end := min(i+150, upToJob)
			if err := e.IngestJobs(jobs[i:end]); err != nil {
				t.Fatal(err)
			}
		}
	}
	feed(eng1, rasCut, jobCut)
	if err := eng1.Seal(); err != nil {
		t.Fatal(err)
	}
	// The doomed tail: ingested, acknowledged in memory, never sealed.
	if err := eng1.IngestRAS(recs[rasCut:]); err != nil {
		t.Fatal(err)
	}
	if err := eng1.IngestJobs(jobs[jobCut:]); err != nil {
		t.Fatal(err)
	}
	// Crash: eng1 is abandoned without Seal or shutdown.

	eng2, err := NewEngine(Config{DataDir: dir, SealRows: 128})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	ref, err := NewEngine(Config{SealRows: 128})
	if err != nil {
		t.Fatal(err)
	}
	feed(ref, rasCut, jobCut)
	// Match eng1's explicit pre-crash Seal so segment boundaries (and
	// thus epoch summaries) line up; without a DataDir this only closes
	// the active segment.
	if err := ref.Seal(); err != nil {
		t.Fatal(err)
	}
	checkEnginesEqual(t, "recovered vs uninterrupted", eng2, ref)

	// The recovered engine keeps ingesting from its cursor: replaying
	// the tail must be accepted and produce the full-campaign state.
	full, err := NewEngine(Config{SealRows: 128})
	if err != nil {
		t.Fatal(err)
	}
	feed(full, len(recs), len(jobs))
	// eng2 lost the tail, so its cursor admits the tail records again.
	if err := eng2.IngestRAS(recs[rasCut:]); err != nil {
		t.Fatal(err)
	}
	if err := eng2.IngestJobs(jobs[jobCut:]); err != nil {
		t.Fatal(err)
	}
	// eng2's explicit seal happened at the cut, so its segment
	// boundaries differ from full's; compare the analyses via their
	// report fragments, which see events, not segments.
	gotEp, err := eng2.Publish()
	if err != nil {
		t.Fatal(err)
	}
	wantEp, err := full.Publish()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"t1", "t2", "t3", "t4", "pipeline", "obs1", "t6"} {
		g, gerr := gotEp.Fragment(name)
		w, werr := wantEp.Fragment(name)
		if (gerr == nil) != (werr == nil) || !bytes.Equal(g, w) {
			t.Errorf("resumed ingest: fragment %s diverges (err %v vs %v)", name, gerr, werr)
		}
	}
}

// TestRecoverySealFaults injects persistence faults at every step of
// the seal write path and checks that (a) a failed seal surfaces as an
// error without corrupting the committed prefix, (b) recovery sees
// only committed segments, and (c) retrying the seal succeeds and
// commits everything.
func TestRecoverySealFaults(t *testing.T) {
	recs, jobs := campaignStreams(t, 13, 6)
	for _, failStep := range []string{"seg", "job", "manifest"} {
		t.Run(failStep, func(t *testing.T) {
			dir := t.TempDir()
			failing := true
			eng, err := NewEngine(Config{
				DataDir:  dir,
				SealRows: 1 << 20, // no auto-seals; the test drives sealing
				SealHook: func(step string) error {
					if failing && step == failStep {
						return errors.New("injected fault at " + step)
					}
					return nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			half := len(recs) / 2
			if err := eng.IngestRAS(recs[:half]); err != nil {
				t.Fatal(err)
			}
			if err := eng.IngestJobs(jobs[:half]); err != nil {
				t.Fatal(err)
			}
			err = eng.Seal()
			if err == nil || !strings.Contains(err.Error(), "injected fault") {
				t.Fatalf("Seal with %s fault: err = %v, want injected fault", failStep, err)
			}

			// Recovery must see no committed segment: the manifest is
			// the commit record and was never written.
			if _, err := os.Stat(filepath.Join(dir, "seg-000000.json")); !os.IsNotExist(err) {
				t.Fatalf("manifest exists after failed seal (stat err %v)", err)
			}
			crashed, err := NewEngine(Config{DataDir: dir, SealRows: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			if got := crashed.inc.Input(); got != 0 {
				t.Fatalf("recovery after failed seal found %d cascade records, want 0", got)
			}

			// The live engine is not corrupted: the seal stays queued
			// and a retry (fault cleared) commits it.
			failing = false
			if err := eng.Seal(); err != nil {
				t.Fatalf("retry Seal: %v", err)
			}
			recovered, err := NewEngine(Config{DataDir: dir, SealRows: 1 << 20})
			if err != nil {
				t.Fatalf("recovery after retried seal: %v", err)
			}
			ref, err := NewEngine(Config{SealRows: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.IngestRAS(recs[:half]); err != nil {
				t.Fatal(err)
			}
			if err := ref.IngestJobs(jobs[:half]); err != nil {
				t.Fatal(err)
			}
			// Close the reference's active segment so both sides publish
			// the same sealed-segment census.
			if err := ref.Seal(); err != nil {
				t.Fatal(err)
			}
			checkEnginesEqual(t, "after retried seal", recovered, ref)
		})
	}
}

// TestRecoveryEmptyDir pins that a data directory with no committed
// segments recovers to an empty engine.
func TestRecoveryEmptyDir(t *testing.T) {
	eng, err := NewEngine(Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if eng.inc.Input() != 0 || len(eng.occ.Jobs()) != 0 {
		t.Fatalf("empty-dir recovery produced state: %d records, %d jobs", eng.inc.Input(), len(eng.occ.Jobs()))
	}
}

// TestRecoveryIgnoresOrphanSegment crashes a seal after its segment
// file is committed but before its manifest: recovery must ignore the
// orphan seg-000000.seg, and the recovered engine's next seal must
// overwrite it with its own segment 0.
func TestRecoveryIgnoresOrphanSegment(t *testing.T) {
	recs, jobs := campaignStreams(t, 13, 6)
	dir := t.TempDir()
	half := len(recs) / 2
	doomed, err := NewEngine(Config{
		DataDir:  dir,
		SealRows: 1 << 20,
		SealHook: func(step string) error {
			if step == "job" {
				return errors.New("injected fault at job")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := doomed.IngestRAS(recs[:half]); err != nil {
		t.Fatal(err)
	}
	if err := doomed.Seal(); err == nil {
		t.Fatal("Seal with a job fault succeeded")
	}
	orphan, err := os.ReadFile(filepath.Join(dir, "seg-000000.seg"))
	if err != nil {
		t.Fatalf("no orphan segment file after the failed seal: %v", err)
	}

	eng, err := NewEngine(Config{DataDir: dir, SealRows: 1 << 20})
	if err != nil {
		t.Fatalf("recovery with an orphan segment: %v", err)
	}
	if _, sealed, _ := eng.segs.Counts(); eng.inc.Input() != 0 || sealed != 0 {
		t.Fatalf("recovery read the orphan: %d cascade records, %d sealed segments", eng.inc.Input(), sealed)
	}
	if err := eng.IngestRAS(recs[half:]); err != nil {
		t.Fatal(err)
	}
	if err := eng.IngestJobs(jobs); err != nil {
		t.Fatal(err)
	}
	if err := eng.Seal(); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(filepath.Join(dir, "seg-000000.seg")); err != nil || bytes.Equal(b, orphan) {
		t.Fatalf("the next seal did not overwrite the orphan segment file (err %v)", err)
	}

	recovered, err := NewEngine(Config{DataDir: dir, SealRows: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewEngine(Config{SealRows: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.IngestRAS(recs[half:]); err != nil {
		t.Fatal(err)
	}
	if err := ref.IngestJobs(jobs); err != nil {
		t.Fatal(err)
	}
	if err := ref.Seal(); err != nil {
		t.Fatal(err)
	}
	checkEnginesEqual(t, "after overwriting the orphan", recovered, ref)
}

// TestRecoveryRefusesOldLayout pins the documented refusal of a data
// dir written in checkpoint format 1 (FATAL rows as seg-N.ras text, a
// manifest without a format number): recovery fails with an error that
// names the directory and says to re-ingest, and migrates nothing.
func TestRecoveryRefusesOldLayout(t *testing.T) {
	dir := t.TempDir()
	old := map[string]string{
		"seg-000000.ras":  "1|KERN_0802|KERNEL|s|_bgp_unit_test|FATAL|2009-01-05-00.00.00.000000|f|R00-M0|sn|msg\n",
		"seg-000000.job":  "",
		"seg-000000.json": `{"seq": 0, "rows": 1, "job_count": 0, "ras_records": 1, "fatal_records": 1}` + "\n",
	}
	for name, body := range old {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, err := NewEngine(Config{DataDir: dir})
	if err == nil {
		t.Fatal("recovery accepted an old-layout data dir")
	}
	for _, want := range []string{dir, "checkpoint format 1", "seg-N.ras", "re-ingest"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "seg-000000.seg")); !os.IsNotExist(err) {
		t.Errorf("refused recovery wrote a segment file (stat err %v)", err)
	}
}

// TestRecoveryRefusesFlippedColumnBit flips one bit of the time column
// in a committed segment file. The header CRC and the file size still
// check out, so only the columns CRC can catch it: recovery must refuse
// to start, naming the file, rather than replay the altered row.
func TestRecoveryRefusesFlippedColumnBit(t *testing.T) {
	recs, jobs := campaignStreams(t, 13, 6)
	dir := t.TempDir()
	eng, err := NewEngine(Config{DataDir: dir, SealRows: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.IngestRAS(recs); err != nil {
		t.Fatal(err)
	}
	if err := eng.IngestJobs(jobs); err != nil {
		t.Fatal(err)
	}
	if err := eng.Seal(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "seg-000000.seg")
	sf, err := store.OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	rows := int64(sf.Rows())
	if err := sf.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The columns section is the file's last rows*RowBytes bytes before
	// the closing CRC; RecID comes first, then Time. Flip the lowest bit
	// of the last row's time: the rows stay in (Time, RecID) order.
	colOff := int64(len(b)) - rows*store.RowBytes - 4
	b[colOff+8*rows+8*(rows-1)] ^= 1
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = NewEngine(Config{DataDir: dir, SealRows: 1 << 20})
	if err == nil {
		t.Fatal("recovery replayed a segment whose time column has a flipped bit")
	}
	for _, want := range []string{path, "columns checksum"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestRecoverySealJobFiles feeds jobs across three seals, restarts the
// engine after the first, fails the second seal's job write and retries
// it only after the third batch has arrived: each seg-N.job must hold
// exactly the jobs accepted between its seal and the one before, and
// recovery must equal an engine that ingested everything.
func TestRecoverySealJobFiles(t *testing.T) {
	recs, jobs := campaignStreams(t, 13, 6)
	failing := false
	cfg := Config{
		DataDir:  t.TempDir(),
		SealRows: 1 << 20, // no auto-seals; the test drives sealing
		SealHook: func(step string) error {
			if failing && step == "job" {
				return errors.New("injected fault at job")
			}
			return nil
		},
	}
	dir := cfg.DataDir
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	third := func(xs int, k int) (int, int) { return xs * k / 3, xs * (k + 1) / 3 }
	ingest := func(k int) {
		rlo, rhi := third(len(recs), k)
		jlo, jhi := third(len(jobs), k)
		if err := eng.IngestRAS(recs[rlo:rhi]); err != nil {
			t.Fatal(err)
		}
		if err := eng.IngestJobs(jobs[jlo:jhi]); err != nil {
			t.Fatal(err)
		}
	}
	ingest(0)
	if err := eng.Seal(); err != nil {
		t.Fatal(err)
	}
	if eng, err = NewEngine(cfg); err != nil {
		t.Fatal(err)
	}
	ingest(1)
	failing = true
	if err := eng.Seal(); err == nil || !strings.Contains(err.Error(), "injected fault") {
		t.Fatalf("Seal with a job fault: err = %v, want injected fault", err)
	}
	failing = false
	ingest(2)
	if err := eng.Seal(); err != nil {
		t.Fatalf("Seal after the fault cleared: %v", err)
	}

	for k := 0; k < 3; k++ {
		got, err := readJobFile(filepath.Join(dir, fmt.Sprintf("seg-%06d.job", k)))
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := third(len(jobs), k)
		if !slices.Equal(got, jobs[lo:hi]) {
			t.Errorf("seg-%06d.job holds %d jobs, want its own %d (jobs %d..%d)", k, len(got), hi-lo, lo, hi)
		}
	}
	recovered, err := NewEngine(Config{DataDir: dir, SealRows: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewEngine(Config{SealRows: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	// The reference seals at the same points, so both sides publish the
	// same sealed-segment census.
	eng = ref
	for k := 0; k < 3; k++ {
		ingest(k)
		if err := ref.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	checkEnginesEqual(t, "after three seals", recovered, ref)
}
