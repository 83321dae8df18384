package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro"
	"repro/internal/joblog"
	"repro/internal/raslog"
)

// Checkpoint layout: each sealed segment N owns three files in DataDir,
//
//	seg-N.ras   — the segment's FATAL records, one line each, feed order
//	seg-N.job   — the jobs accepted since the previous seal, feed order
//	seg-N.json  — the manifest: per-segment row counts plus the engine's
//	              CUMULATIVE counters and stream cursors at seal time
//
// written in that order, each via temp file + fsync + rename. The
// manifest is the commit record: recovery only trusts a segment whose
// manifest exists, so a crash mid-seal leaves at worst ignorable .ras/
// .job files (and .tmp debris) behind — never a half-visible segment.
//
// Raw non-fatal records are not persisted; they enter the analysis only
// through the aggregate counters (record/byte totals, span), which the
// manifest carries. Recovery therefore rebuilds the exact engine state
// of the last committed seal instant: replaying the fatal lines through
// the normal ingest path reproduces the cascade, symbol numbering and
// segment rows, and the manifest restores the aggregates and cursors.

// sealRecord is the payload to persist for one sealed segment.
type sealRecord struct {
	ras  []raslog.Record
	jobs []joblog.Job
	man  manifest
}

// manifest is the per-segment commit record (schema field names are
// part of the on-disk format; extend, don't repurpose).
type manifest struct {
	Seq      int `json:"seq"`
	Rows     int `json:"rows"`
	JobCount int `json:"job_count"`

	// Cumulative raw-stream aggregates at seal time.
	RASRecords   int   `json:"ras_records"`
	RASBytes     int   `json:"ras_bytes"`
	FatalRecords int   `json:"fatal_records"`
	RASFirstNS   int64 `json:"ras_first_ns"`
	RASLastNS    int64 `json:"ras_last_ns"`

	// Stream cursors at seal time.
	LastRecTimeNS int64 `json:"last_rec_time_ns"`
	LastRecID     int64 `json:"last_rec_id"`

	// Segment row-time bounds (diagnostic; recovery recomputes them).
	MinTimeNS int64 `json:"min_time_ns"`
	MaxTimeNS int64 `json:"max_time_ns"`
}

// persister writes seal records under a data directory.
type persister struct {
	dir  string
	hook func(step string) error
}

func (p *persister) path(seq int, ext string) string {
	return filepath.Join(p.dir, fmt.Sprintf("seg-%06d.%s", seq, ext))
}

// writeSeal persists one sealed segment: records, jobs, then the
// manifest as the commit point.
func (p *persister) writeSeal(sr sealRecord) error {
	if err := os.MkdirAll(p.dir, 0o755); err != nil {
		return err
	}
	if err := p.step("ras"); err != nil {
		return err
	}
	if err := writeFileSync(p.path(sr.man.Seq, "ras"), func(f *os.File) error {
		w := raslog.NewWriter(f)
		for _, r := range sr.ras {
			if err := w.Write(r); err != nil {
				return err
			}
		}
		return w.Flush()
	}); err != nil {
		return err
	}
	if err := p.step("job"); err != nil {
		return err
	}
	if err := writeFileSync(p.path(sr.man.Seq, "job"), func(f *os.File) error {
		w := joblog.NewWriter(f)
		for _, j := range sr.jobs {
			if err := w.Write(j); err != nil {
				return err
			}
		}
		return w.Flush()
	}); err != nil {
		return err
	}
	if err := p.step("manifest"); err != nil {
		return err
	}
	return writeFileSync(p.path(sr.man.Seq, "json"), func(f *os.File) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(sr.man)
	})
}

func (p *persister) step(name string) error {
	if p.hook == nil {
		return nil
	}
	return p.hook(name)
}

// writeFileSync writes path atomically: a .tmp sibling is written,
// fsynced and renamed into place.
func writeFileSync(path string, write func(*os.File) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// recover rebuilds the engine from the committed seals in DataDir, in
// sequence order, stopping at the first missing manifest. Replay goes
// through the same code paths as live ingest, so the recovered cascade
// state, symbol numbering and segment rows are identical to an engine
// that ingested exactly the committed prefix. Each persisted segment is
// restored with its own row count, never re-cut at SealRows: a data dir
// written under a different seal budget still recovers.
func (e *Engine) recover() error {
	var last *manifest
	var firstFatal raslog.Record
	haveFatal := false
	for seq := 0; ; seq++ {
		mb, err := os.ReadFile(e.per.path(seq, "json"))
		if os.IsNotExist(err) {
			break
		}
		if err != nil {
			return fmt.Errorf("serve: recovering segment %d: %w", seq, err)
		}
		var man manifest
		if err := json.Unmarshal(mb, &man); err != nil {
			return fmt.Errorf("serve: recovering segment %d: bad manifest: %w", seq, err)
		}

		recs, err := readRASFile(e.per.path(seq, "ras"))
		if err != nil {
			return fmt.Errorf("serve: recovering segment %d: %w", seq, err)
		}
		if len(recs) != man.Rows {
			return fmt.Errorf("serve: recovering segment %d: %d records on disk, manifest says %d",
				seq, len(recs), man.Rows)
		}
		for i := range recs {
			rec := &recs[i]
			if err := e.inc.Feed(rec); err != nil {
				return fmt.Errorf("serve: recovering segment %d: %w", seq, err)
			}
			if !haveFatal {
				firstFatal, haveFatal = *rec, true
			}
			e.segs.Append(rec.RecID, rec.EventTime.UnixNano(), rec.ErrCode, rec.Location,
				int32(rec.Component), int32(rec.Severity))
		}
		if _, err := e.segs.Seal(); err != nil {
			return fmt.Errorf("serve: recovering segment %d: %w", seq, err)
		}

		jobs, err := readJobFile(e.per.path(seq, "job"))
		if err != nil {
			return fmt.Errorf("serve: recovering segment %d: %w", seq, err)
		}
		if len(jobs) != man.JobCount {
			return fmt.Errorf("serve: recovering segment %d: %d jobs on disk, manifest says %d",
				seq, len(jobs), man.JobCount)
		}
		for _, j := range jobs {
			e.occ.Add(j)
			e.jobs = append(e.jobs, j)
			e.lastJobEnd, e.lastJobID = j.EndTime, j.ID
		}
		last = &man
	}
	if last == nil {
		return nil
	}
	e.stats = repro.LogStats{
		RASRecords:   last.RASRecords,
		RASBytes:     last.RASBytes,
		FatalRecords: last.FatalRecords,
		First:        nsTime(last.RASFirstNS),
		Last:         nsTime(last.RASLastNS),
		FirstFatal:   firstFatal,
		HasFatal:     haveFatal,
	}
	e.lastRecTime = last.LastRecTimeNS
	e.lastRecID = last.LastRecID
	return nil
}

func readRASFile(path string) ([]raslog.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return raslog.NewReader(f).ReadAll()
}

func readJobFile(path string) ([]joblog.Job, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return joblog.NewReader(f).ReadAll()
}
