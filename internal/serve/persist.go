package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro"
	"repro/internal/joblog"
	"repro/internal/raslog"
	"repro/internal/store"
)

// Checkpoint layout: each sealed segment N owns three files in DataDir,
//
//	seg-N.seg   — the segment's columnar encoding (store.SegmentFile),
//	              the only durable copy of its FATAL rows
//	seg-N.job   — the jobs accepted since the previous seal, feed order
//	seg-N.json  — the manifest: format number, per-segment counts, and
//	              the engine's CUMULATIVE counters, cursors and first
//	              FATAL record at seal time
//
// written in that order, each through store.CommitFile (temp file +
// fsync + rename). The manifest is the commit record: recovery opens
// seg-N.seg only for a manifest N, so a crash mid-seal leaves at worst
// an orphan .seg/.job (and .tmp debris) that recovery never reads and
// the next seal of N overwrites. A spill maps the committed seg-N.seg.
//
// Raw non-fatal records are not persisted; they enter the analysis only
// through the aggregate counters (record/byte totals, span), which the
// manifest carries, with Table II's first FATAL record, whose other
// columns the segment does not keep. Recovery therefore rebuilds the
// exact engine state of the last committed seal instant: replaying the
// segments' rows through filter.Incremental.FeedRow reproduces the
// cascade and symbol numbering (as core.AnalyzeRun's batch replay
// does), and the manifest restores the aggregates and cursors.

// manifestFormat numbers the checkpoint layout above. Format 1, whose
// manifests carry no number, kept the FATAL rows as seg-N.ras text;
// recovery refuses it rather than migrate it.
const manifestFormat = 2

// sealRecord is the payload to persist for one sealed segment.
type sealRecord struct {
	seg  *store.SegmentFile
	jobs []joblog.Job
	man  manifest
}

// manifest is the per-segment commit record (schema field names are
// part of the on-disk format; extend, don't repurpose).
type manifest struct {
	Format   int `json:"format"`
	Seq      int `json:"seq"`
	Rows     int `json:"rows"`
	JobCount int `json:"job_count"`

	// Cumulative raw-stream aggregates at seal time.
	RASRecords   int   `json:"ras_records"`
	RASBytes     int   `json:"ras_bytes"`
	FatalRecords int   `json:"fatal_records"`
	RASFirstNS   int64 `json:"ras_first_ns"`
	RASLastNS    int64 `json:"ras_last_ns"`
	// FirstFatal is LogStats.FirstFatal's log line (MarshalLine), empty
	// before the first FATAL record. It is bytes, not a string, because
	// a JSON string cannot carry a line that is not valid UTF-8.
	FirstFatal []byte `json:"first_fatal,omitempty"`

	// Stream cursors at seal time.
	LastRecTimeNS int64 `json:"last_rec_time_ns"`
	LastRecID     int64 `json:"last_rec_id"`
}

// persister writes seal records under a data directory.
type persister struct {
	dir  string
	hook func(step string) error
}

// path names segment seq's file with extension ext: the stem of
// store.SegmentFileName, the name SegmentSet.SpillOver opens for "seg".
func (p *persister) path(seq int, ext string) string {
	return filepath.Join(p.dir, strings.TrimSuffix(store.SegmentFileName(seq), "seg")+ext)
}

// writeSeal persists one sealed segment: the segment, its jobs, then
// the manifest as the commit point.
func (p *persister) writeSeal(sr sealRecord) error {
	if err := os.MkdirAll(p.dir, 0o755); err != nil {
		return err
	}
	if err := p.step("seg"); err != nil {
		return err
	}
	if err := store.CommitFile(p.path(sr.man.Seq, "seg"), func(w io.Writer) error {
		_, err := sr.seg.WriteTo(w)
		return err
	}); err != nil {
		return err
	}
	if err := p.step("job"); err != nil {
		return err
	}
	if err := store.CommitFile(p.path(sr.man.Seq, "job"), func(w io.Writer) error {
		jw := joblog.NewWriter(w)
		for _, j := range sr.jobs {
			if err := jw.Write(j); err != nil {
				return err
			}
		}
		return jw.Flush()
	}); err != nil {
		return err
	}
	if err := p.step("manifest"); err != nil {
		return err
	}
	return store.CommitFile(p.path(sr.man.Seq, "json"), func(w io.Writer) error {
		enc := json.NewEncoder(w)
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

// recover rebuilds the engine from the committed seals in DataDir, in
// sequence order, stopping at the first missing manifest. Each
// manifest's segment file is opened by its number (a directory listing
// would also see an orphan .seg), checked against the manifest, replayed
// through the cascade and adopted as a sealed, file-backed segment with
// its own row count: a data dir written under a different seal budget
// still recovers, and nothing is re-encoded or resident afterwards.
func (e *Engine) recover() error {
	var last *manifest
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
		if man.Format != manifestFormat {
			return fmt.Errorf("serve: data dir %s is in checkpoint format %d, not %d (format 1 kept the FATAL rows "+
				"as seg-N.ras text and is not migrated): re-ingest the logs into an empty data dir",
				e.per.dir, max(man.Format, 1), manifestFormat)
		}

		sf, err := store.OpenSegment(e.per.path(seq, "seg"))
		if err == nil && sf.Rows() != man.Rows {
			err = fmt.Errorf("%d rows on disk, manifest says %d", sf.Rows(), man.Rows)
		}
		if err == nil {
			err = e.segs.Adopt(sf) // checks the sequence number
		}
		if err == nil {
			_, err = sf.Scan(store.Query{}, e.inc.FeedRow)
		}
		if err != nil {
			if sf != nil {
				sf.Close()
			}
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
	}
	if len(last.FirstFatal) > 0 {
		rec, err := raslog.UnmarshalLine(string(last.FirstFatal))
		if err != nil {
			return fmt.Errorf("serve: recovering segment %d: first FATAL record: %w", last.Seq, err)
		}
		e.stats.FirstFatal, e.stats.HasFatal = rec, true
	}
	e.lastRecTime = last.LastRecTimeNS
	e.lastRecID = last.LastRecID
	return nil
}

func readJobFile(path string) ([]joblog.Job, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return joblog.NewReader(f).ReadAll()
}
