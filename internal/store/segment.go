package store

// The serving layer's segment store (internal/serve): a long-running
// ingester appends time-ordered rows to an unsealed tail, seals the
// tail into an immutable segment when it reaches its row budget, and
// spills sealed segments past a memory budget. A sealed segment is a
// *SegmentFile, the same form a Spool run takes: resident (its
// encoding held in memory) until spilled, then the committed file
// opened for reading. So the daemon and the batch analysis share one
// localization (spoolBuf.segmentData), one zone check (ZoneMap.Admits),
// one row filter (the cursor) and one on-disk form. The serving layer
// commits each sealed segment's encoding (SegmentFile.WriteTo through
// CommitFile) as its checkpoint, so a spill only swaps the resident
// bytes for that file.
//
// A SegmentSet is not safe for concurrent use: the serving layer holds
// its ingest lock around every call, and publishes only counts.

import (
	"fmt"
	"path/filepath"
)

// SegmentSet is the writer-side collection: sealed segments in Seq
// order plus the unsealed tail.
type SegmentSet struct {
	// SealRows is the row budget of a segment: Append reports a full
	// tail when it reaches it. Zero means the DefaultSealRows budget.
	SealRows int

	segs []*SegmentFile
	tail spoolBuf
	rows int // rows across segs
}

// DefaultSealRows is the segment row budget when SegmentSet.SealRows is
// zero: small enough that a crash loses little, large enough that the
// per-segment overhead (a manifest write and an fsync) stays off the
// per-record path.
const DefaultSealRows = 4096

// Append adds one row to the tail, which must stay in (time, RecID)
// order, and reports whether the tail has reached its row budget. The
// caller seals it then and persists the sealed segment before
// acknowledging the rows: that is the durability boundary.
func (ss *SegmentSet) Append(recID, timeNS int64, code, loc string, comp, sev int32) (full bool) {
	ss.tail.add(recID, timeNS, code, loc, comp, sev, 0)
	budget := ss.SealRows
	if budget <= 0 {
		budget = DefaultSealRows
	}
	return len(ss.tail.recID) >= budget
}

// Seal localizes the tail into the next resident segment, claiming the
// next sequence number, and returns it. An empty tail seals to an empty
// segment: the serving layer uses one as a durable checkpoint record,
// whose manifest commits cumulative counters, ingest cursors and
// pending jobs when no filtered row arrived since the last seal.
func (ss *SegmentSet) Seal() (*SegmentFile, error) {
	sf, err := residentSegment(ss.tail.segmentData(len(ss.segs)))
	if err != nil {
		return nil, err
	}
	ss.segs = append(ss.segs, sf)
	ss.rows += sf.Rows()
	ss.tail.reset()
	return sf, nil
}

// Counts returns what /v1/epoch reports of the set: the segment count
// (the tail counts once it holds a row), the sealed segment count and
// the total row count.
func (ss *SegmentSet) Counts() (segments, sealed, rows int) {
	tail := len(ss.tail.recID)
	segments = len(ss.segs)
	if tail > 0 {
		segments++
	}
	return segments, len(ss.segs), ss.rows + tail
}

// ResidentBytes returns the column payload held in memory (resident
// sealed segments and the tail) in RowBytes per row: the currency of
// the spill budget.
func (ss *SegmentSet) ResidentBytes() int64 {
	rows := len(ss.tail.recID)
	for _, sf := range ss.segs {
		if sf.Path() == "" {
			rows += sf.Rows()
		}
	}
	return int64(rows) * RowBytes
}

// Adopt appends sf, a committed segment opened for reading, as the
// next sealed segment: recovery restores a checkpoint this way, without
// re-encoding it. The tail must be empty and sf must carry the next
// sequence number.
func (ss *SegmentSet) Adopt(sf *SegmentFile) error {
	if len(ss.tail.recID) > 0 || sf.Seq() != len(ss.segs) {
		return fmt.Errorf("store: adopting segment %d into a set at segment %d with %d unsealed rows",
			sf.Seq(), len(ss.segs), len(ss.tail.recID))
	}
	ss.segs = append(ss.segs, sf)
	ss.rows += sf.Rows()
	return nil
}

// SpillOver replaces resident sealed segments, oldest first, with their
// committed files under dir (SegmentFileName) opened for reading, until
// the resident payload fits within budget bytes, and reports how many
// it spilled. It writes nothing: every segment it spills must already
// be committed there. A sealed segment itself never changes, and the
// tail is never spilled.
func (ss *SegmentSet) SpillOver(budget int64, dir string) (int, error) {
	spilled := 0
	resident := ss.ResidentBytes()
	for i, sf := range ss.segs {
		if resident <= budget {
			break
		}
		if sf.Path() != "" || sf.Rows() == 0 {
			continue
		}
		opened, err := OpenSegment(filepath.Join(dir, SegmentFileName(sf.Seq())))
		if err != nil {
			return spilled, err
		}
		ss.segs[i] = opened
		resident -= int64(sf.Rows()) * RowBytes
		spilled++
	}
	return spilled, nil
}

// Scan visits every row matching q across the set, sealed segments in
// Seq order and then the tail, localized on demand the way Seal would:
// (Time, RecID) order, since the writer appends in time order. A
// segment whose zone map refutes q is skipped unread.
func (ss *SegmentSet) Scan(q Query, visit func(Row) error) (ScanStats, error) {
	segs := ss.segs[:len(ss.segs):len(ss.segs)]
	if len(ss.tail.recID) > 0 {
		tail, err := residentSegment(ss.tail.segmentData(len(ss.segs)))
		if err != nil {
			return ScanStats{}, err
		}
		segs = append(segs, tail)
	}
	var stats ScanStats
	for _, sf := range segs {
		stats.Segments++
		if !sf.zone.Admits(q) {
			stats.Skipped++
			continue
		}
		stats.Scanned++
		rows, err := sf.Scan(q, visit)
		stats.Rows += rows
		if err != nil {
			return stats, err
		}
	}
	return stats, nil
}
