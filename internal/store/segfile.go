package store

// Reader side of the segmented store: OpenSegment reads only a file's
// header — zone map and local vocabularies — and defers the column
// payload until a scan actually needs it, backed by an mmap of the file
// when the platform provides one and by buffered sequential reads
// otherwise. Catalog opens a directory of segments and MergeReader
// drains any subset of them as one (Time, RecID)-ordered stream,
// skipping every segment whose zone map refutes the predicate without
// touching its columns.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// Query is the pushdown predicate the zone maps answer. The zero value
// matches every row.
type Query struct {
	// MinTimeNS and MaxTimeNS bound the event time, inclusive; zero
	// means unbounded on that side (campaign timestamps are nowhere
	// near 1970, so the conflation is harmless).
	MinTimeNS, MaxTimeNS int64
	// SevMask admits rows whose severity bit is set; zero admits all.
	// Build it as 1<<uint(sev).
	SevMask uint64
	// Code and Loc, when non-empty, require an exact ERRCODE or
	// location-code match.
	Code, Loc string
}

// ZoneMap is what a reader learns about a segment from its header
// alone: enough to decide whether any row can match a Query.
type ZoneMap struct {
	// Rows is the segment's row count.
	Rows int
	// MinTime and MaxTime bound the row times (unix ns).
	MinTime, MaxTime int64
	// SevBits and CompBits have bit v set iff some row carries that
	// severity/component value.
	SevBits, CompBits uint64
	// Codes and Locs are the segment's local vocabularies (its symtab
	// delta) in first-seen row order; presence in the slice is the
	// errcode/location zone predicate.
	Codes, Locs []string

	codeIdx, locIdx map[string]int32
}

// index builds the name→local-ID lookups.
func (z *ZoneMap) index() {
	z.codeIdx = make(map[string]int32, len(z.Codes))
	for i, n := range z.Codes {
		z.codeIdx[n] = int32(i)
	}
	z.locIdx = make(map[string]int32, len(z.Locs))
	for i, n := range z.Locs {
		z.locIdx[n] = int32(i)
	}
}

// Admits reports whether the zone map leaves room for a row matching q.
// A false answer is definitive — the segment can be skipped unread; a
// true answer still requires the row filter.
func (z *ZoneMap) Admits(q Query) bool {
	if z.Rows == 0 {
		return false
	}
	if q.MinTimeNS != 0 && z.MaxTime < q.MinTimeNS {
		return false
	}
	if q.MaxTimeNS != 0 && z.MinTime > q.MaxTimeNS {
		return false
	}
	if q.SevMask != 0 && z.SevBits&q.SevMask == 0 {
		return false
	}
	if q.Code != "" {
		if _, ok := z.codeIdx[q.Code]; !ok {
			return false
		}
	}
	if q.Loc != "" {
		if _, ok := z.locIdx[q.Loc]; !ok {
			return false
		}
	}
	return true
}

// Row is one merged, name-resolved event row — what scans and merges
// yield. Code and Loc are names (not IDs): resolving per-segment local
// IDs through the segment's own vocabulary is what makes rows from
// different segments comparable, and re-interning the names in merge
// order is what remaps the per-segment symtab deltas onto a global
// table (see MergeReader).
type Row struct {
	RecID  int64
	TimeNS int64
	Code   string
	Loc    string
	Comp   int32
	Sev    int32
}

// ScanStats counts what a scan or merge touched; the pushdown tests
// and the coanalyze -mem-budget summary read them.
type ScanStats struct {
	// Segments is how many segments the predicate was consulted for.
	Segments int
	// Skipped is how many of those the zone maps refuted — their column
	// payloads were never read.
	Skipped int
	// Scanned is how many segments had columns read.
	Scanned int
	// Rows is how many rows passed the row filter and were yielded.
	Rows int64
}

// SegmentFile is one segment opened for reading. Opening reads and
// verifies only the header; the column payload is touched lazily,
// through the mapping when mmap is available and through buffered
// sequential reads otherwise. A resident segment has no file: its
// encoding stands in for the mapping.
type SegmentFile struct {
	path string
	f    *os.File // nil for a resident segment
	mm   []byte   // whole-file mapping or resident encoding; nil when streamed
	zone ZoneMap
	seq  int
	size int64
	// colOff is the file offset of the columns section.
	colOff int64
}

// OpenSegment opens path and decodes its header, zone map and
// vocabularies. The file size is validated against the declared row
// count, so truncation surfaces here rather than mid-scan.
func OpenSegment(path string) (*SegmentFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	h, err := readHeader(bufio.NewReader(f))
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if want := h.colOff + int64(h.rows)*RowBytes + 4; st.Size() != want {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path,
			formatErr("columns", "file is %d bytes, %d rows need %d", st.Size(), h.rows, want))
	}
	sf := &SegmentFile{
		path: path,
		f:    f,
		seq:  h.seq,
		size: st.Size(),
		zone: ZoneMap{
			Rows:     h.rows,
			MinTime:  h.minTime,
			MaxTime:  h.maxTime,
			SevBits:  h.sevBits,
			CompBits: h.compBits,
			Codes:    h.codes,
			Locs:     h.locs,
		},
		colOff: h.colOff,
	}
	sf.zone.index()
	// Best effort: fall back to the streamed reader when the platform
	// (or the filesystem) refuses to map the file.
	if mm, err := mmapFile(f, st.Size()); err == nil {
		sf.mm = mm
	}
	return sf, nil
}

// residentSegment encodes d and opens the encoding in place of a file.
// The columns section is the encoding's last Rows*RowBytes bytes before
// the closing CRC, as OpenSegment's size check requires.
func residentSegment(d *SegmentData) (*SegmentFile, error) {
	enc, err := AppendSegment(nil, d)
	if err != nil {
		return nil, err
	}
	n := d.Events.Len()
	sf := &SegmentFile{
		mm:     enc,
		seq:    d.Seq,
		size:   int64(len(enc)),
		colOff: int64(len(enc) - n*RowBytes - 4),
		zone: ZoneMap{Rows: n, MinTime: d.MinTime, MaxTime: d.MaxTime,
			SevBits: d.SevBits, CompBits: d.CompBits, Codes: d.Codes, Locs: d.Locs},
	}
	sf.zone.index()
	return sf, nil
}

// Path returns the file path the segment was opened from ("" if resident).
func (sf *SegmentFile) Path() string { return sf.path }

// Seq returns the segment's sequence number.
func (sf *SegmentFile) Seq() int { return sf.seq }

// Rows returns the segment's row count.
func (sf *SegmentFile) Rows() int { return sf.zone.Rows }

// Zone returns the segment's zone map.
func (sf *SegmentFile) Zone() *ZoneMap { return &sf.zone }

// Close unmaps and closes the file (drops a resident encoding).
func (sf *SegmentFile) Close() error {
	if sf.f == nil {
		sf.mm = nil
		return nil
	}
	var mErr error
	if sf.mm != nil {
		mErr = munmapFile(sf.mm)
		sf.mm = nil
	}
	if err := sf.f.Close(); err != nil {
		return err
	}
	return mErr
}

// WriteTo writes the segment's encoding to w: a resident segment's
// bytes, or the opened file's.
func (sf *SegmentFile) WriteTo(w io.Writer) (int64, error) {
	if sf.f == nil {
		n, err := w.Write(sf.mm)
		return int64(n), err
	}
	return io.Copy(w, io.NewSectionReader(sf.f, 0, sf.size))
}

// cursor walks one segment's rows in order, applying a row filter; the
// k-way merge pulls from one cursor per admitted segment.
type cursor struct {
	sf *SegmentFile
	n  int
	i  int

	// Resolved local-ID filter; a -2 sentinel means "filter name absent
	// from this segment" and would have been caught by Admits.
	q       Query
	codeID  int32
	locID   int32
	hasCode bool
	hasLoc  bool

	// Streamed backend: one buffered reader per column section.
	recR, timeR, codeR, locR, compR, sevR *bufio.Reader

	// current row, local IDs
	recID, timeNS        int64
	code, loc, comp, sev int32
}

func (sf *SegmentFile) newCursor(q Query) *cursor {
	c := &cursor{sf: sf, n: sf.zone.Rows, q: q}
	if q.Code != "" {
		c.codeID, c.hasCode = sf.zone.codeIdx[q.Code], true
	}
	if q.Loc != "" {
		c.locID, c.hasLoc = sf.zone.locIdx[q.Loc], true
	}
	if sf.mm == nil {
		n := int64(sf.zone.Rows)
		col := func(off, width int64) *bufio.Reader {
			return bufio.NewReaderSize(io.NewSectionReader(sf.f, sf.colOff+off, n*width), 1<<15)
		}
		c.recR = col(0, 8)
		c.timeR = col(8*n, 8)
		c.codeR = col(16*n, 4)
		c.locR = col(20*n, 4)
		c.compR = col(24*n, 4)
		c.sevR = col(28*n, 4)
	}
	return c
}

func read64(r *bufio.Reader) (int64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return int64(binary.LittleEndian.Uint64(b[:])), nil
}

func read32(r *bufio.Reader) (int32, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return int32(binary.LittleEndian.Uint32(b[:])), nil
}

// load decodes row i into the cursor. The streamed backend reads every
// column sequentially, so load must be called for each row in order.
func (c *cursor) load() error {
	if mm := c.sf.mm; mm != nil {
		off := c.sf.colOff
		n := int64(c.n)
		i := int64(c.i)
		c.recID = int64(binary.LittleEndian.Uint64(mm[off+8*i:]))
		c.timeNS = int64(binary.LittleEndian.Uint64(mm[off+8*n+8*i:]))
		c.code = int32(binary.LittleEndian.Uint32(mm[off+16*n+4*i:]))
		c.loc = int32(binary.LittleEndian.Uint32(mm[off+20*n+4*i:]))
		c.comp = int32(binary.LittleEndian.Uint32(mm[off+24*n+4*i:]))
		c.sev = int32(binary.LittleEndian.Uint32(mm[off+28*n+4*i:]))
		return nil
	}
	var err error
	if c.recID, err = read64(c.recR); err == nil {
		if c.timeNS, err = read64(c.timeR); err == nil {
			if c.code, err = read32(c.codeR); err == nil {
				if c.loc, err = read32(c.locR); err == nil {
					if c.comp, err = read32(c.compR); err == nil {
						c.sev, err = read32(c.sevR)
					}
				}
			}
		}
	}
	if err != nil {
		return fmt.Errorf("%s: %w", c.sf.path, formatErr("columns", "row %d: %v", c.i, err))
	}
	return nil
}

// match applies the row filter to the loaded row.
func (c *cursor) match() bool {
	if c.q.MinTimeNS != 0 && c.timeNS < c.q.MinTimeNS {
		return false
	}
	if c.q.MaxTimeNS != 0 && c.timeNS > c.q.MaxTimeNS {
		return false
	}
	if c.q.SevMask != 0 && (c.sev < 0 || c.sev > 63 || c.q.SevMask&(1<<uint(c.sev)) == 0) {
		return false
	}
	if c.hasCode && c.code != c.codeID {
		return false
	}
	if c.hasLoc && c.loc != c.locID {
		return false
	}
	return true
}

// next advances to the next matching row; ok is false at end of
// segment. Local IDs out of the vocabulary range surface as errors
// here (OpenSegment cannot see them without reading the columns).
func (c *cursor) next() (ok bool, err error) {
	for ; c.i < c.n; c.i++ {
		if err := c.load(); err != nil {
			return false, err
		}
		if int(c.code) >= len(c.sf.zone.Codes) || c.code < 0 ||
			int(c.loc) >= len(c.sf.zone.Locs) || c.loc < 0 {
			return false, fmt.Errorf("%s: %w", c.sf.path,
				formatErr("columns", "row %d: local ID outside the vocabulary", c.i))
		}
		if c.match() {
			c.i++
			return true, nil
		}
	}
	return false, nil
}

// row materializes the current row with names resolved through the
// segment's local vocabulary.
func (c *cursor) row() Row {
	return Row{
		RecID:  c.recID,
		TimeNS: c.timeNS,
		Code:   c.sf.zone.Codes[c.code],
		Loc:    c.sf.zone.Locs[c.loc],
		Comp:   c.comp,
		Sev:    c.sev,
	}
}

// Scan visits every row of the segment matching q, in row order.
func (sf *SegmentFile) Scan(q Query, visit func(Row) error) (int64, error) {
	c := sf.newCursor(q)
	var rows int64
	for {
		ok, err := c.next()
		if err != nil {
			return rows, err
		}
		if !ok {
			return rows, nil
		}
		rows++
		if err := visit(c.row()); err != nil {
			return rows, err
		}
	}
}

// Catalog is a directory of segment files opened for reading, in
// lexical (= sequence, = time) order, or a spool's resident runs.
type Catalog struct {
	segs []*SegmentFile
}

// OpenCatalog opens every *.seg file under dir. An empty or absent
// directory yields an empty catalog.
func OpenCatalog(dir string) (*Catalog, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	return openCatalog(names)
}

// openCatalog opens the named segment files, in order.
func openCatalog(names []string) (*Catalog, error) {
	c := &Catalog{}
	for _, name := range names {
		sf, err := OpenSegment(name)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.segs = append(c.segs, sf)
	}
	return c, nil
}

// Segments returns the opened segments in order.
func (c *Catalog) Segments() []*SegmentFile { return c.segs }

// Close closes every segment.
func (c *Catalog) Close() error {
	var first error
	for _, sf := range c.segs {
		if err := sf.Close(); err != nil && first == nil {
			first = err
		}
	}
	c.segs = nil
	return first
}

// Span returns the time bounds over all non-empty segments, from zone
// maps alone.
func (c *Catalog) Span() (minNS, maxNS int64, ok bool) {
	for _, sf := range c.segs {
		z := sf.Zone()
		if z.Rows == 0 {
			continue
		}
		if !ok || z.MinTime < minNS {
			minNS = z.MinTime
		}
		if !ok || z.MaxTime > maxNS {
			maxNS = z.MaxTime
		}
		ok = true
	}
	return minNS, maxNS, ok
}

// MergeReader drains several segments as one stream ordered by
// (TimeNS, RecID). Each segment is a sorted run, so this is a k-way
// heap merge; ties across segments break by catalog position, which —
// because runs are written in input order — makes the merged order of
// equal keys exactly the stable input order the single-block path
// sorts into. Yielded rows carry names, so feeding them to a fresh
// symtab table re-interns the per-segment deltas in global first-seen
// order: the remap that keeps segment-path output byte-identical to
// the single-block path.
type MergeReader struct {
	heap  []*mergeEntry
	stats ScanStats
}

type mergeEntry struct {
	c   *cursor
	idx int // catalog position, the tie-break
}

// Merge builds a MergeReader over the catalog's segments whose zone
// maps admit q; refuted segments are counted and skipped unread.
func (c *Catalog) Merge(q Query) (*MergeReader, error) {
	m := &MergeReader{}
	for idx, sf := range c.segs {
		m.stats.Segments++
		if !sf.zone.Admits(q) {
			m.stats.Skipped++
			continue
		}
		m.stats.Scanned++
		cur := sf.newCursor(q)
		ok, err := cur.next()
		if err != nil {
			return nil, err
		}
		if ok {
			m.push(&mergeEntry{c: cur, idx: idx})
		}
	}
	return m, nil
}

// less orders heap entries by (TimeNS, RecID, catalog position).
func (m *MergeReader) less(a, b *mergeEntry) bool {
	if a.c.timeNS != b.c.timeNS {
		return a.c.timeNS < b.c.timeNS
	}
	if a.c.recID != b.c.recID {
		return a.c.recID < b.c.recID
	}
	return a.idx < b.idx
}

func (m *MergeReader) push(e *mergeEntry) {
	m.heap = append(m.heap, e)
	i := len(m.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !m.less(m.heap[i], m.heap[p]) {
			break
		}
		m.heap[i], m.heap[p] = m.heap[p], m.heap[i]
		i = p
	}
}

func (m *MergeReader) sift() {
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(m.heap) && m.less(m.heap[l], m.heap[small]) {
			small = l
		}
		if r < len(m.heap) && m.less(m.heap[r], m.heap[small]) {
			small = r
		}
		if small == i {
			return
		}
		m.heap[i], m.heap[small] = m.heap[small], m.heap[i]
		i = small
	}
}

// Next yields the next row in (TimeNS, RecID) order; ok is false when
// the merge is drained.
func (m *MergeReader) Next() (row Row, ok bool, err error) {
	if len(m.heap) == 0 {
		return Row{}, false, nil
	}
	top := m.heap[0]
	row = top.c.row()
	m.stats.Rows++
	advanced, err := top.c.next()
	if err != nil {
		return Row{}, false, err
	}
	if advanced {
		m.sift()
	} else {
		last := len(m.heap) - 1
		m.heap[0] = m.heap[last]
		m.heap = m.heap[:last]
		if last > 0 {
			m.sift()
		}
	}
	return row, true, nil
}

// Stats returns what the merge consulted, skipped and yielded so far.
func (m *MergeReader) Stats() ScanStats { return m.stats }
