package store

// On-disk segment format (version 1). A segment file is one sealed,
// time-contiguous columnar run plus everything a reader needs to
// decide — without touching the column payload — whether the segment
// can contain a row matching a predicate: the zone map (row count,
// min/max event time, severity/component bitmaps) and the segment's
// symtab delta (the local ERRCODE and location vocabularies, in
// first-seen row order). The column payload stores Code/Loc as
// segment-local dense IDs; a reader remaps them onto whatever global
// table it is merging into (see MergeReader).
//
// Layout, all integers little-endian:
//
//	offset 0    magic "BGPSEG1\n" (8 bytes; the digit is the format
//	            version — a version bump changes the magic)
//	            u32 headerLen — byte length of the header payload
//	            header payload:
//	              u32 version (== SegmentFormatVersion; redundant with
//	                  the magic so version errors are first-class)
//	              u32 seq
//	              u32 rows
//	              i64 minTime, i64 maxTime (unix ns; 0/0 when empty)
//	              u64 sevBits, u64 compBits (bit v set ⇔ some row has
//	                  that severity/component value; values are < 64)
//	              u32 nCodes, then nCodes × (uvarint len + bytes)
//	              u32 nLocs,  then nLocs  × (uvarint len + bytes)
//	            u32 headerCRC — IEEE CRC-32 of the header payload
//	columns     rows×8 RecID | rows×8 Time | rows×4 Code | rows×4 Loc |
//	            rows×4 Comp | rows×4 Sev   (Code/Loc are local IDs)
//	            u32 columnsCRC — IEEE CRC-32 of the columns section
//
// The encoding is canonical: rows are sorted by (Time, RecID), local
// IDs are assigned in first-seen row order, and the zone map is derived
// from the rows. ReadSegment validates all of that, so decode→encode is
// byte-identity — the property FuzzSegmentCodec and the golden-file
// compatibility test pin. Files are committed via temp file + fsync +
// rename (CommitFile), the protocol the commitseq lint analyzer
// enforces.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"repro/internal/symtab"
)

// SegmentFormatVersion is the on-disk segment format version this
// package reads and writes. Bump it (and segMagic's digit) on any
// byte-layout change; the golden-file test fails with that instruction
// when the encoding drifts without a bump.
const SegmentFormatVersion = 1

// segMagic opens every segment file; the digit tracks the version.
const segMagic = "BGPSEG1\n"

// RowBytes is the fixed column payload per row (8+8+4+4+4+4).
const RowBytes = 32

// maxHeaderBytes bounds the declared header length so a corrupt length
// field cannot drive a huge allocation.
const maxHeaderBytes = 1 << 26

// FormatError is the structured error every segment decode failure
// reduces to: truncation, corruption, a version mismatch, or a
// non-canonical encoding. Decoders never panic on arbitrary input.
type FormatError struct {
	// Section locates the failure: "magic", "version", "header",
	// "columns", or "crc".
	Section string
	Msg     string
}

func (e *FormatError) Error() string {
	return fmt.Sprintf("store: bad segment (%s): %s", e.Section, e.Msg)
}

func formatErr(section, format string, args ...any) error {
	return &FormatError{Section: section, Msg: fmt.Sprintf(format, args...)}
}

// SegmentData is the in-memory form of one segment file: the rows with
// segment-local Code/Loc IDs plus the local vocabularies that give them
// names. A Spool run or a SegmentSet seal builds one from buffered rows
// (spoolBuf.segmentData); decode one with ReadSegment.
type SegmentData struct {
	// Seq is the segment's position in its stream.
	Seq int
	// MinTime and MaxTime bound the Time column (both zero when empty).
	MinTime, MaxTime int64
	// SevBits and CompBits have bit v set iff some row carries that
	// severity/component value.
	SevBits, CompBits uint64
	// Codes and Locs are the local vocabularies in first-seen row
	// order; the Code/Loc columns of Events index into them.
	Codes, Locs []string
	// Events holds the rows; Code/Loc are local IDs.
	Events Events
}

// validate checks the canonical-encoding invariants AppendSegment
// requires and ReadSegment guarantees. section tags the FormatError.
func (d *SegmentData) validate(section string) error {
	e := &d.Events
	n := len(e.RecID)
	if len(e.Time) != n || len(e.Code) != n || len(e.Loc) != n || len(e.Comp) != n || len(e.Sev) != n {
		return formatErr(section, "ragged columns: %d/%d/%d/%d/%d/%d rows",
			n, len(e.Time), len(e.Code), len(e.Loc), len(e.Comp), len(e.Sev))
	}
	var minT, maxT int64
	var sevBits, compBits uint64
	seenCodes, seenLocs := 0, 0
	for i := 0; i < n; i++ {
		if i > 0 && (e.Time[i] < e.Time[i-1] || (e.Time[i] == e.Time[i-1] && e.RecID[i] < e.RecID[i-1])) {
			return formatErr(section, "row %d out of (Time, RecID) order", i)
		}
		if i == 0 || e.Time[i] < minT {
			minT = e.Time[i]
		}
		if e.Time[i] > maxT {
			maxT = e.Time[i]
		}
		if e.Comp[i] < 0 || e.Comp[i] > 63 || e.Sev[i] < 0 || e.Sev[i] > 63 {
			return formatErr(section, "row %d: component %d / severity %d outside the bitmap range [0, 63]",
				i, e.Comp[i], e.Sev[i])
		}
		sevBits |= 1 << uint(e.Sev[i])
		compBits |= 1 << uint(e.Comp[i])
		// Local IDs must be dense and assigned in first-seen row order:
		// a row may reuse an already-seen ID or mint exactly the next one.
		switch c := int(e.Code[i]); {
		case c >= 0 && c < seenCodes:
		case c == seenCodes && c < len(d.Codes):
			seenCodes++
		default:
			return formatErr(section, "row %d: code ID %d breaks first-seen-order numbering (%d of %d assigned)",
				i, c, seenCodes, len(d.Codes))
		}
		switch l := int(e.Loc[i]); {
		case l >= 0 && l < seenLocs:
		case l == seenLocs && l < len(d.Locs):
			seenLocs++
		default:
			return formatErr(section, "row %d: location ID %d breaks first-seen-order numbering (%d of %d assigned)",
				i, l, seenLocs, len(d.Locs))
		}
	}
	if seenCodes != len(d.Codes) || seenLocs != len(d.Locs) {
		return formatErr(section, "unused vocabulary entries: %d/%d codes, %d/%d locations referenced",
			seenCodes, len(d.Codes), seenLocs, len(d.Locs))
	}
	if d.MinTime != minT || d.MaxTime != maxT {
		return formatErr(section, "zone time bounds [%d, %d] disagree with rows [%d, %d]",
			d.MinTime, d.MaxTime, minT, maxT)
	}
	if d.SevBits != sevBits || d.CompBits != compBits {
		return formatErr(section, "zone bitmaps disagree with rows")
	}
	if d.Seq < 0 {
		return formatErr(section, "negative sequence %d", d.Seq)
	}
	return nil
}

// AppendSegment appends the canonical encoding of d to dst and returns
// the extended slice. It fails (without writing) when d violates the
// canonical invariants — unsorted rows, non-first-seen local IDs, or a
// zone map that disagrees with the rows.
func AppendSegment(dst []byte, d *SegmentData) ([]byte, error) {
	if err := d.validate("encode"); err != nil {
		return dst, err
	}
	hdr := make([]byte, 0, 64+16*(len(d.Codes)+len(d.Locs)))
	hdr = binary.LittleEndian.AppendUint32(hdr, SegmentFormatVersion)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(d.Seq))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(d.Events.Len()))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(d.MinTime))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(d.MaxTime))
	hdr = binary.LittleEndian.AppendUint64(hdr, d.SevBits)
	hdr = binary.LittleEndian.AppendUint64(hdr, d.CompBits)
	hdr = appendNames(hdr, d.Codes)
	hdr = appendNames(hdr, d.Locs)
	if len(hdr) > maxHeaderBytes {
		return dst, formatErr("encode", "header %d bytes exceeds the %d-byte bound", len(hdr), maxHeaderBytes)
	}

	dst = append(dst, segMagic...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(hdr)))
	dst = append(dst, hdr...)
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(hdr))

	colStart := len(dst)
	e := &d.Events
	for _, v := range e.RecID {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	for _, v := range e.Time {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	for _, v := range e.Code {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
	}
	for _, v := range e.Loc {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
	}
	for _, v := range e.Comp {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
	}
	for _, v := range e.Sev {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
	}
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[colStart:])), nil
}

func appendNames(dst []byte, names []string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(names)))
	for _, n := range names {
		dst = binary.AppendUvarint(dst, uint64(len(n)))
		dst = append(dst, n...)
	}
	return dst
}

// CommitSegment durably writes d's encoding at path (CommitFile).
func CommitSegment(path string, d *SegmentData) error {
	b, err := AppendSegment(nil, d)
	if err != nil {
		return err
	}
	return CommitFile(path, func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	})
}

// CommitFile durably writes path: write fills a .tmp sibling, which is
// fsynced and renamed into place, so a crash leaves either the old file
// or the new one — never a torn one. The rename is the commit point and
// the last effectful step. Segment files, and bgpd's job files and
// manifests, are all committed through it.
func CommitFile(path string, write func(io.Writer) error) error {
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

// segHeader is the decoded header + zone section of a segment file.
type segHeader struct {
	seq              int
	rows             int
	minTime, maxTime int64
	sevBits          uint64
	compBits         uint64
	codes, locs      []string
	// colOff is the file offset of the columns section.
	colOff int64
}

// readHeader decodes the magic, header payload and header CRC from r.
func readHeader(r io.Reader) (*segHeader, error) {
	var pre [len(segMagic) + 4]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		return nil, formatErr("magic", "truncated before the header: %v", err)
	}
	if string(pre[:len(segMagic)]) != segMagic {
		if string(pre[:6]) == segMagic[:6] {
			return nil, formatErr("version", "segment written by format %q, this reader supports %q — bump SegmentFormatVersion handling before reading it",
				string(pre[:len(segMagic)]), segMagic)
		}
		return nil, formatErr("magic", "not a segment file (got % x)", pre[:len(segMagic)])
	}
	hlen := binary.LittleEndian.Uint32(pre[len(segMagic):])
	// 44 fixed bytes plus two (possibly empty) vocabulary counts.
	if hlen < 52 || hlen > maxHeaderBytes {
		return nil, formatErr("header", "implausible header length %d", hlen)
	}
	buf := make([]byte, hlen+4)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, formatErr("header", "truncated header: %v", err)
	}
	hdr, crc := buf[:hlen], binary.LittleEndian.Uint32(buf[hlen:])
	if got := crc32.ChecksumIEEE(hdr); got != crc {
		return nil, formatErr("crc", "header checksum %08x, want %08x", got, crc)
	}

	h := &segHeader{}
	if v := binary.LittleEndian.Uint32(hdr[0:]); v != SegmentFormatVersion {
		return nil, formatErr("version", "format version %d, this reader supports %d — bump SegmentFormatVersion handling before reading it",
			v, SegmentFormatVersion)
	}
	h.seq = int(int32(binary.LittleEndian.Uint32(hdr[4:])))
	h.rows = int(int32(binary.LittleEndian.Uint32(hdr[8:])))
	if h.seq < 0 || h.rows < 0 {
		return nil, formatErr("header", "negative seq %d or row count %d", h.seq, h.rows)
	}
	h.minTime = int64(binary.LittleEndian.Uint64(hdr[12:]))
	h.maxTime = int64(binary.LittleEndian.Uint64(hdr[20:]))
	h.sevBits = binary.LittleEndian.Uint64(hdr[28:])
	h.compBits = binary.LittleEndian.Uint64(hdr[36:])
	rest := hdr[44:]
	var err error
	if h.codes, rest, err = readNames(rest, h.rows); err != nil {
		return nil, err
	}
	if h.locs, rest, err = readNames(rest, h.rows); err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, formatErr("header", "%d trailing header bytes", len(rest))
	}
	h.colOff = int64(len(segMagic)) + 4 + int64(hlen) + 4
	return h, nil
}

// readNames decodes one length-prefixed vocabulary from b. Each entry
// names at least one row, so the count is bounded by rows.
func readNames(b []byte, rows int) ([]string, []byte, error) {
	if len(b) < 4 {
		return nil, nil, formatErr("header", "truncated vocabulary count")
	}
	n := int(int32(binary.LittleEndian.Uint32(b)))
	b = b[4:]
	if n < 0 || n > rows {
		return nil, nil, formatErr("header", "vocabulary of %d entries for %d rows", n, rows)
	}
	names := make([]string, n)
	seen := make(map[string]struct{}, n)
	for i := range names {
		l, k := binary.Uvarint(b)
		if k <= 0 || l > uint64(len(b)-k) {
			return nil, nil, formatErr("header", "truncated vocabulary entry %d", i)
		}
		// Reject overlong varints: the canonical encoding is unique, so
		// decode→encode stays byte-identity.
		if k != len(binary.AppendUvarint(nil, l)) {
			return nil, nil, formatErr("header", "non-minimal length varint at vocabulary entry %d", i)
		}
		names[i] = string(b[k : k+int(l)])
		if _, dup := seen[names[i]]; dup {
			return nil, nil, formatErr("header", "duplicate vocabulary entry %q", names[i])
		}
		seen[names[i]] = struct{}{}
		b = b[k+int(l):]
	}
	return names, b, nil
}

// ReadSegment decodes one full segment from r, verifying both CRCs and
// every canonical invariant: the returned data re-encodes to exactly
// the bytes read. All failures — truncation, corruption, version drift
// — surface as *FormatError; arbitrary input never panics. The product
// maps segments (OpenSegment) instead; this full decoder stays as the
// oracle that the codec tests, FuzzSegmentCodec and the root package's
// parallelism tests decode segments through.
func ReadSegment(r io.Reader) (*SegmentData, error) {
	h, err := readHeader(r)
	if err != nil {
		return nil, err
	}
	// Read the columns in bounded chunks so a corrupt row count on a
	// short stream fails after at most one chunk instead of driving a
	// rows-sized allocation up front.
	want := h.rows*RowBytes + 4
	cols := make([]byte, 0, min(want, 1<<20))
	chunk := make([]byte, 1<<20)
	for len(cols) < want {
		c := chunk[:min(len(chunk), want-len(cols))]
		k, err := io.ReadFull(r, c)
		cols = append(cols, c[:k]...)
		if err != nil {
			return nil, formatErr("columns", "truncated columns (%d of %d bytes): %v", len(cols), want, err)
		}
	}
	payload, crc := cols[:h.rows*RowBytes], binary.LittleEndian.Uint32(cols[h.rows*RowBytes:])
	if got := crc32.ChecksumIEEE(payload); got != crc {
		return nil, formatErr("crc", "columns checksum %08x, want %08x", got, crc)
	}

	d := &SegmentData{
		Seq:      h.seq,
		MinTime:  h.minTime,
		MaxTime:  h.maxTime,
		SevBits:  h.sevBits,
		CompBits: h.compBits,
		Codes:    h.codes,
		Locs:     h.locs,
		Events:   *NewEvents(h.rows),
	}
	e := &d.Events
	n := h.rows
	for i := 0; i < n; i++ {
		e.RecID = append(e.RecID, int64(binary.LittleEndian.Uint64(payload[8*i:])))
	}
	for i := 0; i < n; i++ {
		e.Time = append(e.Time, int64(binary.LittleEndian.Uint64(payload[8*n+8*i:])))
	}
	for i := 0; i < n; i++ {
		e.Code = append(e.Code, symtab.ErrcodeID(int32(binary.LittleEndian.Uint32(payload[16*n+4*i:]))))
	}
	for i := 0; i < n; i++ {
		e.Loc = append(e.Loc, symtab.LocationID(int32(binary.LittleEndian.Uint32(payload[20*n+4*i:]))))
	}
	for i := 0; i < n; i++ {
		e.Comp = append(e.Comp, int32(binary.LittleEndian.Uint32(payload[24*n+4*i:])))
	}
	for i := 0; i < n; i++ {
		e.Sev = append(e.Sev, int32(binary.LittleEndian.Uint32(payload[28*n+4*i:])))
	}
	if err := d.validate("columns"); err != nil {
		return nil, err
	}
	return d, nil
}

// SegmentFileName names segment seq on disk; the zero-padding keeps
// lexical directory order equal to sequence order, so a name sort of a
// spill directory is a time sort.
func SegmentFileName(seq int) string {
	return fmt.Sprintf("seg-%06d.seg", seq)
}
