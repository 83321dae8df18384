package raslog

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/bgp"
	"repro/internal/linescan"
	"repro/internal/tailio"
)

// Writer streams records to an underlying io.Writer, one line each.
type Writer struct {
	w   *bufio.Writer
	buf []byte
	err error
}

// NewWriter returns a Writer on w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// Write appends one record. Errors are sticky. It takes the record by
// reference, so writing a log copies no Record.
func (w *Writer) Write(r *Record) error {
	if w.err != nil {
		return w.err
	}
	w.buf = r.AppendLine(w.buf[:0])
	w.buf = append(w.buf, '\n')
	if _, err := w.w.Write(w.buf); err != nil {
		w.err = err
		return err
	}
	return nil
}

// Flush flushes buffered output.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// Reader streams records from an underlying io.Reader. The idiomatic
// loop is iterator-style, with a record that is reused across calls:
//
//	r := raslog.NewReader(f)
//	for r.Next() {
//	    use(r.Record()) // valid until the next call to Next
//	}
//	if err := r.Err(); err != nil { ... }
//
// Field strings are interned per reader, so holding on to a record's
// fields (but not the *Record itself) past Next is cheap and safe.
type Reader struct {
	s    *bufio.Scanner
	line int
	rec  Record
	fs   fieldScratch
	err  error
	done bool
}

// NewReader returns a Reader on r.
func NewReader(r io.Reader) *Reader {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 64*1024), linescan.MaxLineBytes)
	return &Reader{s: s, fs: fieldScratch{it: newIntern()}}
}

// NewTailReader returns a Reader that follows a growing log: at end of
// input it polls for more bytes (every poll interval; non-positive
// means tailio.DefaultPoll) instead of stopping, until ctx is
// cancelled — then it drains what is already readable and ends
// cleanly. Partial trailing lines simply block Next until the writer
// completes them; the decode path is identical to NewReader's.
func NewTailReader(ctx context.Context, r io.Reader, poll time.Duration) *Reader {
	return NewReader(tailio.NewReader(ctx, r, poll))
}

// Next advances to the next record, skipping blank lines. It returns
// false at end of input or on the first error; Err distinguishes the
// two.
func (r *Reader) Next() bool {
	if r.done {
		return false
	}
	for r.s.Scan() {
		r.line++
		line := r.s.Bytes()
		if len(line) == 0 {
			continue
		}
		if err := r.rec.unmarshalFields(line, &r.fs); err != nil {
			r.fail(err, true)
			return false
		}
		return true
	}
	r.done = true
	if err := r.s.Err(); err != nil {
		r.fail(err, false)
	}
	return false
}

// fail ends the stream with err. A decode error is wrapped with its
// line number. A scanner error belongs to the line after the last one
// scanned, because the scanner stalls at the line it cannot read
// without counting it: fail counts that line, so Line names it, and an
// overflow becomes linescan.TooLongError for it. It stays out of line
// so the error values it builds are not charged to Next, whose
// per-record path is escape-free (cmd/bgpescape's codec rule).
//
//go:noinline
func (r *Reader) fail(err error, decode bool) {
	if !decode {
		r.line++
	}
	switch {
	case decode:
		err = fmt.Errorf("line %d: %w", r.line, err)
	case errors.Is(err, bufio.ErrTooLong):
		err = linescan.TooLongError(r.line)
	}
	r.err = err
	r.done = true
}

// Record returns the current record. The pointee is reused by Next;
// copy the Record (its field strings are immutable and shared) to
// retain it.
func (r *Reader) Record() *Record { return &r.rec }

// Err returns the first error encountered, if any. It never returns
// io.EOF.
func (r *Reader) Err() error { return r.err }

// Line returns the 1-based line number of the current record; after an
// error, that of the line the error names.
func (r *Reader) Line() int { return r.line }

// Read returns the next record, or io.EOF at end of input. It is the
// pre-streaming API, kept as a thin wrapper over Next.
func (r *Reader) Read() (Record, error) {
	if r.Next() {
		return r.rec, nil
	}
	if err := r.Err(); err != nil {
		return Record{}, err
	}
	return Record{}, io.EOF
}

// ReadAll drains the reader into a slice.
func (r *Reader) ReadAll() ([]Record, error) {
	var out []Record
	for r.Next() {
		out = append(out, r.rec)
	}
	return out, r.Err()
}

// Store is an in-memory ordered collection of RAS records with the
// query operations the pipeline needs. It stands in for the DB2
// backend of the real CMCS.
type Store struct {
	recs []Record
}

// NewStore returns a store over recs, sorted by (EventTime, RecID) so
// downstream interarrival analysis sees a time-ordered stream. The
// store takes ownership of recs and copies nothing: it sorts them in
// place when one pass finds them out of order, as SortStable does, and
// keeps the slice, so the caller must not modify recs afterwards.
// Input already in that order, such as Renumber's output, is left
// untouched.
func NewStore(recs []Record) *Store {
	if !isSorted(recs) {
		SortStable(recs)
	}
	return &Store{recs: recs}
}

// Len returns the number of records.
func (s *Store) Len() int { return len(s.recs) }

// All returns the time-ordered records (shared slice; callers must not
// mutate).
func (s *Store) All() []Record { return s.recs }

// Fatal returns the time-ordered records with FATAL severity.
func (s *Store) Fatal() []Record {
	var out []Record
	for _, r := range s.recs {
		if r.Fatal() {
			out = append(out, r)
		}
	}
	return out
}

// Span returns the first and last event times, or zero times if empty.
func (s *Store) Span() (first, last time.Time) {
	if len(s.recs) == 0 {
		return
	}
	return s.recs[0].EventTime, s.recs[len(s.recs)-1].EventTime
}

// LocationMidplanes resolves a location-code string to its global
// midplane indices (nil when unparseable). With interned locations the
// filter cascade parses each distinct location once per run instead of
// once per record.
func LocationMidplanes(loc string) []int {
	l, err := bgp.ParseLocation(loc)
	if err != nil {
		return nil
	}
	return l.Midplanes()
}
