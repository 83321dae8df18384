package raslog

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/linescan"
)

// ReadAllParallel decodes a RAS log stream with workers parallel shards
// (0 = GOMAXPROCS, 1 = sequential; the module-wide convention). The
// stream is cut into line-aligned chunks, each shard parses its chunks
// with its own intern table, and the results merge in chunk order — the
// returned records and error are byte-identical to ReadAll on the same
// input for any worker count.
func ReadAllParallel(r io.Reader, workers int) ([]Record, error) {
	return readAll(r, linescan.Options{Workers: workers})
}

func readAll(r io.Reader, opts linescan.Options) ([]Record, error) {
	return linescan.DecodeAll(r, opts, func() linescan.ShardFunc[Record] {
		fs := fieldScratch{it: newIntern()}
		return func(chunk []byte, firstLine int) ([]Record, error) {
			var out []Record
			err := linescan.ForEachLine(chunk, firstLine, func(line []byte, n int) error {
				if len(line) == 0 {
					return nil
				}
				var rec Record
				if err := rec.unmarshalFields(line, &fs); err != nil {
					return fmt.Errorf("line %d: %w", n, err)
				}
				out = append(out, rec)
				return nil
			})
			return out, err
		}
	})
}

// Totals are the whole-log aggregates of a RAS stream, noise included:
// what Table I reports about the records the co-analysis never reads.
type Totals struct {
	// Records counts every record.
	Records int
	// Bytes is the re-marshaled log size (Record.MarshaledLen plus a
	// newline per record), the size Table I reports.
	Bytes int
	// Fatal counts FATAL-severity records.
	Fatal int
	// First and Last are the minimum and maximum EventTime over every
	// record; both are zero when Records is 0.
	First, Last time.Time
}

// observe folds one record, given by its event time, severity and
// re-marshaled line length (newline included).
func (t *Totals) observe(at time.Time, fatal bool, lineLen int) {
	t.merge(Totals{Records: 1, Bytes: lineLen, Fatal: btoi(fatal), First: at, Last: at})
}

// merge folds o, the totals of a later part of the stream, into t.
func (t *Totals) merge(o Totals) {
	if o.Records == 0 {
		return
	}
	if t.Records == 0 || o.First.Before(t.First) {
		t.First = o.First
	}
	if t.Records == 0 || o.Last.After(t.Last) {
		t.Last = o.Last
	}
	t.Records += o.Records
	t.Bytes += o.Bytes
	t.Fatal += o.Fatal
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// ReadFatal decodes a RAS log stream for the co-analysis, which reads
// only FATAL records: it returns those records in (EventTime, RecID)
// order — file order among full ties, as Store presents them — plus the
// Totals of the whole stream. It is ScanFatal collected and
// stable-sorted, with the same validation, errors and worker
// convention. On error, the records and totals cover the lines before
// the bad one.
func ReadFatal(r io.Reader, workers int) ([]Record, Totals, error) {
	return readFatal(r, linescan.Options{Workers: workers})
}

// ScanFatal decodes a RAS log stream like ReadFatal but hands each
// FATAL record to fn in file order instead of collecting them, one
// decode wave at a time, and returns the Totals of the whole stream.
// Every line is validated exactly as ReadAll validates it, with the
// same error and line number, but only FATAL lines are materialized; a
// noise line is accounted from its raw fields. The shards are
// ReadAllParallel's (workers follows the same convention), and the
// calls and totals are identical for any worker count. fn runs on the
// calling goroutine and must not retain rec. On a malformed line, fn
// has seen the FATAL records before it and the totals cover the lines
// before it; an fn error stops the decode and is returned as is.
func ScanFatal(r io.Reader, workers int, fn func(rec *Record) error) (Totals, error) {
	return scanFatal(r, linescan.Options{Workers: workers}, func(recs []Record) error {
		for i := range recs {
			if err := fn(&recs[i]); err != nil {
				return err
			}
		}
		return nil
	})
}

func readFatal(r io.Reader, opts linescan.Options) ([]Record, Totals, error) {
	var chunks [][]Record
	n := 0
	tot, err := scanFatal(r, opts, func(recs []Record) error {
		chunks = append(chunks, recs)
		n += len(recs)
		return nil
	})
	fatal := make([]Record, 0, n)
	for _, c := range chunks {
		fatal = append(fatal, c...)
	}
	SortStable(fatal)
	return fatal, tot, err
}

// fatalChunk is one chunk's share of a FATAL-only decode.
type fatalChunk struct {
	fatal []Record
	tot   Totals
}

// scanFatal is the FATAL-only decode: it hands each chunk's FATAL
// records, in file order, to emit (which may keep the slice) and
// returns the totals of the chunks decoded.
func scanFatal(r io.Reader, opts linescan.Options, emit func(recs []Record) error) (Totals, error) {
	var tot Totals
	err := linescan.Decode(r, opts, func() linescan.ShardFunc[fatalChunk] {
		fs := fieldScratch{it: newIntern()}
		return func(chunk []byte, firstLine int) ([]fatalChunk, error) {
			var c fatalChunk
			err := linescan.ForEachLine(chunk, firstLine, func(line []byte, n int) error {
				if len(line) == 0 {
					return nil
				}
				var lf lineFields
				if err := lf.parse(line); err != nil {
					return fmt.Errorf("line %d: %w", n, err)
				}
				fatal := lf.sev == SevFatal
				c.tot.observe(lf.t, fatal, lf.marshaledLen(&fs)+1)
				if fatal {
					var rec Record
					lf.fill(&rec, &fs)
					c.fatal = append(c.fatal, rec)
				}
				return nil
			})
			return []fatalChunk{c}, err
		}
	}, func(cs []fatalChunk) error {
		for i := range cs {
			tot.merge(cs[i].tot)
			if len(cs[i].fatal) == 0 {
				continue
			}
			if err := emit(cs[i].fatal); err != nil {
				return err
			}
		}
		return nil
	})
	return tot, err
}

// Before reports whether a sorts strictly before b in (EventTime,
// RecID) order, the order of the co-analysis streams.
func Before(a, b *Record) bool {
	if !a.EventTime.Equal(b.EventTime) {
		return a.EventTime.Before(b.EventTime)
	}
	return a.RecID < b.RecID
}

// sortKey is what SortStable compares instead of a whole Record: the
// (EventTime, RecID) order key plus the record's input position, which
// breaks full ties in input order. An int position costs nothing over
// an int32 one: the key pads to 40 bytes either way.
type sortKey struct {
	t   time.Time
	id  int64
	pos int
}

// SortStable sorts recs into (EventTime, RecID) order, keeping input
// order among full ties. It sorts compact (EventTime, RecID, position)
// keys, then moves each record once by following the permutation's
// cycles in place, so no second record-sized buffer is allocated. The
// key order agrees with Before on every pair, monotonic clock readings
// included, because it compares the time.Time values themselves.
func SortStable(recs []Record) {
	keys := make([]sortKey, len(recs))
	for i := range recs {
		keys[i] = sortKey{recs[i].EventTime, recs[i].RecID, i}
	}
	slices.SortFunc(keys, func(a, b sortKey) int {
		if c := a.t.Compare(b.t); c != 0 {
			return c
		}
		if c := cmp.Compare(a.id, b.id); c != 0 {
			return c
		}
		return cmp.Compare(a.pos, b.pos)
	})
	// Slot i takes the record at keys[i].pos. Walk each cycle once,
	// marking a slot done by pointing its key at itself.
	for i := range keys {
		if keys[i].pos == i {
			continue
		}
		held := recs[i]
		j := i
		for {
			k := keys[j].pos
			keys[j].pos = j
			if k == i {
				recs[j] = held
				break
			}
			recs[j] = recs[k]
			j = k
		}
	}
}

// isSorted reports whether recs is already in (EventTime, RecID) order.
func isSorted(recs []Record) bool {
	for i := 1; i < len(recs); i++ {
		if Before(&recs[i], &recs[i-1]) {
			return false
		}
	}
	return true
}
