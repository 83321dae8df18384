package raslog

import (
	"bytes"
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
			// One record per line at most, so the shard never regrows:
			// with the pipeline's chunks in flight, the regrowth garbage
			// raised the decode's peak heap.
			out := make([]Record, 0, bytes.Count(chunk, []byte{'\n'})+1)
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

// ScanFatal decodes a RAS log stream for the co-analysis, which reads
// only FATAL records: it hands each FATAL record to fn in file order and
// returns the Totals of the whole stream. Every line is validated
// exactly as ReadAll validates it, with the same error and line number,
// but only FATAL lines are materialized; a noise line is accounted from
// its raw fields and never builds a time.Time. The shards are
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

// fatalChunk is one chunk's share of a FATAL-only decode.
type fatalChunk struct {
	fatal []Record
	tot   Totals
}

// tally is Totals folded over one chunk with the event times kept as
// keys, so a line costs a key comparison; totals builds the two
// time.Time values once per chunk.
type tally struct {
	records, bytes, fatal int
	first, last           eventKey
}

// observe folds one record, given by its event-time key, severity and
// re-marshaled line length (newline included).
func (c *tally) observe(k eventKey, fatal bool, lineLen int) {
	if c.records == 0 || k < c.first {
		c.first = k
	}
	if c.records == 0 || k > c.last {
		c.last = k
	}
	c.records++
	c.bytes += lineLen
	if fatal {
		c.fatal++
	}
}

func (c *tally) totals() Totals {
	if c.records == 0 {
		return Totals{}
	}
	return Totals{Records: c.records, Bytes: c.bytes, Fatal: c.fatal, First: c.first.time(), Last: c.last.time()}
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
			var tl tally
			var lf lineFields
			// A generated log holds no backslash at all, so one search
			// per chunk spares every line its own.
			escapes := bytes.IndexByte(chunk, '\\') >= 0
			err := linescan.ForEachLine(chunk, firstLine, func(line []byte, n int) error {
				if len(line) == 0 {
					return nil
				}
				if err := lf.parseIn(line, escapes); err != nil {
					return fmt.Errorf("line %d: %w", n, err)
				}
				fatal := lf.sev == SevFatal
				tl.observe(lf.key, fatal, lf.marshaledLen(&fs)+1)
				if fatal {
					var rec Record
					lf.fill(&rec, &fs)
					c.fatal = append(c.fatal, rec)
				}
				return nil
			})
			c.tot = tl.totals()
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
