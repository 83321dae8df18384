package raslog

import (
	"bytes"
	"fmt"
	"io"
	"math"
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

// unixToInternal is the number of seconds from January 1 of year 1 to
// the Unix epoch.
const unixToInternal = (1969*365 + 1969/4 - 1969/100 + 1969/400) * 86400

// signBit flips a two's-complement key into one whose unsigned order is
// its signed order.
const signBit = 1 << 63

// SortStable sorts recs into (EventTime, RecID) order, keeping input
// order among full ties. It never compares or moves a Record while it
// sorts. It copies the order key into pointer-free uint32 columns,
// indexed by input position: the event time's seconds (two columns),
// its nanoseconds, and the RecID (two columns). A least-significant-
// digit radix sort then orders the positions a byte at a time, from the
// RecID's low column up to the seconds' high one. Each pass is stable,
// so positions that tie on every key keep input order, and a byte every
// key shares costs no pass. Finally each record moves once, following
// the permutation's cycles in place. The columns and the two position
// buffers are one allocation of 28 bytes a record; no record-sized
// buffer is allocated.
//
// The seconds count from January 1 of year 1, time.Time's own epoch.
// time.Time keeps them in an int64, and Unix subtracts unixToInternal
// from them with wrapping arithmetic, so adding it back recovers them
// exactly. The order is exact for every instant a time.Time can hold,
// including those outside UnixNano's range (years 1678-2262). The
// columns hold wall-clock instants. Before agrees with them on every
// pair except two times whose monotonic clock readings disagree with
// their wall clocks (a clock step between the two time.Now calls);
// Before compares those by the readings. The module's records carry
// no readings: they are built with time.Date and Add, or decoded.
func SortStable(recs []Record) {
	n := len(recs)
	if n < 2 {
		return
	}
	if uint64(n) > math.MaxUint32 {
		panic("raslog: SortStable over more than MaxUint32 records")
	}
	cols := make([]uint32, 7*n)
	col := func(k int) []uint32 { return cols[k*n : (k+1)*n : (k+1)*n] }
	idLo, idHi, nsec, secLo, secHi := col(0), col(1), col(2), col(3), col(4)
	order, spare := col(5), col(6)
	for i := range recs {
		t := recs[i].EventTime
		sec := uint64(t.Unix()+unixToInternal) ^ signBit
		id := uint64(recs[i].RecID) ^ signBit
		idLo[i], idHi[i] = uint32(id), uint32(id>>32)
		nsec[i] = uint32(t.Nanosecond())
		secLo[i], secHi[i] = uint32(sec), uint32(sec>>32)
		order[i] = uint32(i)
	}
	for _, key := range [][]uint32{idLo, idHi, nsec, secLo, secHi} {
		order, spare = radixSortBy(order, spare, key)
	}
	permute(recs, order)
}

// radixSortBy stably sorts the positions in order by key[position],
// one byte at a time from the lowest, scattering between order and
// spare. It returns the sorted positions and the other buffer. One read
// of key counts every byte's values; a byte that every key shares is
// skipped. key must not be empty.
func radixSortBy(order, spare, key []uint32) (sorted, other []uint32) {
	var counts [4][256]uint32
	for _, k := range key {
		counts[0][byte(k)]++
		counts[1][byte(k>>8)]++
		counts[2][byte(k>>16)]++
		counts[3][byte(k>>24)]++
	}
	for b := range counts {
		c := &counts[b]
		shift := uint(8 * b)
		if c[byte(key[0]>>shift)] == uint32(len(key)) {
			continue
		}
		var start uint32
		for d, m := range c {
			c[d], start = start, start+m
		}
		for _, p := range order {
			d := byte(key[p] >> shift)
			spare[c[d]] = p
			c[d]++
		}
		order, spare = spare, order
	}
	return order, spare
}

// permute moves recs[from[i]] to slot i for every i, walking each cycle
// of the permutation once and marking a slot done by pointing it at
// itself. It moves each record once and allocates nothing.
func permute(recs []Record, from []uint32) {
	for i := range from {
		if int(from[i]) == i {
			continue
		}
		held := recs[i]
		j := i
		for {
			k := int(from[j])
			from[j] = uint32(j)
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
