package raslog

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"repro/internal/linescan"
)

// The decode's earlier kernels, kept as the oracles of its word-wise
// timestamp check and its head-only split: a per-digit timestamp parse,
// and a split that finds every field with one IndexByte each and checks
// the whole line for a backslash.

func oracleParseEventTimeBytes(b []byte) (eventKey, bool) {
	if len(b) != 26 || b[4] != '-' || b[7] != '-' || b[10] != '-' || b[13] != '.' || b[16] != '.' || b[19] != '.' {
		return 0, false
	}
	year, ok1 := oracleAtoiFixed(b[0:4])
	month, ok2 := oracleAtoiFixed(b[5:7])
	day, ok3 := oracleAtoiFixed(b[8:10])
	hour, ok4 := oracleAtoiFixed(b[11:13])
	min, ok5 := oracleAtoiFixed(b[14:16])
	sec, ok6 := oracleAtoiFixed(b[17:19])
	micro, ok7 := oracleAtoiFixed(b[20:26])
	if !(ok1 && ok2 && ok3 && ok4 && ok5 && ok6 && ok7) {
		return 0, false
	}
	if month < 1 || month > 12 || day < 1 || hour > 23 || min > 59 || sec > 59 {
		return 0, false
	}
	if days := daysInMonth[month]; day > days && !(month == 2 && day == 29 && isLeap(year)) {
		return 0, false
	}
	return packEventKey(year, month, day, hour, min, sec, micro), true
}

func oracleAtoiFixed(b []byte) (int, bool) {
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

type oracleFields struct {
	f         [numFields][]byte
	id        int64
	comp      Component
	sev       Severity
	key       eventKey
	canonical bool
}

func (lf *oracleFields) parse(line []byte) error {
	n := 0
	rest := line
	for {
		i := bytes.IndexByte(rest, '|')
		if i < 0 {
			if n < numFields {
				lf.f[n] = rest
			}
			n++
			break
		}
		if n < numFields {
			lf.f[n] = rest[:i]
		}
		n++
		rest = rest[i+1:]
	}
	if n != numFields {
		return fmt.Errorf("%w: %d fields, want %d", ErrBadRecord, n, numFields)
	}
	var ok bool
	if lf.id, ok = parseInt64Bytes(lf.f[0]); !ok {
		return fmt.Errorf("%w: recid %q", ErrBadRecord, lf.f[0])
	}
	if lf.comp, ok = parseComponentBytes(lf.f[2]); !ok {
		return fmt.Errorf("%w: raslog: unknown component %q", ErrBadRecord, lf.f[2])
	}
	if lf.sev, ok = parseSeverityBytes(lf.f[5]); !ok {
		return fmt.Errorf("%w: raslog: unknown severity %q", ErrBadRecord, lf.f[5])
	}
	if lf.key, ok = oracleParseEventTimeBytes(lf.f[6]); !ok {
		t, err := ParseEventTime(string(lf.f[6]))
		if err != nil {
			return fmt.Errorf("%w: event time %q", ErrBadRecord, lf.f[6])
		}
		lf.key = timeKey(t)
	}
	lf.canonical = ok && bytes.IndexByte(line, '\\') < 0
	return nil
}

// parse is the FATAL-only decode's split of one line on its own, which
// may hold a backslash.
func (lf *lineFields) parse(line []byte) error {
	return lf.parseIn(line, true)
}

// TestTimestampWordsMatchLayout rebuilds the word patterns and addends
// of the timestamp check from EventTimeLayout's shape.
func TestTimestampWordsMatchLayout(t *testing.T) {
	layout := []byte(EventTimeLayout)
	for i, c := range layout {
		if c >= '0' && c <= '9' {
			layout[i] = '0'
		}
	}
	words := []struct{ off, pattern, addend uint64 }{
		{0, tsPattern0, tsAddend0}, {8, tsPattern1, tsAddend1},
		{16, tsPattern2, tsAddend2}, {18, tsPattern3, tsAddend3},
	}
	for _, w := range words {
		var add [8]byte
		for i, c := range layout[w.off : w.off+8] {
			add[i] = 0x7f
			if c == '0' {
				add[i] = 0x76
			}
		}
		if p := binary.LittleEndian.Uint64(layout[w.off:]); p != w.pattern {
			t.Errorf("word at %d: pattern %#x, layout gives %#x", w.off, w.pattern, p)
		}
		if a := binary.LittleEndian.Uint64(add[:]); a != w.addend {
			t.Errorf("word at %d: addend %#x, layout gives %#x", w.off, w.addend, a)
		}
	}
}

// TestEventTimeWordCheckMatchesOracle sets every byte value at every
// position of timestamps on the month, day and leap edges, and checks
// the word-wise parse against the per-digit one: the same ok and, when
// accepted, the same key. The calendar sweep and lengths 25 and 27 are
// checked the same way.
func TestEventTimeWordCheckMatchesOracle(t *testing.T) {
	check := func(b []byte) {
		t.Helper()
		k, ok := parseEventTimeBytes(b)
		wk, wok := oracleParseEventTimeBytes(b)
		if ok != wok || k != wk {
			t.Fatalf("%q: key %d ok %v, per-digit key %d ok %v", b, k, ok, wk, wok)
		}
	}
	bases := []string{
		"2008-04-14-15.08.12.285324", "2000-02-29-00.00.00.000000",
		"2100-02-29-23.59.59.999999", "2100-02-28-23.59.59.999999",
		"2008-04-31-12.00.00.000000", "2008-04-30-12.00.00.000000",
		"9999-12-31-23.59.59.999999", "0000-01-01-00.00.00.000000",
	}
	for _, base := range bases {
		for i := range base {
			b := []byte(base)
			for c := 0; c < 256; c++ {
				b[i] = byte(c)
				check(b)
			}
		}
		check([]byte(base[:25]))
		check([]byte(base + "0"))
	}
	for _, ts := range calendarSweep() {
		check([]byte(ts))
	}
}

// splitLines are the line shapes of the split parity test: 0 to 14
// separators, a separator at either end, escapes in the head and the
// tail, a trailing CR, lines shorter than 8 bytes, and every validation
// error.
func splitLines() []string {
	fields := strings.Split("1|M|KERNEL|s|c|FATAL|2008-04-14-15.08.12.285324|f|R00|sn|msg|x|y|z|w", "|")
	var out []string
	for k := 1; k <= len(fields); k++ {
		line := strings.Join(fields[:k], "|")
		out = append(out, line, "|"+line, line+"|")
	}
	out = append(out,
		"", "1", "|", "||", "1|2|3", "||||||", "|||||||", "1|M|K|s", strings.Repeat("|", 10),
		`1|M|KERNEL|s|c|INFO|2008-04-14-15.08.12.285324|f|R00|sn|a\pb`,
		`1|M|KERNEL|s|c|INFO|2008-04-14-15.08.12.285324|\p|\\|s\n|a\q`,
		`1|\p|KERNEL|\\|\n|INFO|2008-04-14-15.08.12.285324|f|R00|sn|tail\`,
		"1|M|KERNEL|s|c|INFO|2008-04-14-15.08.12.285324|f|R00|sn|m\r",
		"+7|M|MC|s|c|WARNING|2008-04-14-15.08.12.285324|f|R00|sn|",
		"x|M|KERNEL|s|c|FATAL|2008-04-14-15.08.12.285324|f|R00|sn|m",
		"1|M|NOPE|s|c|FATAL|2008-04-14-15.08.12.285324|f|R00|sn|m",
		"1|M|KERNEL|s|c|LOUD|2008-04-14-15.08.12.285324|f|R00|sn|m",
		"1|M|KERNEL|s|c|INFO|2008-04-14-15.08.12,285324|f|R00|sn|m",
		"1|M|KERNEL|s|c|INFO|2008-04-31-15.08.12.285324|f|R00|sn|m",
		"1|M|KERNEL|s|c|INFO|2100-02-29-15.08.12.285324|f|R00|sn|m",
		"1|M|KERNEL|s|c|INFO|2000-02-29-15.08.12.285324|f|R00|sn|m",
		"1|M|KERNEL|s|c|INFO|2008-04-14|f|R00|sn|m",
	)
	return out
}

// TestSplitMatchesOracle checks the head-only split, with and without
// the per-line backslash search, and the full decoders' one-pass split
// against the every-field split: the same error text, and for an
// accepted line the same fields, typed values, canonical verdict and
// re-marshaled length.
func TestSplitMatchesOracle(t *testing.T) {
	for _, line := range splitLines() {
		var want oracleFields
		wantErr := want.parse([]byte(line))
		noEscape := !strings.Contains(line, `\`)
		for _, mode := range []string{"parse", "parseIn", "parseAll"} {
			if mode == "parseIn" && !noEscape {
				continue // a chunk holding this line would search it
			}
			var lf lineFields
			var err error
			switch mode {
			case "parse":
				err = lf.parse([]byte(line))
			case "parseIn":
				err = lf.parseIn([]byte(line), false)
			case "parseAll":
				err = lf.parseAll([]byte(line))
			}
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%s %q: error %v, oracle %v", mode, line, err, wantErr)
			}
			if err != nil {
				continue
			}
			if mode != "parseAll" && lf.canonical != want.canonical {
				t.Fatalf("%s %q: canonical %v, oracle %v", mode, line, lf.canonical, want.canonical)
			}
			if lf.id != want.id || lf.comp != want.comp || lf.sev != want.sev || lf.key != want.key {
				t.Fatalf("%s %q: typed fields differ from the oracle's", mode, line)
			}
			if mode != "parseAll" {
				r, _ := UnmarshalLine(line)
				if got, want := lf.marshaledLen(&fieldScratch{}), r.MarshaledLen(); got != want {
					t.Fatalf("%s %q: raw length %d, MarshaledLen %d", mode, line, got, want)
				}
			}
			lf.splitTail()
			for i := range lf.f {
				if !bytes.Equal(lf.f[i], want.f[i]) {
					t.Fatalf("%s %q: field %d %q, oracle %q", mode, line, i, lf.f[i], want.f[i])
				}
			}
		}
	}
}

// oracleScan is the FATAL-only decode line by line through the oracle
// split: the Totals and the first error, with its line number, that
// scanFatal must give.
func oracleScan(in string) (Totals, error) {
	var tot Totals
	for i, line := range strings.Split(in, "\n") {
		line = strings.TrimSuffix(line, "\r")
		if line == "" {
			continue
		}
		var lf oracleFields
		if err := lf.parse([]byte(line)); err != nil {
			return tot, fmt.Errorf("line %d: %w", i+1, err)
		}
		r, _ := UnmarshalLine(line)
		fatal := 0
		if r.Fatal() {
			fatal = 1
		}
		tot.merge(Totals{Records: 1, Bytes: r.MarshaledLen() + 1, Fatal: fatal, First: r.EventTime, Last: r.EventTime})
	}
	return tot, nil
}

// TestScanFatalEscapesPerChunk decodes chunks in which one line holds a
// backslash (an unknown escape, which the re-marshaling drops, so a
// missed search changes Table I's bytes) among plain lines, with CRLF
// endings and with every malformed shape of splitLines after them: the
// totals and the error text and line number match the oracle at chunk
// sizes that put the backslash line alone or among others.
func TestScanFatalEscapesPerChunk(t *testing.T) {
	plain := "1|M|KERNEL|s|c|INFO|2008-04-14-15.08.12.285324|f|R00|sn|m\n"
	inputs := []string{
		strings.Repeat(plain, 5) + `2|M|KERNEL|s|c|FATAL|2008-04-14-15.08.13.000000|f|R00|sn|a\qb` + "\n" + strings.Repeat(plain, 5),
		strings.ReplaceAll(strings.Repeat(plain, 3), "\n", "\r\n") + `3|M|MC|s|c|INFO|2008-04-14-15.08.14.000000|\p\z|R00|sn|m` + "\r\n" + plain,
	}
	for _, bad := range splitLines() {
		inputs = append(inputs, inputs[0]+bad+"\n"+plain)
	}
	for _, in := range inputs {
		wantTot, wantErr := oracleScan(in)
		for _, chunk := range []int{64, 1 << 20} {
			tot, err := scanFatal(strings.NewReader(in), linescan.Options{Workers: 1, ChunkBytes: chunk}, func([]Record) error { return nil })
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("chunk %d: error %v, oracle %v\ninput: %q", chunk, err, wantErr, in)
			}
			if tot != wantTot {
				t.Fatalf("chunk %d: totals %+v, oracle %+v\ninput: %q", chunk, tot, wantTot, in)
			}
		}
	}
}
