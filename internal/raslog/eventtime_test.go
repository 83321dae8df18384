package raslog

import (
	"fmt"
	"slices"
	"testing"
	"time"
)

// calendarSweep is every YYYY-MM-DD with months 00-13 and days 00-32 in
// years that exercise the leap-year rule (0000 and 2000 leap by the 400
// rule, 1900 and 2100 common by the 100 rule, 2004 and 2008 leap by the
// 4 rule, 9999 the last four-digit year), each at clocks that are in
// range and at hour 24, minute 60 and second 60.
func calendarSweep() []string {
	clocks := []string{
		"00.00.00.000000", "15.08.12.285324", "23.59.59.999999",
		"24.00.00.000000", "23.60.00.000000", "23.59.60.000000",
	}
	var out []string
	for _, y := range []int{0, 1900, 2000, 2004, 2008, 2100, 9999} {
		for m := 0; m <= 13; m++ {
			for d := 0; d <= 32; d++ {
				for _, c := range clocks {
					out = append(out, fmt.Sprintf("%04d-%02d-%02d-%s", y, m, d, c))
				}
			}
		}
	}
	return out
}

// TestEventTimeFastPathIsCalendarExact checks the fixed-layout fast
// path against time.Parse over the calendar sweep: it accepts exactly
// the timestamps time.Parse accepts, and its key builds the identical
// time.Time (location included, hence ==).
func TestEventTimeFastPathIsCalendarExact(t *testing.T) {
	accepted := 0
	for _, ts := range calendarSweep() {
		want, err := time.Parse(EventTimeLayout, ts)
		k, ok := parseEventTimeBytes([]byte(ts))
		if ok != (err == nil) {
			t.Fatalf("%s: fast path ok=%v, time.Parse err %v", ts, ok, err)
		}
		if !ok {
			continue
		}
		accepted++
		if got := k.time(); got != want {
			t.Fatalf("%s: fast path built %v, time.Parse %v", ts, got, want)
		}
		if y := k.year(); y != want.Year() {
			t.Fatalf("%s: key year %d, want %d", ts, y, want.Year())
		}
	}
	// 7 years x 365 or 366 days x the 3 in-range clocks; 4 of the years
	// are leap years.
	if want := (7*365 + 4) * 3; accepted != want {
		t.Fatalf("fast path accepted %d timestamps, want %d", accepted, want)
	}
}

// TestEventTimeNonDigitsDeferToParse substitutes non-digit bytes at
// every position of a timestamp (a digit or a separator): the fast path
// never accepts one, and
// the line parse, which falls back to time.Parse, accepts exactly what
// time.Parse accepts (a comma before the fraction, a signed fraction)
// with the identical time.
func TestEventTimeNonDigitsDeferToParse(t *testing.T) {
	const base = "2008-02-29-15.08.12.285324"
	for i := range base {
		for _, c := range []byte{'a', ' ', '+', '-', '.', ',', ':', '/', 0, 0xff} {
			b := []byte(base)
			if b[i] == c {
				continue
			}
			b[i] = c
			ts := string(b)
			if _, ok := parseEventTimeBytes(b); ok {
				t.Fatalf("%q: fast path accepted a non-digit or a moved separator", ts)
			}
			want, err := time.Parse(EventTimeLayout, ts)
			var lf lineFields
			perr := lf.parse([]byte("1|M|KERNEL|s|c|INFO|" + ts + "|f|R00|sn|m"))
			if (perr == nil) != (err == nil) {
				t.Fatalf("%q: line parse err %v, time.Parse err %v", ts, perr, err)
			}
			if err == nil && lf.key.time() != want {
				t.Fatalf("%q: line parse built %v, time.Parse %v", ts, lf.key.time(), want)
			}
		}
	}
}

// TestEventKeyOrdersLikeTime requires the key order to be the time
// order over the accepted calendar sweep, plus fractions only the
// time.Parse fallback accepts.
func TestEventKeyOrdersLikeTime(t *testing.T) {
	var times []time.Time
	for _, ts := range calendarSweep() {
		if tt, err := time.Parse(EventTimeLayout, ts); err == nil {
			times = append(times, tt)
		}
	}
	for _, ts := range []string{"2008-04-14-15.08.12,285324", "2008-04-14-15.08.12.+28532", "0000-01-01-00.00.00,000001"} {
		tt, err := time.Parse(EventTimeLayout, ts)
		if err != nil {
			t.Fatalf("%s: %v", ts, err)
		}
		times = append(times, tt)
	}
	slices.SortFunc(times, func(a, b time.Time) int { return a.Compare(b) })
	for i := range times {
		k := timeKey(times[i])
		if got := k.time(); got != times[i] {
			t.Fatalf("key of %v builds %v", times[i], got)
		}
		if i > 0 {
			prev := timeKey(times[i-1])
			if (prev < k) != times[i-1].Before(times[i]) || (prev == k) != times[i-1].Equal(times[i]) {
				t.Fatalf("keys of %v and %v order unlike the times", times[i-1], times[i])
			}
		}
	}
}

// TestCanonicalLineLength checks the canonical-line shortcut against
// MarshaledLen for lines that differ from their re-marshaling only in
// the recid's spelling, and that a backslash or a fallback timestamp
// leaves the shortcut off.
func TestCanonicalLineLength(t *testing.T) {
	for _, tc := range []struct {
		line      string
		canonical bool
	}{
		{"1|M|KERNEL|s|c|INFO|2008-04-14-15.08.12.285324|f|R00|sn|m", true},
		{"+7|M|MC|s|c|WARNING|2008-04-14-15.08.12.285324|f|R00|sn|", true},
		{"-0|M|MMCS|s|c|ERROR|2008-04-14-15.08.12.285324|f|R00|sn|x", true},
		{"007|M|CARD|s|c|FATAL|0000-02-29-00.00.00.000000|f|R00|sn|m", true},
		{`1|M|KERNEL|s|c|INFO|2008-04-14-15.08.12.285324|f|R00|sn|a\pb`, false},
		{"1|M|KERNEL|s|c|INFO|2008-04-14-15.08.12,285324|f|R00|sn|m", false},
		{"1|M|KERNEL|s|c|INFO|2008-04-14-15.08.12.+28532|f|R00|sn|m", false},
	} {
		var lf lineFields
		if err := lf.parse([]byte(tc.line)); err != nil {
			t.Fatalf("%q: %v", tc.line, err)
		}
		if lf.canonical != tc.canonical {
			t.Fatalf("%q: canonical %v, want %v", tc.line, lf.canonical, tc.canonical)
		}
		r, err := UnmarshalLine(tc.line)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := lf.marshaledLen(&fieldScratch{}), r.MarshaledLen(); got != want {
			t.Fatalf("%q: raw length %d, MarshaledLen %d", tc.line, got, want)
		}
	}
}
