package raslog

import (
	"math/rand"
	"strings"
	"testing"
	"time"
)

// perByteEscape is the escaper appendEscaped replaced, kept as its
// oracle: it tests every byte and copies the runs between escaped ones.
func perByteEscape(dst []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); i++ {
		var esc byte
		switch s[i] {
		case '\\':
			esc = '\\'
		case '|':
			esc = 'p'
		case '\n':
			esc = 'n'
		default:
			continue
		}
		dst = append(dst, s[start:i]...)
		dst = append(dst, '\\', esc)
		start = i + 1
	}
	return append(dst, s[start:]...)
}

func checkEscape(t *testing.T, s string) {
	t.Helper()
	want := string(perByteEscape([]byte("x|"), s))
	if got := string(appendEscaped([]byte("x|"), s)); got != want {
		t.Fatalf("appendEscaped(%q) = %q, want %q", s, got, want)
	}
	wantIdx := strings.IndexAny(s, "\\|\n")
	if got := indexEscaped(s); got != wantIdx {
		t.Fatalf("indexEscaped(%q) = %d, want %d", s, got, wantIdx)
	}
}

// TestAppendEscapedMatchesPerByte puts every byte value at every
// position of fields of length 0-40, alone and after an escaped byte
// earlier in the field, and compares appendEscaped with the per-byte
// escaper. The second filler has the high bit set, where the word
// test's borrow could leak into the next byte.
func TestAppendEscapedMatchesPerByte(t *testing.T) {
	for _, fill := range []byte{'a', 0x80 | '|'} {
		for n := 0; n <= 40; n++ {
			b := []byte(strings.Repeat(string(fill), n))
			checkEscape(t, string(b))
			for pos := 0; pos < n; pos++ {
				for c := 0; c < 256; c++ {
					b[pos] = byte(c)
					checkEscape(t, string(b))
					if pos > 0 {
						b[pos/2] = '|'
						checkEscape(t, string(b))
						b[pos/2] = fill
					}
				}
				b[pos] = fill
			}
		}
	}
	rng := rand.New(rand.NewSource(3))
	alphabet := []byte("ab\\|\n\x00\xff")
	for i := 0; i < 5000; i++ {
		b := make([]byte, rng.Intn(64))
		for j := range b {
			b[j] = alphabet[rng.Intn(len(alphabet))]
		}
		checkEscape(t, string(b))
	}
}

func checkEventTime(t *testing.T, at time.Time) {
	t.Helper()
	want := at.UTC().AppendFormat([]byte("x|"), EventTimeLayout)
	if got := appendEventTime([]byte("x|"), at); string(got) != string(want) {
		t.Fatalf("appendEventTime(%v) = %q, want %q", at, got, want)
	}
	if got := FormatEventTime(at); got != string(want[2:]) {
		t.Fatalf("FormatEventTime(%v) = %q, want %q", at, got, want[2:])
	}
}

// TestAppendEventTimeMatchesAppendFormat compares the digit writer with
// time.AppendFormat: every day of years around each leap-rule edge, a
// stride across years 0-9999, the years outside that range that go to
// AppendFormat, non-UTC locations, monotonic readings and
// sub-microsecond nanoseconds, which the layout truncates.
func TestAppendEventTimeMatchesAppendFormat(t *testing.T) {
	for _, y := range []int{0, 1, 3, 4, 99, 100, 1600, 1700, 1899, 1900, 1969, 1970, 2000, 2008, 2009, 2100, 2400, 3000, 9999} {
		for at := time.Date(y, 1, 1, 0, 0, 0, 0, time.UTC); at.Year() == y; at = at.Add(24*time.Hour + 1234567*time.Microsecond) {
			checkEventTime(t, at)
		}
	}
	// A stride of 997 hours and 1.5 seconds visits every month, day and
	// second of day across the fast range many times over.
	for at := time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC); at.Year() < 10000; at = at.Add(997*time.Hour + 1500*time.Millisecond) {
		checkEventTime(t, at)
	}
	edges := []time.Time{
		time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(0, 2, 29, 12, 0, 0, 0, time.UTC),
		time.Date(-1, 12, 31, 23, 59, 59, 999999999, time.UTC),
		time.Date(-1, 6, 1, 0, 0, 0, 0, time.UTC),
		time.Date(1600, 2, 29, 23, 59, 59, 999999999, time.UTC),
		time.Date(3000, 3, 1, 0, 0, 0, 1, time.UTC),
		time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC),
		time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(12345, 6, 7, 8, 9, 10, 11000, time.UTC),
		time.Date(-4713, 11, 24, 12, 0, 0, 0, time.UTC),
		time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC),
		{},
		time.Unix(0, 0),
		time.Unix(-1, 999999999),
		time.Unix(1<<40, 0),
		time.Unix(-1<<40, 0),
	}
	for _, at := range edges {
		checkEventTime(t, at)
	}
	// Sub-microsecond nanoseconds are truncated, not rounded.
	base := time.Date(2008, 4, 14, 15, 8, 12, 285324000, time.UTC)
	for _, ns := range []int{0, 1, 499, 500, 501, 999} {
		checkEventTime(t, base.Add(time.Duration(ns)))
	}
	// Locations east and west of UTC, at the day, month and year
	// boundaries their offsets move across.
	zones := []*time.Location{time.FixedZone("E14", 14*3600), time.FixedZone("W12", -12*3600), time.FixedZone("odd", 5*3600+45*60+17), time.Local}
	for _, loc := range zones {
		for _, at := range []time.Time{
			time.Date(2009, 1, 1, 0, 0, 0, 0, loc),
			time.Date(2008, 12, 31, 23, 59, 59, 999999000, loc),
			time.Date(2008, 2, 29, 5, 30, 0, 123456789, loc),
			time.Date(0, 1, 1, 3, 0, 0, 0, loc),
			time.Date(9999, 12, 31, 20, 0, 0, 0, loc),
		} {
			checkEventTime(t, at)
		}
	}
	// Times carrying a monotonic reading, as time.Now returns them.
	now := time.Now()
	for i := 0; i < 1000; i++ {
		checkEventTime(t, now.Add(time.Duration(i)*7919*time.Microsecond+time.Duration(i)))
	}
}
