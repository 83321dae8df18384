package raslog

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"
)

func mkRecord(id int64, sev Severity, comp Component, code, loc string, at time.Time) Record {
	return Record{
		RecID: id, MsgID: "M", Component: comp, SubComponent: "S",
		ErrCode: code, Severity: sev, EventTime: at, Flags: "F",
		Location: loc, Serial: "SN", Message: "msg",
	}
}

func TestWriterReaderRoundTrip(t *testing.T) {
	t0 := time.Date(2009, 1, 5, 0, 0, 0, 0, time.UTC)
	recs := []Record{
		mkRecord(1, SevFatal, CompKernel, "a", "R00-M0", t0),
		mkRecord(2, SevInfo, CompMMCS, "b", "R00-M1", t0.Add(time.Second)),
		mkRecord(3, SevWarning, CompCard, "c", "R01", t0.Add(2*time.Second)),
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != 3 {
		t.Errorf("Count = %d", w.Count())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("record %d mismatch: %+v vs %+v", i, got[i], recs[i])
		}
	}
}

func TestReaderSkipsBlankAndReportsLine(t *testing.T) {
	line := mkRecord(1, SevFatal, CompKernel, "a", "R00-M0", time.Unix(0, 0).UTC()).MarshalLine()
	in := line + "\n\n" + "garbage\n"
	r := NewReader(strings.NewReader(in))
	if _, err := r.Read(); err != nil {
		t.Fatalf("first read: %v", err)
	}
	_, err := r.Read()
	if err == nil || err == io.EOF {
		t.Fatalf("want parse error, got %v", err)
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error should name line 3: %v", err)
	}
}

func TestStoreOrderingAndQueries(t *testing.T) {
	t0 := time.Date(2009, 1, 5, 0, 0, 0, 0, time.UTC)
	recs := []Record{
		mkRecord(3, SevFatal, CompKernel, "x", "R00-M1", t0.Add(2*time.Hour)),
		mkRecord(1, SevFatal, CompKernel, "x", "R00-M0", t0),
		mkRecord(2, SevInfo, CompMMCS, "y", "R00-M0", t0.Add(time.Hour)),
		mkRecord(4, SevFatal, CompCard, "z", "R01", t0.Add(3*time.Hour)),
	}
	s := NewStore(recs)
	if s.Len() != 4 {
		t.Fatalf("Len = %d", s.Len())
	}
	all := s.All()
	for i := 1; i < len(all); i++ {
		if all[i].EventTime.Before(all[i-1].EventTime) {
			t.Fatal("store not time-ordered")
		}
	}
	if got := len(s.Fatal()); got != 3 {
		t.Errorf("Fatal count = %d, want 3", got)
	}
	first, last := s.Span()
	if !first.Equal(t0) || !last.Equal(t0.Add(3*time.Hour)) {
		t.Errorf("Span = %v..%v", first, last)
	}
}

func TestStoreSpanEmpty(t *testing.T) {
	s := NewStore(nil)
	first, last := s.Span()
	if !first.IsZero() || !last.IsZero() {
		t.Error("empty span should be zero")
	}
}
