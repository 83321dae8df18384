package raslog

import (
	"errors"
	"io"
	"strings"
	"testing"
	"time"
)

// failingWriter errors after n bytes.
type failingWriter struct {
	budget int
}

var errDiskFull = errors.New("disk full")

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) > w.budget {
		n := w.budget
		w.budget = 0
		return n, errDiskFull
	}
	w.budget -= len(p)
	return len(p), nil
}

func TestWriterStickyError(t *testing.T) {
	w := NewWriter(&failingWriter{budget: 10})
	rec := mkRecord(1, SevFatal, CompKernel, "x", "R00-M0", time.Unix(0, 0).UTC())
	// The bufio layer may absorb several writes before flushing hits the
	// failure; Flush must surface it and subsequent writes must keep
	// failing.
	for i := 0; i < 100; i++ {
		if err := w.Write(&rec); err != nil {
			break
		}
	}
	if err := w.Flush(); err == nil {
		t.Fatal("Flush succeeded on a failing writer")
	}
	if err := w.Write(&rec); err == nil {
		t.Fatal("Write succeeded after sticky error")
	}
	if err := w.Flush(); err == nil {
		t.Fatal("second Flush succeeded after sticky error")
	}
}

func TestReaderHandlesLongMessage(t *testing.T) {
	rec := mkRecord(1, SevFatal, CompKernel, "x", "R00-M0", time.Unix(0, 0).UTC())
	rec.Message = strings.Repeat("y", 200_000) // bigger than default scanner buffer
	r := NewReader(strings.NewReader(rec.MarshalLine() + "\n"))
	got, err := r.Read()
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if len(got.Message) != 200_000 {
		t.Errorf("message truncated to %d", len(got.Message))
	}
	if _, err := r.Read(); err != io.EOF {
		t.Errorf("want EOF, got %v", err)
	}
}

func TestReadAllStopsAtFirstBadLine(t *testing.T) {
	good := mkRecord(1, SevFatal, CompKernel, "x", "R00-M0", time.Unix(0, 0).UTC()).MarshalLine()
	in := good + "\n" + "corrupted|line\n" + good + "\n"
	recs, err := NewReader(strings.NewReader(in)).ReadAll()
	if err == nil {
		t.Fatal("corrupted line accepted")
	}
	if len(recs) != 1 {
		t.Errorf("recovered %d records before the error, want 1", len(recs))
	}
}

func TestUnmarshalRejectsTruncatedTimestamp(t *testing.T) {
	rec := mkRecord(1, SevFatal, CompKernel, "x", "R00-M0", time.Unix(0, 0).UTC())
	line := rec.MarshalLine()
	// Chop microseconds off the timestamp field.
	broken := strings.Replace(line, ".000000|", ".0000|", 1)
	if broken == line {
		t.Fatal("test setup: timestamp not found")
	}
	if _, err := UnmarshalLine(broken); err == nil {
		t.Error("truncated timestamp accepted")
	}
}
