package filter

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/raslog"
	"repro/internal/symtab"
)

// streamLog marshals records in shuffled-but-deterministic file order;
// PipelineFromLog must re-establish (EventTime, RecID) order itself.
func streamLog(t *testing.T, recs []raslog.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := raslog.NewWriter(&buf)
	for i := range recs {
		// Interleave from both ends so file order != time order.
		j := i / 2
		if i%2 == 1 {
			j = len(recs) - 1 - i/2
		}
		if err := w.Write(recs[j]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPipelineFromLogMatchesStore checks the streaming entry point
// against the load-everything path: same events, same stats, same
// symbol numbering, even when the file is not time-ordered. The decode's
// worker-count determinism is raslog's TestReadFatalMatchesSequential.
func TestPipelineFromLogMatchesStore(t *testing.T) {
	recs := syntheticRecords(900)
	log := streamLog(t, recs)

	store := raslog.NewStore(recs)
	cfg := DefaultConfig()
	wantTab := symtab.NewTable()
	wantEv, wantSt := Pipeline(cfg, wantTab, store.Fatal())
	want := wantTab.Freeze()

	tab := symtab.NewTable()
	gotEv, gotSt, err := PipelineFromLog(cfg, tab, bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if gotSt != wantSt {
		t.Fatalf("stats %+v, want %+v", gotSt, wantSt)
	}
	if len(gotEv) != len(wantEv) {
		t.Fatalf("%d events, want %d", len(gotEv), len(wantEv))
	}
	for i := range gotEv {
		if !eventsEqual(gotEv[i], wantEv[i]) {
			t.Fatalf("event %d differs:\n got %+v\nwant %+v", i, gotEv[i], wantEv[i])
		}
	}
	// The event Code comparisons above are only meaningful because the
	// streaming path must also assign identical IDs.
	got := tab.Freeze()
	if !reflect.DeepEqual(got.Errcodes.All(), want.Errcodes.All()) ||
		!reflect.DeepEqual(got.Locations.All(), want.Locations.All()) {
		t.Fatal("symtab numbering diverges from store path")
	}
}

func TestPipelineFromLogPropagatesDecodeError(t *testing.T) {
	recs := syntheticRecords(50)
	log := append(streamLog(t, recs), []byte("corrupt line\n")...)
	_, _, err := PipelineFromLog(DefaultConfig(), symtab.NewTable(), bytes.NewReader(log))
	if err == nil || !strings.Contains(err.Error(), "line 51") {
		t.Fatalf("want decode error naming line 51, got %v", err)
	}
}

func eventsEqual(a, b *Event) bool {
	if a.Code != b.Code || a.Component != b.Component || a.Size != b.Size ||
		!a.First.Equal(b.First) || !a.Last.Equal(b.Last) || len(a.Midplanes) != len(b.Midplanes) {
		return false
	}
	for i := range a.Midplanes {
		if a.Midplanes[i] != b.Midplanes[i] {
			return false
		}
	}
	return true
}

// syntheticRecords builds a deterministic FATAL+noise mix with storm
// structure so every cascade stage has work to do.
func syntheticRecords(n int) []raslog.Record {
	base := time.Date(2008, 4, 1, 0, 0, 0, 0, time.UTC)
	codes := []string{"code_a", "code_b", "code_c"}
	var out []raslog.Record
	for i := 0; i < n; i++ {
		sev := raslog.SevInfo
		if i%4 == 0 {
			sev = raslog.SevFatal
		}
		out = append(out, raslog.Record{
			RecID:     int64(i + 1),
			MsgID:     "KERN_0802",
			Component: raslog.CompKernel,
			ErrCode:   codes[(i/7)%len(codes)],
			Severity:  sev,
			EventTime: base.Add(time.Duration(i/3) * 90 * time.Second),
			Flags:     "L",
			Location:  "R0" + string(rune('0'+(i%5))) + "-M0",
			Serial:    "SN",
			Message:   "m",
		})
	}
	return out
}
