package store

import (
	"math/rand"
	"os"
	"testing"
)

// TestSpoolResidentMatchesSpilled spools the same rows, in file order
// and with duplicate (time, RecID) keys, into one directory: without a
// budget, then under two budgets that force flushes, the second with
// fewer runs than the first left behind. The unbudgeted spool writes
// nothing; every catalog holds exactly its own spool's runs and merges
// back, on every replay, to the stable (time, RecID) order of the FATAL
// rows, and the cascade's query refutes every noise run unread.
func TestSpoolResidentMatchesSpilled(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rows := randomRows(rng, 600)
	// Same key, other code: the merge must keep arrival order among them.
	for _, r := range rows[:40] {
		r.code = "dup"
		rows = append(rows, r)
	}
	var want []testRow
	for _, r := range sortRows(rows) {
		if r.sev == 6 {
			want = append(want, r)
		}
	}
	fatalOnly := Query{SevMask: 1 << 6}
	dir := t.TempDir()
	for _, budget := range []int64{0, 500, 4000} {
		sp := NewSpool(dir, budget)
		for _, r := range rows {
			if err := sp.Add(r.recID, r.timeNS, r.code, r.loc, r.comp, r.sev, r.sev == 6, 40); err != nil {
				t.Fatal(err)
			}
		}
		cat, st, err := sp.Finish()
		if err != nil {
			t.Fatal(err)
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if budget == 0 && (len(ents) != 0 || st.Flushes != 0 || st.SpilledBytes != 0 || st.Runs != 2) {
			t.Fatalf("no budget: %d files, stats %+v; want nothing on disk and two resident runs", len(ents), st)
		}
		if budget > 0 && (st.Flushes == 0 || len(ents) < st.Runs || st.SpilledBytes == 0) {
			t.Fatalf("budget %d: %d files, stats %+v; want flushed runs on disk", budget, len(ents), st)
		}
		for replay := 0; replay < 2; replay++ {
			m, err := cat.Merge(fatalOnly)
			if err != nil {
				t.Fatal(err)
			}
			checkRows(t, drain(t, m), want)
			if ms := m.Stats(); ms.Skipped == 0 || ms.Segments != st.Runs {
				t.Fatalf("budget %d: merge stats %+v, want every noise run of %d skipped", budget, ms, st.Runs)
			}
		}
		if err := cat.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
