package repro

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/joblog"
	"repro/internal/raslog"
	"repro/internal/simulate"
)

// campaignLogs is a 30-day, seed-1 campaign at some noise records per
// FATAL one, serialized to both line formats once per test binary.
type campaignLogs struct {
	once      sync.Once
	noise     float64
	ras, jobs []byte
	err       error
}

func (c *campaignLogs) get(tb testing.TB) (ras, jobs []byte) {
	tb.Helper()
	c.once.Do(func() {
		camp, err := simulate.Run(simConfig(Config{Seed: 1, Days: 30, NoisePerFatal: c.noise}))
		if err != nil {
			c.err = err
			return
		}
		c.ras = marshalRAS(camp.RAS.All())
		for _, j := range camp.Jobs.All() {
			c.jobs = j.AppendLine(c.jobs)
			c.jobs = append(c.jobs, '\n')
		}
	})
	if c.err != nil {
		tb.Fatal(c.err)
	}
	return c.ras, c.jobs
}

var (
	// paperCampaign has Intrepid's 62 noise records per FATAL one
	// (paper-batch's shape): the RAS decode does most of the work.
	paperCampaign = &campaignLogs{noise: 62}
	// lightCampaign has 0.5 noise records per FATAL one (noise-light's
	// shape): the job side, analysis and rendering do most of the work.
	lightCampaign = &campaignLogs{noise: 0.5}
)

func marshalRAS(recs []raslog.Record) []byte {
	var buf []byte
	for i := range recs {
		buf = recs[i].AppendLine(buf)
		buf = append(buf, '\n')
	}
	return buf
}

// storeComposition is what Load composed before it stopped retaining
// the noise records: decode every record, sort them all into a Store,
// analyze the Store, and count Table I's bytes by marshaling each
// record.
func storeComposition(t *testing.T, ras, jobs []byte) (*Report, *raslog.Store, error) {
	t.Helper()
	recs, err := raslog.ReadAllParallel(bytes.NewReader(ras), 0)
	if err != nil {
		return nil, nil, fmt.Errorf("repro: reading RAS log: %w", err)
	}
	js, err := joblog.ReadAllParallel(bytes.NewReader(jobs), 0)
	if err != nil {
		t.Fatal(err)
	}
	st, jl := raslog.NewStore(recs), joblog.NewLog(js)
	a, err := core.Analyze(core.DefaultConfig(), st, jl)
	if err != nil {
		t.Fatal(err)
	}
	var ls LogStats
	for _, r := range st.All() {
		ls.RASRecords++
		ls.RASBytes += len(r.MarshalLine()) + 1
		if r.Fatal() {
			ls.FatalRecords++
		}
	}
	ls.First, ls.Last = st.Span()
	if fatal := st.Fatal(); len(fatal) > 0 {
		ls.FirstFatal, ls.HasFatal = fatal[0], true
	}
	return NewStreamReport(a, jl, ls), st, nil
}

// TestLoadMatchesStoreComposition checks that Load, which keeps only
// the FATAL records, renders every artifact and the Summary exactly as
// the retain-everything composition did — on the paper-scale campaign
// and on a shuffled copy with duplicate (EventTime, RecID) FATAL lines
// — and that the sweep ablation re-run over the FATAL records matches
// core.Analyze over the full store.
func TestLoadMatchesStoreComposition(t *testing.T) {
	ras, jobs := paperCampaign.get(t)
	for name, log := range map[string][]byte{
		"paper":      ras,
		"duplicates": withDuplicateFatal(t, ras),
	} {
		t.Run(name, func(t *testing.T) {
			got, err := Load(DefaultConfig(0), bytes.NewReader(log), bytes.NewReader(jobs))
			if err != nil {
				t.Fatal(err)
			}
			want, st, err := storeComposition(t, log, jobs)
			if err != nil {
				t.Fatal(err)
			}
			if got.stats != want.stats {
				t.Fatalf("log stats %+v, want %+v", got.stats, want.stats)
			}
			if name == "duplicates" && got.stats.FirstFatal.Message != "duplicate filed before" {
				t.Fatalf("Table II example %+v is not the first-filed tie", got.stats.FirstFatal)
			}
			if g, w := fmt.Sprintf("%+v", got.Summary()), fmt.Sprintf("%+v", want.Summary()); g != w {
				t.Errorf("summary differs:\n got %s\nwant %s", g, w)
			}
			for art, render := range Artifacts() {
				if art == "sweep" {
					continue // want is a streaming report; compared below
				}
				var gb, wb bytes.Buffer
				gerr, werr := render(got, &gb), render(want, &wb)
				if fmt.Sprint(gerr) != fmt.Sprint(werr) || gb.String() != wb.String() {
					t.Errorf("artifact %s differs (err %v, want %v)", art, gerr, werr)
				}
			}
			windows := []time.Duration{time.Minute, 5 * time.Minute, 15 * time.Minute, time.Hour}
			points, err := got.FilterSensitivity(nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, win := range windows {
				cfg := core.DefaultConfig()
				cfg.Filter.TemporalWindow, cfg.Filter.SpatialWindow = win, win
				a, err := core.Analyze(cfg, st, want.Jobs())
				if err != nil {
					t.Fatal(err)
				}
				wp := SensitivityPoint{Window: win, Events: len(a.Events), Interruptions: len(a.Interruptions)}
				if points[i] != wp {
					t.Errorf("sweep point %d = %+v, want %+v", i, points[i], wp)
				}
			}
		})
	}
}

// withDuplicateFatal returns ras in a shuffled line order with two
// copies of its first FATAL record — same EventTime and RecID, other
// messages — one before and one after it, so Table II's example and
// the FATAL stream depend on ties keeping file order.
func withDuplicateFatal(t *testing.T, ras []byte) []byte {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(string(ras), "\n"), "\n")
	rng := rand.New(rand.NewSource(3))
	rng.Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
	first := -1
	var firstRec raslog.Record
	for i, l := range lines {
		r, err := raslog.UnmarshalLine(l)
		if err != nil {
			t.Fatal(err)
		}
		if r.Fatal() && (first < 0 || raslog.Before(&r, &firstRec)) {
			first, firstRec = i, r
		}
	}
	dup := func(msg string) string {
		r := firstRec
		r.Message = msg
		return r.MarshalLine()
	}
	out := append([]string(nil), lines[:first]...)
	out = append(out, dup("duplicate filed before"), lines[first], dup("duplicate filed after"))
	out = append(out, lines[first+1:]...)
	return []byte(strings.Join(out, "\n") + "\n")
}

// TestLoadErrorsMatchStoreComposition checks that a malformed line in
// a noise record and in a FATAL record fail Load with the error the
// full decode reports.
func TestLoadErrorsMatchStoreComposition(t *testing.T) {
	ras, jobs := paperCampaign.get(t)
	lines := strings.Split(string(ras), "\n")
	for _, fatal := range []bool{false, true} {
		bad := append([]string(nil), lines...)
		for i := len(bad) / 2; i < len(bad); i++ {
			if r, err := raslog.UnmarshalLine(bad[i]); err == nil && r.Fatal() == fatal {
				bad[i] = strings.Replace(bad[i], "|"+r.Severity.String()+"|", "|LOUD|", 1)
				break
			}
		}
		log := []byte(strings.Join(bad, "\n"))
		_, err := Load(DefaultConfig(0), bytes.NewReader(log), bytes.NewReader(jobs))
		_, _, wantErr := storeComposition(t, log, jobs)
		if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
			t.Errorf("fatal=%v: error %v, want %v", fatal, err, wantErr)
		}
	}
}

// slowReader serves its data a few KiB per Read, pausing before each.
// It records the most goroutines any Read saw, and flags any Read that
// starts once done is set: a decode still reading after the call that
// owns it returned.
type slowReader struct {
	data []byte
	// err ends the stream in place of io.EOF when set.
	err        error
	done, late atomic.Bool
	peak       atomic.Int64
}

func (r *slowReader) Read(p []byte) (int, error) {
	if r.done.Load() {
		r.late.Store(true)
	}
	if n := int64(runtime.NumGoroutine()); n > r.peak.Load() {
		r.peak.Store(n)
	}
	time.Sleep(20 * time.Microsecond)
	if len(r.data) == 0 {
		if r.err != nil {
			return 0, r.err
		}
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), 4<<10)], r.data)
	r.data = r.data[n:]
	return n, nil
}

// settledGoroutines waits, for up to a second, until the goroutine
// count is back to want, and returns the last count it saw.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 1000 && n != want; i++ {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestLoadOverlapErrors fails the RAS log (a malformed line, a reader
// that breaks mid-stream or at its first Read), the job log (a
// malformed line) or both, at one worker (decoded one log after the
// other, on the caller's goroutine alone) and at two (the job log
// decodes beside the RAS log). A RAS failure takes precedence over a
// job failure; each error's text, line number included, is the one the
// failing log's own sequential decode reports. A RAS failure stops the
// job decode at its next Read: when the RAS log fails at once, the job
// log is not read to its end. Load returns only once the job half has
// finished: no Read of the job log starts after it returned, and no
// goroutine outlives it.
func TestLoadOverlapErrors(t *testing.T) {
	ras, jobs := lightCampaign.get(t)
	breakLine := func(log []byte, at int, bad string) []byte {
		lines := strings.Split(string(log), "\n")
		lines[at] = bad
		return []byte(strings.Join(lines, "\n"))
	}
	rasLines, jobLines := bytes.Count(ras, []byte("\n")), bytes.Count(jobs, []byte("\n"))
	badRAS := breakLine(ras, rasLines*2/3, "RAS|not|a|record")
	badJobs := breakLine(jobs, jobLines*2/3, "not|a|job")
	boom := errors.New("boom")

	// want is the error text of the sequential decode of the log that
	// fails first: the RAS log whenever it fails at all.
	seqErr := func(rasSrc func() *slowReader, jobs []byte) string {
		if _, err := raslog.ReadAllParallel(rasSrc(), 1); err != nil {
			return fmt.Sprintf("repro: reading RAS log: %v", err)
		}
		_, err := joblog.ReadAllParallel(bytes.NewReader(jobs), 1)
		return fmt.Sprintf("repro: reading job log: %v", err)
	}
	rasOf := func(b []byte) func() *slowReader { return func() *slowReader { return &slowReader{data: b} } }
	// The reader breaks after a whole line, halfway through the log.
	cut := bytes.LastIndexByte(ras[:len(ras)/2], '\n') + 1
	breaking := func() *slowReader { return &slowReader{data: ras[:cut], err: boom} }
	failing := func() *slowReader { return &slowReader{err: boom} }
	for _, tc := range []struct {
		name string
		ras  func() *slowReader
		jobs []byte
		// stopsJobs: the RAS log fails long before the job log could
		// be read to its end.
		stopsJobs bool
	}{
		{"bad RAS and job lines", rasOf(badRAS), badJobs, false},
		{"bad job line", rasOf(ras), badJobs, false},
		{"RAS reader fails", breaking, jobs, false},
		{"RAS reader fails, bad job line", breaking, badJobs, false},
		{"RAS reader fails at once", failing, jobs, true},
	} {
		want := seqErr(tc.ras, tc.jobs)
		if !strings.Contains(want, "line ") && !strings.Contains(want, boom.Error()) {
			t.Fatalf("%s: the sequential decodes found no bad line or read error: %s", tc.name, want)
		}
		for _, p := range []int{1, 2} {
			before := runtime.NumGoroutine()
			rr, jr := tc.ras(), &slowReader{data: tc.jobs}
			_, err := Load(Config{Parallelism: p}, rr, jr)
			jr.done.Store(true)
			if err == nil || err.Error() != want {
				t.Errorf("%s, parallelism %d: error %v, want %s", tc.name, p, err, want)
			}
			if n := settledGoroutines(before); n != before {
				t.Errorf("%s, parallelism %d: %d goroutines after Load, %d before", tc.name, p, n, before)
			}
			if jr.late.Load() {
				t.Errorf("%s, parallelism %d: the job log was still being read after Load returned", tc.name, p)
			}
			if tc.stopsJobs && len(jr.data) == 0 {
				t.Errorf("%s, parallelism %d: the job log was read to its end after the RAS log failed", tc.name, p)
			}
			if peak := max(rr.peak.Load(), jr.peak.Load()); p == 1 && peak > int64(before) {
				t.Errorf("%s, parallelism 1: %d goroutines during Load, %d before", tc.name, peak, before)
			}
		}
	}
}

// TestRenderAllSequentialStartsNoGoroutine checks that RenderAll at one
// worker renders every artifact on the caller's goroutine, and at two
// still renders them all, in order, with the same bytes.
func TestRenderAllSequentialStartsNoGoroutine(t *testing.T) {
	ras, jobs := lightCampaign.get(t)
	last := &renderSteps[len(renderSteps)-1]
	saved := last.render
	defer func() { last.render = saved }()
	var peak int
	last.render = func(r *Report, w io.Writer) error {
		peak = runtime.NumGoroutine()
		return saved(r, w)
	}
	var outs [2]bytes.Buffer
	for i, p := range []int{1, 2} {
		rep, err := Load(Config{Parallelism: p}, bytes.NewReader(ras), bytes.NewReader(jobs))
		if err != nil {
			t.Fatal(err)
		}
		before := runtime.NumGoroutine()
		peak = 0
		if err := rep.RenderAll(&outs[i]); err != nil {
			t.Fatal(err)
		}
		rep.Close()
		if p == 1 && peak != before {
			t.Errorf("parallelism 1: %d goroutines while rendering, %d before", peak, before)
		}
		if peak == 0 {
			t.Errorf("parallelism %d: the last artifact did not render", p)
		}
	}
	if !bytes.Equal(outs[0].Bytes(), outs[1].Bytes()) {
		t.Error("RenderAll's output differs between one worker and two")
	}
}

// TestObserveRASAllocFree pins ObserveRAS, which runs once per record
// of a simulated campaign and of the serving layer's ingest, to zero
// allocations. The RecIDs are raised to a production log's size: Go
// boxes integers below 256 without allocating, so small IDs would hide
// a boxed or formatted RecID.
func TestObserveRASAllocFree(t *testing.T) {
	camp, _ := quickCampaign(t)
	st := camp.RAS
	recs := append(st.All()[:32:32], st.Fatal()[:32]...)
	for i := range recs {
		recs[i].RecID += 1 << 40
	}
	var ls LogStats
	if n := testing.AllocsPerRun(100, func() {
		for i := range recs {
			ls.ObserveRAS(&recs[i])
		}
	}); n != 0 {
		t.Fatalf("ObserveRAS allocates %v times per run", n)
	}
}

// TestObserveRASOrderIndependent checks that observing records in any
// order gives what observing them sorted gives, ties included: among
// full (EventTime, RecID) ties the earliest observed is FirstFatal, as
// the stable sort keeps it first. Chunk aggregates merged in order
// agree too.
func TestObserveRASOrderIndependent(t *testing.T) {
	base := time.Date(2008, 4, 1, 0, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(7))
	var recs []raslog.Record
	for i := 0; i < 400; i++ {
		sev := raslog.SevInfo
		if i%3 == 0 {
			sev = raslog.SevFatal
		}
		recs = append(recs, raslog.Record{
			RecID:     int64(rng.Intn(3)),
			Component: raslog.CompKernel,
			Severity:  sev,
			EventTime: base.Add(time.Duration(rng.Intn(20)) * time.Second),
			Message:   fmt.Sprintf("arrival %d", i),
		})
	}
	sorted := append([]raslog.Record(nil), recs...)
	raslog.SortStable(sorted)
	var want, got, merged LogStats
	for i := range sorted {
		want.ObserveRAS(&sorted[i])
	}
	for i := range recs {
		got.ObserveRAS(&recs[i])
	}
	for start := 0; start < len(recs); start += 45 {
		var part LogStats
		for i := start; i < min(start+45, len(recs)); i++ {
			part.ObserveRAS(&recs[i])
		}
		merged.Merge(&part)
	}
	if want.FirstFatal != firstFatal(sorted) {
		t.Fatalf("sorted FirstFatal %+v is not the first FATAL record", want.FirstFatal)
	}
	if got != want {
		t.Fatalf("shuffled %+v\n  sorted %+v", got, want)
	}
	if merged != want {
		t.Fatalf("merged %+v\n  sorted %+v", merged, want)
	}
}

func firstFatal(recs []raslog.Record) raslog.Record {
	for _, r := range recs {
		if r.Fatal() {
			return r
		}
	}
	return raslog.Record{}
}

// BenchmarkLoad measures batch coanalyze in process: Load plus
// RenderAll over the serialized 30-day seed-1 campaign, at the paper's
// 62 noise records per FATAL one (paper-batch's logs) and at 0.5
// (noise-light's shape). Run with -benchmem and -cpuprofile to see
// where decode, analysis and rendering spend; it is not in the
// bgpbench-gated set.
func BenchmarkLoad(b *testing.B) {
	for _, c := range []*campaignLogs{paperCampaign, lightCampaign} {
		b.Run(fmt.Sprintf("noise=%g", c.noise), func(b *testing.B) {
			ras, jobs := c.get(b)
			b.SetBytes(int64(len(ras) + len(jobs)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := Load(DefaultConfig(0), bytes.NewReader(ras), bytes.NewReader(jobs))
				if err != nil {
					b.Fatal(err)
				}
				var out bytes.Buffer
				if err := rep.RenderAll(&out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
