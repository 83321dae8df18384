package main

import (
	"encoding/json"
	"os"
	"runtime/metrics"
	"sort"
	"time"
)

// A span covers one call into a layer, made from the benchmark's own
// code. A plain span's busy time is its wall interval. A loop that
// alternates between layers per record (decode, then spool, then decode
// again) keeps one accumulating span per layer under a plain parent
// span for the loop: each child adds the intervals of its calls, and
// heap allocation is read only at the parent's boundaries, never per
// record.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: top level
	Run    string `json:"run"`
	Name   string `json:"name"`
	// Start and End are seconds since the trace began.
	Start float64 `json:"start_s"`
	End   float64 `json:"end_s"`
	Busy  float64 `json:"busy_s"`
	In    int64   `json:"records_in"`
	Out   int64   `json:"records_out"`
	// Alloc is the heap bytes allocated between the span's boundaries,
	// its children's included; 0 for accumulating spans.
	Alloc uint64 `json:"alloc_bytes"`

	alloc0 uint64
	busy   time.Duration
}

// tracer records spans in memory. A nil *tracer records nothing, so the
// untraced and traced runs share one code path.
type tracer struct {
	run    string
	t0     time.Time
	spans  []*span
	open   []*span // plain spans not yet ended, innermost last
	sample []metrics.Sample
}

func newTracer(run string) *tracer {
	return &tracer{
		run:    run,
		t0:     time.Now(),
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

func (t *tracer) allocated() uint64 {
	metrics.Read(t.sample)
	if t.sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return t.sample[0].Value.Uint64()
}

func (t *tracer) add(name string) *span {
	s := &span{ID: len(t.spans) + 1, Run: t.run, Name: name}
	if n := len(t.open); n > 0 {
		s.Parent = t.open[n-1].ID
	}
	s.Start = time.Since(t.t0).Seconds()
	t.spans = append(t.spans, s)
	return s
}

// begin opens a plain span nested in the innermost open one.
func (t *tracer) begin(name string) *span {
	if t == nil {
		return nil
	}
	s := t.add(name)
	s.alloc0 = t.allocated()
	t.open = append(t.open, s)
	return s
}

// end closes s, the innermost open span, with its record counts.
func (t *tracer) end(s *span, in, out int) {
	if t == nil {
		return
	}
	s.End = time.Since(t.t0).Seconds()
	s.Busy = s.End - s.Start
	s.Alloc = t.allocated() - s.alloc0
	s.In, s.Out = int64(in), int64(out)
	t.open = t.open[:len(t.open)-1]
}

// accum opens an accumulating span nested in the innermost open span;
// its calls are timed with lap and it is closed by finish.
func (t *tracer) accum(name string) *span {
	if t == nil {
		return nil
	}
	return t.add(name)
}

// lap charges the time since *mark to s as one call and moves *mark to
// now. Timing a loop body as consecutive laps takes one clock read per
// layer boundary; untraced, it reads no clock.
func (s *span) lap(mark *time.Time) {
	if s == nil {
		return
	}
	now := time.Now()
	s.busy += now.Sub(*mark)
	s.In++
	*mark = now
}

// finish closes an accumulating span with its output count.
func (t *tracer) finish(s *span, out int) {
	if t == nil {
		return
	}
	s.End = time.Since(t.t0).Seconds()
	s.Busy = s.busy.Seconds()
	s.Out = int64(out)
}

// ledgerRow is one layer's share of a traced run: all spans of a name
// summed. Self time is busy time minus the busy time of direct children.
type ledgerRow struct {
	Name  string  `json:"name"`
	Self  float64 `json:"self_s"`
	Busy  float64 `json:"busy_s"`
	Calls int     `json:"calls"`
	In    int64   `json:"records_in"`
	Out   int64   `json:"records_out"`
	Alloc uint64  `json:"alloc_bytes"`
}

// ledger folds spans into per-name rows in order of first appearance
// and returns them with the total self time they account for.
func ledger(spans []*span) (rows []ledgerRow, attributed float64) {
	child := make(map[int]float64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.Busy
		}
	}
	at := make(map[string]int)
	for _, s := range spans {
		i, ok := at[s.Name]
		if !ok {
			i = len(rows)
			at[s.Name] = i
			rows = append(rows, ledgerRow{Name: s.Name})
		}
		r := &rows[i]
		self := s.Busy - child[s.ID]
		r.Self += self
		r.Busy += s.Busy
		r.Calls++
		r.In += s.In
		r.Out += s.Out
		r.Alloc += s.Alloc
		attributed += self
	}
	return rows, attributed
}

// row returns the ledger row of the given name (zero if absent).
func row(rows []ledgerRow, name string) ledgerRow {
	for _, r := range rows {
		if r.Name == name {
			return r
		}
	}
	return ledgerRow{Name: name}
}

// traceFile is what -trace writes: every span of the traced run.
type traceFile struct {
	Run          string      `json:"run"`
	Total        float64     `json:"total_s"`
	Unattributed float64     `json:"unattributed_s"`
	Ledger       []ledgerRow `json:"ledger"`
	Spans        []*span     `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	b, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// sortedNames returns the keys of m in order, so printed metric lists do
// not depend on map iteration.
func sortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
