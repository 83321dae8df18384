package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/symtab"
)

// Epoch is one published, immutable view of the analysis. Everything
// reachable from it is private to the epoch or never mutated again:
// the analysis holds a symtab clone, and the job log and occupancy
// index were frozen at snapshot time. Query payloads are marshaled
// once at publication; report fragments render lazily, once each.
type Epoch struct {
	// Seq numbers publications from 1.
	Seq uint64
	// WatermarkNS is the cascade watermark (Unix ns) at snapshot time.
	WatermarkNS int64
	// Analysis is the full co-analysis behind the views.
	Analysis *core.Analysis
	// Report renders the paper's artifacts over this epoch.
	Report *repro.Report
	// Stats are the raw-stream aggregates at snapshot time.
	Stats repro.LogStats

	summary []byte
	queries map[string][]byte
	frags   map[string]*fragment
}

// segmentCounts is what /v1/epoch reports of the segment set, copied
// under the ingest lock (store.SegmentSet.Counts).
type segmentCounts struct {
	segments, sealed, rows int
}

type fragment struct {
	once sync.Once
	body []byte
	err  error
}

// queryNames backs QueryNames: allocated once, never mutated.
var queryNames = []string{"rates", "mtbf", "interruptions", "vulnerability"}

// QueryNames lists the JSON query views every epoch precomputes.
// Callers must not mutate the returned slice.
func QueryNames() []string { return queryNames }

// newEpoch precomputes the JSON query payloads and prepares the lazy
// fragment cache.
func newEpoch(seq uint64, watermark int64, a *core.Analysis, rep *repro.Report,
	segs segmentCounts, stats repro.LogStats) *Epoch {
	ep := &Epoch{
		Seq:         seq,
		WatermarkNS: watermark,
		Analysis:    a,
		Report:      rep,
		Stats:       stats,
		queries:     make(map[string][]byte, 4),
		frags:       make(map[string]*fragment, len(artifacts)),
	}
	for name := range artifacts {
		ep.frags[name] = &fragment{}
	}
	ep.summary = mustJSON(ep.buildSummary(segs))
	ep.queries["rates"] = mustJSON(ep.buildRates())
	ep.queries["mtbf"] = mustJSON(ep.buildMTBF())
	ep.queries["interruptions"] = mustJSON(ep.buildInterruptions())
	ep.queries["vulnerability"] = mustJSON(ep.buildVulnerability())
	return ep
}

// artifacts is the fragment registry shared with cmd/coanalyze.
var artifacts = repro.Artifacts()

// Summary returns the /v1/epoch payload.
func (ep *Epoch) Summary() []byte { return ep.summary }

// Query returns the named precomputed query payload.
func (ep *Epoch) Query(name string) ([]byte, bool) {
	b, ok := ep.queries[name]
	return b, ok
}

// Fragment renders (once) and returns the named report fragment —
// byte-identical to the batch tools' output for the same logs once the
// engine has quiesced.
func (ep *Epoch) Fragment(name string) ([]byte, error) {
	fr, ok := ep.frags[name]
	if !ok {
		return nil, fmt.Errorf("serve: unknown artifact %q", name)
	}
	fr.once.Do(func() {
		var buf bytes.Buffer
		if err := artifacts[name](ep.Report, &buf); err != nil {
			fr.err = err
			return
		}
		fr.body = buf.Bytes()
	})
	return fr.body, fr.err
}

// FragmentNames returns the renderable artifact names, sorted.
func (ep *Epoch) FragmentNames() []string {
	out := make([]string, 0, len(ep.frags))
	for name := range ep.frags {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// EpochSummary is the /v1/epoch payload.
type EpochSummary struct {
	Epoch          uint64 `json:"epoch"`
	WatermarkNS    int64  `json:"watermark_ns"`
	SpanStart      string `json:"span_start"`
	SpanEnd        string `json:"span_end"`
	Days           int    `json:"days"`
	RASRecords     int    `json:"ras_records"`
	FatalRecords   int    `json:"fatal_records"`
	FilteredEvents int    `json:"filtered_events"`
	Interruptions  int    `json:"interruptions"`
	Jobs           int    `json:"jobs"`
	Segments       int    `json:"segments"`
	SealedSegments int    `json:"sealed_segments"`
	Rows           int    `json:"rows"`
}

func (ep *Epoch) buildSummary(segs segmentCounts) EpochSummary {
	start, end := ep.Analysis.Span()
	return EpochSummary{
		Epoch:          ep.Seq,
		WatermarkNS:    ep.WatermarkNS,
		SpanStart:      start.UTC().Format(time.RFC3339),
		SpanEnd:        end.UTC().Format(time.RFC3339),
		Days:           spanDays(start, end),
		RASRecords:     ep.Stats.RASRecords,
		FatalRecords:   ep.Stats.FatalRecords,
		FilteredEvents: len(ep.Analysis.Events),
		Interruptions:  len(ep.Analysis.Interruptions),
		Jobs:           ep.Analysis.Jobs.Len(),
		Segments:       segs.segments,
		SealedSegments: segs.sealed,
		Rows:           segs.rows,
	}
}

// ErrcodeRate is one row of the /v1/query/rates payload.
type ErrcodeRate struct {
	Errcode       string  `json:"errcode"`
	Events        int     `json:"events"`
	Records       int     `json:"records"`
	PerDay        float64 `json:"per_day"`
	Interruptions int     `json:"interruptions"`
}

type ratesPayload struct {
	Epoch uint64        `json:"epoch"`
	Days  int           `json:"days"`
	Total int           `json:"total_events"`
	Rates []ErrcodeRate `json:"rates"`
}

func (ep *Epoch) buildRates() ratesPayload {
	a := ep.Analysis
	start, end := a.Span()
	days := spanDays(start, end)
	type acc struct {
		events, records, inter int
	}
	byCode := make(map[symtab.ErrcodeID]*acc)
	for _, ev := range a.Events {
		c := byCode[ev.Code]
		if c == nil {
			c = &acc{}
			byCode[ev.Code] = c
		}
		c.events++
		c.records += ev.Size
	}
	for _, in := range a.Interruptions {
		byCode[in.Event.Code].inter++
	}
	out := ratesPayload{Epoch: ep.Seq, Days: days, Total: len(a.Events)}
	for code, c := range byCode {
		r := ErrcodeRate{
			Errcode:       a.Syms.Errcodes.Name(code),
			Events:        c.events,
			Records:       c.records,
			Interruptions: c.inter,
		}
		if days > 0 {
			r.PerDay = float64(c.events) / float64(days)
		}
		out.Rates = append(out.Rates, r)
	}
	sort.Slice(out.Rates, func(i, j int) bool {
		if out.Rates[i].Events != out.Rates[j].Events {
			return out.Rates[i].Events > out.Rates[j].Events
		}
		return out.Rates[i].Errcode < out.Rates[j].Errcode
	})
	return out
}

// mtbfPayload is the /v1/query/mtbf payload: systemwide fatal-event
// interarrival fits before and after job-related filtering. Error is
// set (and the numbers zero) when the sample is too small to fit.
type mtbfPayload struct {
	Epoch              uint64  `json:"epoch"`
	Error              string  `json:"error,omitempty"`
	BeforeN            int     `json:"before_n"`
	AfterN             int     `json:"after_n"`
	BeforeMTBFHours    float64 `json:"before_mtbf_hours"`
	AfterMTBFHours     float64 `json:"after_mtbf_hours"`
	BeforeWeibullHours float64 `json:"before_weibull_mean_hours"`
	AfterWeibullHours  float64 `json:"after_weibull_mean_hours"`
	MTBFRatio          float64 `json:"mtbf_ratio"`
}

func (ep *Epoch) buildMTBF() mtbfPayload {
	out := mtbfPayload{Epoch: ep.Seq}
	fc, err := ep.Analysis.FailureCharacteristics()
	if err != nil {
		out.Error = err.Error()
		return out
	}
	const hour = 3600
	out.BeforeN = fc.Before.N
	out.AfterN = fc.After.N
	out.BeforeMTBFHours = fc.Before.SampleMean / hour
	out.AfterMTBFHours = fc.After.SampleMean / hour
	out.BeforeWeibullHours = fc.Before.Weibull.Mean() / hour
	out.AfterWeibullHours = fc.After.Weibull.Mean() / hour
	out.MTBFRatio = fc.MTBFRatio
	return out
}

// interruptionsPayload is the /v1/query/interruptions payload: the
// cause breakdown of matched job interruptions.
type interruptionsPayload struct {
	Epoch                    uint64  `json:"epoch"`
	Total                    int     `json:"total"`
	DistinctJobs             int     `json:"distinct_jobs"`
	System                   int     `json:"system"`
	Application              int     `json:"application"`
	SystemTypes              int     `json:"system_types"`
	ApplicationTypes         int     `json:"application_types"`
	ApplicationEventFraction float64 `json:"application_event_fraction"`
}

func (ep *Epoch) buildInterruptions() interruptionsPayload {
	a := ep.Analysis
	c := a.ClassificationCensus()
	return interruptionsPayload{
		Epoch:                    ep.Seq,
		Total:                    len(a.Interruptions),
		DistinctJobs:             a.DistinctInterruptedJobs(),
		System:                   c.SystemInterruptions,
		Application:              c.ApplicationInterruptions,
		SystemTypes:              c.SystemTypes,
		ApplicationTypes:         c.ApplicationTypes,
		ApplicationEventFraction: c.ApplicationEventFraction,
	}
}

// vulnCell is one cell of the /v1/query/vulnerability payload.
type vulnCell struct {
	Interrupted int     `json:"interrupted"`
	Total       int     `json:"total"`
	Proportion  float64 `json:"proportion"`
}

type vulnerabilityPayload struct {
	Epoch     uint64       `json:"epoch"`
	Sizes     []int        `json:"sizes"`
	BinEdges  []float64    `json:"runtime_bin_edges_sec"`
	Cells     [][]vulnCell `json:"cells"`
	RowTotals []vulnCell   `json:"row_totals"`
	ColTotals []vulnCell   `json:"col_totals"`
	Grand     vulnCell     `json:"grand"`
}

func (ep *Epoch) buildVulnerability() vulnerabilityPayload {
	vt := ep.Analysis.Vulnerability()
	conv := func(c core.VulnerabilityCell) vulnCell {
		return vulnCell{Interrupted: c.Interrupted, Total: c.Total, Proportion: c.Proportion()}
	}
	convRow := func(cs []core.VulnerabilityCell) []vulnCell {
		out := make([]vulnCell, len(cs))
		for i, c := range cs {
			out[i] = conv(c)
		}
		return out
	}
	out := vulnerabilityPayload{
		Epoch:     ep.Seq,
		Sizes:     vt.Sizes,
		BinEdges:  vt.BinEdges,
		RowTotals: convRow(vt.RowTotals),
		ColTotals: convRow(vt.ColTotals),
		Grand:     conv(vt.Grand),
	}
	out.Cells = make([][]vulnCell, len(vt.Cells))
	for i, row := range vt.Cells {
		out.Cells[i] = convRow(row)
	}
	return out
}

// spanDays mirrors the batch report's day count (repro.NewStreamReport).
func spanDays(start, end time.Time) int {
	return int(end.Sub(start).Hours()/24) + 1
}

// mustJSON marshals a payload built from plain structs; a marshal
// failure is a programming error.
func mustJSON(v any) []byte {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("serve: marshaling query payload: %v", err))
	}
	return append(b, '\n')
}
