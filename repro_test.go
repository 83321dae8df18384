package repro

import (
	"bytes"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/raslog"
	"repro/internal/sched"
	"repro/internal/simulate"
)

var (
	repOnce sync.Once
	repCamp *simulate.Campaign
	rep     *Report
	repErr  error
)

func quickReport(t *testing.T) *Report {
	_, r := quickCampaign(t)
	return r
}

// quickCampaign returns the shared 45-day campaign and its report, as
// Run builds them. A report keeps none of its campaign's records, so a
// test that reads them takes the campaign from here.
func quickCampaign(t *testing.T) (*simulate.Campaign, *Report) {
	t.Helper()
	repOnce.Do(func() {
		cfg := QuickConfig(1)
		cfg.Days = 45
		repCamp, repErr = simulate.Run(simConfig(cfg))
		if repErr == nil {
			rep, repErr = analyzeCampaign(cfg, repCamp)
		}
	})
	if repErr != nil {
		t.Fatal(repErr)
	}
	return repCamp, rep
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := Run(Config{Seed: 1, Days: 0}); err == nil {
		t.Error("zero days accepted")
	}
}

func TestRunProducesOracleAndLogs(t *testing.T) {
	camp, r := quickCampaign(t)
	if !r.HasOracle() || r.Oracle() == nil {
		t.Error("simulated campaign should carry an oracle")
	}
	if camp.RAS.Len() == 0 || r.Jobs().Len() == 0 {
		t.Error("empty logs")
	}
	if r.Analysis() == nil {
		t.Error("nil analysis")
	}
}

func TestSummaryCoherent(t *testing.T) {
	s := quickReport(t).Summary()
	if s.TotalJobs == 0 || s.FatalRecords == 0 || s.EventsAfterFiltering == 0 {
		t.Fatalf("degenerate summary: %+v", s)
	}
	if s.FatalRecords > s.TotalRecords {
		t.Error("fatal records exceed total")
	}
	if s.Interruptions < s.SystemInterruptions || s.Interruptions < s.AppInterruptions {
		t.Error("interruption split exceeds total")
	}
	if s.SystemInterruptions+s.AppInterruptions != s.Interruptions {
		t.Errorf("split %d+%d != %d", s.SystemInterruptions, s.AppInterruptions, s.Interruptions)
	}
	if s.FilterCompression < 0.9 {
		t.Errorf("filter compression %v", s.FilterCompression)
	}
	if s.DistinctInterrupted > s.Interruptions {
		t.Error("distinct interrupted exceeds interruption count")
	}
	if s.WeibullShapeBefore <= 0 || s.WeibullShapeBefore >= 1 {
		t.Errorf("before shape %v outside (0,1)", s.WeibullShapeBefore)
	}
	if s.TopCat1Feature == "" || s.TopCat2Feature == "" {
		t.Error("missing feature names")
	}
}

func TestRenderAllArtifacts(t *testing.T) {
	r := quickReport(t)
	var buf bytes.Buffer
	if err := r.RenderAll(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Table I:", "Table II:", "Table III:", "Figure 1", "Obs. 1",
		"Obs. 2", "Obs. 3", "Figure 3a", "Figure 3b", "Table IV:",
		"Figure 4a", "Figure 4b", "Figure 4c", "Figure 5:", "Figure 6a",
		"Figure 6b", "Table V:", "Obs. 8", "Figure 7:", "Table VI:",
		"Obs. 10-12",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderAll output missing %q", want)
		}
	}
	if len(out) < 5000 {
		t.Errorf("suspiciously short output: %d bytes", len(out))
	}
}

func TestLoadRoundTrip(t *testing.T) {
	camp, r := quickCampaign(t)
	// Serialize both logs and re-analyze via Load: headline numbers must
	// match the in-memory analysis exactly.
	var rasBuf, jobBuf bytes.Buffer
	for _, rec := range camp.RAS.All() {
		rasBuf.WriteString(rec.MarshalLine())
		rasBuf.WriteByte('\n')
	}
	for _, j := range r.Jobs().All() {
		jobBuf.WriteString(j.MarshalLine())
		jobBuf.WriteByte('\n')
	}
	loaded, err := Load(DefaultConfig(0), &rasBuf, &jobBuf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.HasOracle() {
		t.Error("loaded logs must not carry an oracle")
	}
	a, b := r.Summary(), loaded.Summary()
	if a.EventsAfterFiltering != b.EventsAfterFiltering {
		t.Errorf("events differ: %d vs %d", a.EventsAfterFiltering, b.EventsAfterFiltering)
	}
	if a.Interruptions != b.Interruptions {
		t.Errorf("interruptions differ: %d vs %d", a.Interruptions, b.Interruptions)
	}
	if a.SystemTypes != b.SystemTypes || a.ApplicationTypes != b.ApplicationTypes {
		t.Errorf("type census differs: %d/%d vs %d/%d",
			a.SystemTypes, a.ApplicationTypes, b.SystemTypes, b.ApplicationTypes)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(DefaultConfig(0), strings.NewReader("garbage"), strings.NewReader("")); err == nil {
		t.Error("garbage RAS log accepted")
	}
	if _, err := Load(DefaultConfig(0), strings.NewReader(""), strings.NewReader("garbage")); err == nil {
		t.Error("garbage job log accepted")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	cfg := QuickConfig(3)
	cfg.Days = 10
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := a.Summary(), b.Summary()
	if sa != sb {
		t.Errorf("summaries differ across identical runs:\n%+v\n%+v", sa, sb)
	}
}

func TestMatchToleranceOverride(t *testing.T) {
	cfg := QuickConfig(2)
	cfg.Days = 10
	cfg.MatchTolerance = time.Minute
	tight, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MatchTolerance = 30 * time.Minute
	loose, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tight.Summary().Interruptions > loose.Summary().Interruptions {
		t.Errorf("tighter tolerance matched more interruptions: %d vs %d",
			tight.Summary().Interruptions, loose.Summary().Interruptions)
	}
}

func TestExtensionStudies(t *testing.T) {
	r := quickReport(t)
	preds, err := r.PredictorStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 5 {
		t.Fatalf("predictor results = %d", len(preds))
	}
	// The always-baseline has perfect recall; never has zero.
	var always, never, chain float64
	for _, p := range preds {
		switch {
		case p.Predictor == "always":
			always = p.Recall
		case p.Predictor == "never":
			never = p.Recall
		case strings.HasPrefix(p.Predictor, "chain"):
			chain = p.Recall
		}
	}
	if always != 1 || never != 0 {
		t.Errorf("baseline recalls: always %v never %v", always, never)
	}
	if chain <= 0 {
		t.Error("chain predictor learned nothing")
	}

	cks, err := r.CheckpointStudy(24*time.Hour, 5*time.Minute, 80)
	if err != nil {
		t.Fatal(err)
	}
	if len(cks) != 4 {
		t.Fatalf("checkpoint results = %d", len(cks))
	}
	for _, c := range cks {
		if c.Efficiency <= 0 || c.Efficiency > 1 {
			t.Errorf("%s efficiency %v", c.Policy, c.Efficiency)
		}
	}
}

func TestFilterSensitivityMonotone(t *testing.T) {
	r := quickReport(t)
	pts, err := r.FilterSensitivity(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Window <= pts[i-1].Window {
			t.Fatal("windows not increasing")
		}
		if pts[i].Events > pts[i-1].Events {
			t.Errorf("events grew with a larger window: %d -> %d", pts[i-1].Events, pts[i].Events)
		}
	}
	var buf bytes.Buffer
	if err := r.RenderSensitivity(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Ablation") {
		t.Error("missing ablation header")
	}
}

// TestSimulatedReportDropsCampaign requires that a simulated report
// reaches none of its campaign's records: once only the report is
// left, the campaign's scheduler result (which holds the RAS records)
// and its RAS store must be collectable.
func TestSimulatedReportDropsCampaign(t *testing.T) {
	var resultFreed, storeFreed atomic.Bool
	r := func() *Report {
		cfg := QuickConfig(3)
		cfg.Days = 5
		camp, err := simulate.Run(simConfig(cfg))
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(camp.Result, func(*sched.Result) { resultFreed.Store(true) })
		runtime.SetFinalizer(camp.RAS, func(*raslog.Store) { storeFreed.Store(true) })
		r, err := analyzeCampaign(cfg, camp)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}()
	for i := 0; i < 10 && !(resultFreed.Load() && storeFreed.Load()); i++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond) // finalizers run on their own goroutine
	}
	if !resultFreed.Load() || !storeFreed.Load() {
		t.Errorf("after 10 collections the report still reaches its campaign: sched.Result freed %v, raslog.Store freed %v",
			resultFreed.Load(), storeFreed.Load())
	}
	if !r.HasOracle() || len(r.Oracle().Faults) == 0 {
		t.Error("the report lost its copy of the ground truth")
	}
	runtime.KeepAlive(r)
}
