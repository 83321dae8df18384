package repro

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"repro/internal/linescan"
	"repro/internal/simulate"
	"repro/internal/store"
)

// TestParallelMatchesSequential is the equivalence oracle of the
// chunked log decode, the one fan-out a single analysis runs: Load over
// the quick campaign's written logs at Parallelism 1 (one sequential
// decode) and Parallelism 8 (sharded decode, merged in chunk order)
// must produce deep-equal structured results and a byte-identical
// rendered report. Run it under -race to check the pool and the
// shards' merge (make race does).
func TestParallelMatchesSequential(t *testing.T) {
	cfg := QuickConfig(1)
	camp, err := simulate.Run(simConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	var ras, jobs bytes.Buffer
	if err := camp.WriteLogs(&ras, &jobs); err != nil {
		t.Fatal(err)
	}
	// Each log must span several decode chunks, or p=8 would decode
	// exactly as p=1 does.
	for name, n := range map[string]int{"RAS": ras.Len(), "job": jobs.Len()} {
		if n <= linescan.DefaultChunkBytes {
			t.Fatalf("%s log is %d bytes, one decode chunk; the oracle would compare a decode with itself", name, n)
		}
	}

	load := func(p int) *Report {
		t.Helper()
		c := cfg
		c.Parallelism = p
		rep, err := Load(c, bytes.NewReader(ras.Bytes()), bytes.NewReader(jobs.Bytes()))
		if err != nil {
			t.Fatalf("Load at Parallelism %d: %v", p, err)
		}
		return rep
	}
	seqRep, parRep := load(1), load(8)
	if sr, pr := runData(t, seqRep), runData(t, parRep); !reflect.DeepEqual(sr, pr) {
		t.Errorf("sorted FATAL runs diverge: %d vs %d runs", len(sr), len(pr))
	}
	if !reflect.DeepEqual(seqRep.stats, parRep.stats) {
		t.Errorf("raw-log aggregates diverge:\nseq: %+v\npar: %+v", seqRep.stats, parRep.stats)
	}
	if !reflect.DeepEqual(seqRep.Jobs().All(), parRep.Jobs().All()) {
		t.Errorf("decoded job logs diverge: %d vs %d jobs", len(seqRep.Jobs().All()), len(parRep.Jobs().All()))
	}

	// Structured equivalence, stage by stage.
	sa, pa := seqRep.Analysis(), parRep.Analysis()
	if !reflect.DeepEqual(sa.Events, pa.Events) {
		t.Errorf("filtered events diverge: %d vs %d", len(sa.Events), len(pa.Events))
	}
	if sa.FilterStats != pa.FilterStats {
		t.Errorf("filter stats diverge: %+v vs %+v", sa.FilterStats, pa.FilterStats)
	}
	if !reflect.DeepEqual(sa.Independent, pa.Independent) {
		t.Errorf("independent events diverge")
	}
	if !reflect.DeepEqual(sa.Interruptions, pa.Interruptions) {
		t.Errorf("interruptions diverge: %d vs %d", len(sa.Interruptions), len(pa.Interruptions))
	}
	if !reflect.DeepEqual(sa.MidplaneCharacteristics(32), pa.MidplaneCharacteristics(32)) {
		t.Errorf("midplane characteristics diverge")
	}
	if sa.MidplaneFits(5) != pa.MidplaneFits(5) {
		t.Errorf("midplane fit census diverges: %+v vs %+v", sa.MidplaneFits(5), pa.MidplaneFits(5))
	}
	sir, serr := sa.InterruptionRates()
	pir, perr := pa.InterruptionRates()
	if (serr == nil) != (perr == nil) {
		t.Fatalf("interruption rates errors diverge: %v vs %v", serr, perr)
	}
	if serr == nil && !reflect.DeepEqual(sir, pir) {
		t.Errorf("interruption rates diverge")
	}
	if !reflect.DeepEqual(seqRep.Summary(), parRep.Summary()) {
		t.Errorf("summaries diverge:\nseq: %+v\npar: %+v", seqRep.Summary(), parRep.Summary())
	}

	// Byte-identity oracle over every rendered artifact.
	var seqOut, parOut bytes.Buffer
	if err := seqRep.RenderAll(&seqOut); err != nil {
		t.Fatal(err)
	}
	if err := parRep.RenderAll(&parOut); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seqOut.Bytes(), parOut.Bytes()) {
		t.Errorf("rendered reports differ (%d vs %d bytes)", seqOut.Len(), parOut.Len())
	}
}

// TestEnsembleDeterministic checks that the ensemble aggregation is
// identical at any worker count and matches the single-seed runs.
func TestEnsembleDeterministic(t *testing.T) {
	cfg := QuickConfig(1)
	cfg.Days = 10
	cfg.Seeds = 3

	seqCfg := cfg
	seqCfg.Parallelism = 1
	parCfg := cfg
	parCfg.Parallelism = 8

	seq, err := RunEnsemble(seqCfg)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunEnsemble(parCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.PerSeed, par.PerSeed) {
		t.Errorf("per-seed summaries diverge across worker counts")
	}
	if !reflect.DeepEqual(seq.Stats, par.Stats) {
		t.Errorf("ensemble stats diverge across worker counts")
	}

	// Member i must equal a plain Run at that seed.
	solo := QuickConfig(2)
	solo.Days = 10
	rep, err := Run(solo)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.PerSeed[1], rep.Summary()) {
		t.Errorf("ensemble member diverges from solo run at same seed")
	}

	var buf bytes.Buffer
	if err := seq.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("empty ensemble render")
	}
}

// TestConcurrentRenderersShareOneReport renders the whole report from
// several goroutines over one fresh Report: every renderer reads the
// analysis's per-executable runs and frozen symbol views at once, and
// the lazily computed aggregates (the job log's MarshaledBytes among
// them) are first built under contention. Every copy must match a
// report rendered alone. Run it under -race (make race does).
func TestConcurrentRenderersShareOneReport(t *testing.T) {
	cfg := QuickConfig(3)
	cfg.Days = 20
	solo, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := solo.RenderAll(&want); err != nil {
		t.Fatal(err)
	}

	shared, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	outs := make([]bytes.Buffer, 4)
	errs := make([]error, len(outs))
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = shared.RenderAll(&outs[i])
		}(i)
	}
	wg.Wait()
	for i := range outs {
		if errs[i] != nil {
			t.Fatalf("renderer %d: %v", i, errs[i])
		}
		if !bytes.Equal(outs[i].Bytes(), want.Bytes()) {
			t.Errorf("renderer %d: report differs from a solo render (%d vs %d bytes)",
				i, outs[i].Len(), want.Len())
		}
	}
}

// runData decodes every segment of a report's retained FATAL run.
func runData(t *testing.T, rep *Report) []*store.SegmentData {
	t.Helper()
	var out []*store.SegmentData
	for _, sf := range rep.run.Segments() {
		var enc bytes.Buffer
		if _, err := sf.WriteTo(&enc); err != nil {
			t.Fatal(err)
		}
		d, err := store.ReadSegment(&enc)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, d)
	}
	return out
}
