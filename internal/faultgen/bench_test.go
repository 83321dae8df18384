package faultgen_test

import (
	"testing"

	"repro/internal/faultgen"
	"repro/internal/raslog"
	"repro/internal/simulate"
)

// paperShaped returns the record set Renumber sorts for a paper-shaped
// 30-day campaign: the seed-1 FATAL stream followed by 62 noise records
// per FATAL one, drawn by a second emitter as the end-to-end benchmark's
// set-up draws them. The noise is in draw order, which is random in
// time, so the sort and the record moves do their full work.
func paperShaped(tb testing.TB) []raslog.Record {
	tb.Helper()
	camp, err := simulate.Run(simulate.Config{Seed: 1, Days: 30, NoisePerFatal: 0})
	if err != nil {
		tb.Fatal(err)
	}
	cfg := faultgen.DefaultEmitterConfig()
	em := faultgen.NewEmitter(cfg, 2)
	fatal := camp.RAS.All()
	em.EmitNoise(camp.Result.Start, camp.Result.End, len(fatal))
	return append(append(make([]raslog.Record, 0, len(fatal)+len(em.Records())), fatal...), em.Records()...)
}

// BenchmarkRenumber times Renumber over a paper-shaped 30-day record
// set and reports ns/record. Renumber sorts in place, so each op first
// restores the unsorted input, off the clock. Not gated.
func BenchmarkRenumber(b *testing.B) {
	orig := paperShaped(b)
	work := make([]raslog.Record, len(orig))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(work, orig)
		b.StartTimer()
		faultgen.Renumber(work)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(orig)), "ns/record")
}
