package filter

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/raslog"
	"repro/internal/symtab"
)

// benchFatalStream builds a grouping-heavy, time-sorted FATAL corpus:
// realistic long ERRCODE and location strings spread over many
// (location, code) streams, with tight bursts so every cascade stage
// has real clustering work to do. Grouping cost dominates, which is
// exactly what the symtab refactor targets.
func benchFatalStream(n int) []raslog.Record {
	codes := make([]string, 48)
	for i := range codes {
		codes[i] = "_bgp_err_" + []string{"ddr", "cns", "l1p", "l2", "torus", "tree"}[i%6] +
			"_unit" + string(rune('a'+i%26)) + "_machinecheck_extended_diagnostic"
	}
	rng := rand.New(rand.NewSource(17))
	recs := make([]raslog.Record, 0, n)
	at := time.Date(2009, 1, 5, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		if rng.Intn(8) == 0 {
			at = at.Add(time.Duration(rng.Intn(3600*6)) * time.Second)
		} else {
			at = at.Add(time.Duration(rng.Intn(45)) * time.Second)
		}
		recs = append(recs, raslog.Record{
			RecID: int64(i + 1), MsgID: "KERN_0802", Component: raslog.CompKernel,
			ErrCode: codes[rng.Intn(len(codes))], Severity: raslog.SevFatal,
			EventTime: at,
			Location:  bgp.MidplaneLocation(rng.Intn(64)).String(),
		})
	}
	return recs
}

// BenchmarkFilterCascade measures the full temporal-spatial-causality
// cascade on the interned-ID path: symbols are interned once and every
// grouping stage keys on dense integer IDs (a packed uint64 for the
// temporal pass).
func BenchmarkFilterCascade(b *testing.B) {
	recs := benchFatalStream(10000)
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		evs, _ := Pipeline(cfg, symtab.NewTable(), recs)
		if len(evs) == 0 {
			b.Fatal("cascade produced no events")
		}
	}
}
