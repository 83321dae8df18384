// Fixture mirror of the cascade: package NAME filter puts Pipeline and
// PipelineFromLog in hotpath's root table as per-call roots — invoked once
// per batch, so only their loop bodies (and everything called from
// them) are per-event.
package filter

import (
	"fmt"

	"allochelper"
)

// Pipeline is a per-call root: batch setup outside the loop is
// amortized and stays quiet; the same constructs inside the loop are
// per-event.
func Pipeline(events [][]byte) []string {
	scratch := map[string]int{}                // no diagnostic: per-call setup
	header := fmt.Sprintf("n=%d", len(events)) // no diagnostic: per-call setup
	out := make([]string, 0, len(events))
	for _, e := range events {
		if len(e) == 0 {
			header = fmt.Sprintf("short at %d", len(out)) // no diagnostic: cold reject path
			return out
		}
		name := string(e) // want `string\(\.\.\.\) conversion of a byte slice allocates on a hot loop`
		scratch[name]++
		out = append(out, name)
	}
	_ = header
	return out
}

// PipelineFromLog exercises the cross-package call boundary: a hot loop
// calling an allocation-bearing helper in another package is flagged
// at the call site via the helper's exported AllocFact.
func PipelineFromLog(events [][]byte) int {
	total := 0
	for range events {
		total += allochelper.Clean(total) // no diagnostic: allocation-free helper
		m := allochelper.Grow(total)      // want `hot loop calls allochelper\.Grow, which allocates`
		total += len(m)
		if total < 0 {
			_ = allochelper.Describe(total) // no diagnostic: pure error constructor
		}
	}
	return total
}

// BenchmarkCascade is seeded per-call like any Benchmark* body: its
// loop constructs are flagged, but benchmarks skip the cross-package
// boundary check — they exist to call what they measure.
func BenchmarkCascade(n int) {
	for i := 0; i < n; i++ {
		_ = fmt.Sprintf("i=%d", i) // want `call to fmt\.Sprintf allocates on a hot loop`
		_ = allochelper.Grow(i)    // no diagnostic: benchmark bodies are boundary-exempt
	}
}
