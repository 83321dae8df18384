// Package parallel is the worker pool for the module's fan-outs whose
// work unit is large enough to pay for a goroutine: the shards of a
// chunked log decode (internal/linescan), whole logs (repro.LoadBounded
// decodes the job log beside the RAS log), whole artifacts
// (repro.Report.RenderAll renders them side by side) and whole
// campaigns (ensembles and policy matrices). It is a bounded pool with
// context cancellation, index-ordered error aggregation, and a
// deterministic order-preserving result merge.
//
// The determinism contract every helper honors: for a fixed input, the
// returned values (results, error text, ordering) are byte-identical
// regardless of the worker count or goroutine scheduling. Results land
// in the slot of the index that produced them, and errors are joined in
// index order, so a caller that folds the output sequentially observes
// exactly what a single-threaded loop would have produced.
//
// Worker-count convention, shared by every Parallelism knob in this
// module: 0 (or negative) means GOMAXPROCS, 1 means a sequential
// in-place fallback with no goroutines, and any other value bounds the
// pool at that many workers.
package parallel

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a Parallelism knob to an effective worker count:
// p <= 0 selects GOMAXPROCS, anything else selects p itself.
func Workers(p int) int {
	if p <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p
}

// ForEach runs fn(i) for every i in [0, n) on at most Workers(workers)
// goroutines. All indices run even when some fail; the per-index errors
// are joined in index order, so the returned error is deterministic. A
// canceled context stops unclaimed indices from starting and its error
// is joined after the per-index errors.
func ForEach(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	errs := make([]error, n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				break
			}
			errs[i] = fn(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(w)
		for g := 0; g < w; g++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n || ctx.Err() != nil {
						return
					}
					errs[i] = fn(i)
				}
			}()
		}
		wg.Wait()
	}
	joined := make([]error, 0, 2)
	for _, err := range errs {
		if err != nil {
			joined = append(joined, err)
		}
	}
	if err := ctx.Err(); err != nil {
		joined = append(joined, err)
	}
	return errors.Join(joined...)
}

// Map runs fn(i) for every i in [0, n) under ForEach's pool and merges
// the results order-preservingly: out[i] is fn(i)'s value, regardless
// of which worker computed it or when it finished. On error the partial
// results are still returned (failed slots hold the zero value).
func Map[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, ctx.Err()
	}
	out := make([]T, n)
	err := ForEach(ctx, workers, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	return out, err
}
