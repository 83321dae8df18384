package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	for _, p := range []int{1, 2, 7, 64} {
		if got := Workers(p); got != p {
			t.Errorf("Workers(%d) = %d", p, got)
		}
	}
}

func TestForEachRunsAllIndices(t *testing.T) {
	for _, w := range []int{1, 2, 4, 16} {
		var hits [257]atomic.Int32
		if err := ForEach(context.Background(), w, len(hits), func(i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for i := range hits {
			if n := hits[i].Load(); n != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", w, i, n)
			}
		}
	}
}

func TestForEachErrorOrderDeterministic(t *testing.T) {
	// Errors must come back joined in index order no matter how the
	// scheduler interleaves the workers.
	want := "boom 3\nboom 11\nboom 200"
	for _, w := range []int{1, 3, 8} {
		for trial := 0; trial < 20; trial++ {
			err := ForEach(context.Background(), w, 256, func(i int) error {
				switch i {
				case 3, 11, 200:
					return fmt.Errorf("boom %d", i)
				}
				return nil
			})
			if err == nil || err.Error() != want {
				t.Fatalf("workers=%d: error %q, want %q", w, err, want)
			}
		}
	}
}

func TestMapOrderPreserving(t *testing.T) {
	for _, w := range []int{1, 2, 5, 32} {
		got, err := Map(context.Background(), w, 1000, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", w, i, v, i*i)
			}
		}
	}
}

func TestMapPartialResultsOnError(t *testing.T) {
	got, err := Map(context.Background(), 4, 8, func(i int) (int, error) {
		if i == 5 {
			return 0, errors.New("no five")
		}
		return i + 1, nil
	})
	if err == nil || !strings.Contains(err.Error(), "no five") {
		t.Fatalf("error = %v, want to contain %q", err, "no five")
	}
	if len(got) != 8 || got[5] != 0 || got[0] != 1 || got[7] != 8 {
		t.Fatalf("partial results wrong: %v", got)
	}
}

func TestForEachCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	err := ForEach(ctx, 2, 100000, func(i int) error {
		if ran.Add(1) == 10 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 100000 {
		t.Fatalf("cancellation did not stop the pool (ran %d)", n)
	}
}

func TestForEachEmptyAndSingle(t *testing.T) {
	if err := ForEach(context.Background(), 4, 0, func(int) error { return errors.New("never") }); err != nil {
		t.Fatalf("n=0: %v", err)
	}
	ran := make([]int, 1)
	if err := ForEach(context.Background(), 4, 1, func(i int) error { ran[i]++; return nil }); err != nil || ran[0] != 1 {
		t.Fatalf("n=1: err=%v ran=%d", err, ran[0])
	}
}
