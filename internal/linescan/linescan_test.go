package linescan

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// decodeLines decodes every line into "line:content" strings, the
// simplest shard that exposes line numbering and ordering.
func decodeLines(opts Options) func() ShardFunc[string] {
	return func() ShardFunc[string] {
		return func(chunk []byte, firstLine int) ([]string, error) {
			var out []string
			err := ForEachLine(chunk, firstLine, func(line []byte, n int) error {
				if bytes.Equal(line, []byte("BAD")) {
					return fmt.Errorf("line %d: bad", n)
				}
				if len(line) == 0 {
					return nil // blank lines are skipped, like the log readers
				}
				out = append(out, fmt.Sprintf("%d:%s", n, line))
				return nil
			})
			return out, err
		}
	}
}

func seqDecode(t *testing.T, in string) ([]string, error) {
	t.Helper()
	// The oracle: a plain bufio.Scanner walk with the same skip rules.
	s := bufio.NewScanner(strings.NewReader(in))
	var out []string
	n := 0
	for s.Scan() {
		n++
		line := s.Text()
		if line == "BAD" {
			return out, fmt.Errorf("line %d: bad", n)
		}
		if line == "" {
			continue
		}
		out = append(out, fmt.Sprintf("%d:%s", n, line))
	}
	if err := s.Err(); err != nil {
		return out, err
	}
	return out, nil
}

func buildInput(lines int) string {
	var b strings.Builder
	for i := 0; i < lines; i++ {
		switch i % 7 {
		case 3:
			b.WriteString("\n") // blank line
		case 5:
			fmt.Fprintf(&b, "padded-%d-%s\n", i, strings.Repeat("x", i%97))
		default:
			fmt.Fprintf(&b, "rec-%d\n", i)
		}
	}
	return b.String()
}

func TestDecodeAllMatchesSequential(t *testing.T) {
	inputs := []string{
		"",
		"\n",
		"one",
		"one\n",
		"a\nb\nc",
		"a\r\nb\r\n", // CR-LF must match bufio.ScanLines
		buildInput(500),
		buildInput(2000),
	}
	for _, in := range inputs {
		want, wantErr := seqDecode(t, in)
		for _, workers := range []int{1, 2, 3, 8} {
			for _, chunk := range []int{1, 7, 64, 1 << 20} {
				got, err := DecodeAll(strings.NewReader(in), Options{Workers: workers, ChunkBytes: chunk}, decodeLines(Options{}))
				if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
					t.Fatalf("w=%d chunk=%d: err %v, want %v", workers, chunk, err, wantErr)
				}
				if len(got) != len(want) {
					t.Fatalf("w=%d chunk=%d len(in)=%d: got %d lines, want %d", workers, chunk, len(in), len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("w=%d chunk=%d: line %d = %q, want %q", workers, chunk, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestDecodeAllKeepsLoneChunk checks that a stream of one chunk comes
// back as the shard's own slice, not a copy of it.
func TestDecodeAllKeepsLoneChunk(t *testing.T) {
	var shardOut []string
	got, err := DecodeAll(strings.NewReader("a\nb\nc\n"), Options{Workers: 1}, func() ShardFunc[string] {
		inner := decodeLines(Options{})()
		return func(chunk []byte, firstLine int) ([]string, error) {
			vals, err := inner(chunk, firstLine)
			shardOut = vals
			return vals, err
		}
	})
	if err != nil || len(got) != 3 {
		t.Fatalf("decoded %q, %v", got, err)
	}
	if &got[0] != &shardOut[0] {
		t.Error("DecodeAll copied the values of its only chunk")
	}
}

func TestDecodeAllErrorMatchesSequential(t *testing.T) {
	in := buildInput(100) + "BAD\n" + buildInput(50)
	want, wantErr := seqDecode(t, in)
	if wantErr == nil {
		t.Fatal("oracle did not error")
	}
	for _, workers := range []int{1, 4} {
		got, err := DecodeAll(strings.NewReader(in), Options{Workers: workers, ChunkBytes: 64}, decodeLines(Options{}))
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("w=%d: err %v, want %v", workers, err, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("w=%d: %d values before error, want %d", workers, len(got), len(want))
		}
	}
}

func TestDecodeAllTooLongLine(t *testing.T) {
	in := "ok-1\nok-2\n" + strings.Repeat("y", MaxLineBytes+DefaultChunkBytes+2)
	_, err := DecodeAll(strings.NewReader(in), Options{Workers: 2}, decodeLines(Options{}))
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("want bufio.ErrTooLong, got %v", err)
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error should name line 3: %v", err)
	}
}

// errReader fails mid-stream; the failure must surface after the values
// decoded before it.
type errReader struct {
	data []byte
	err  error
}

func (r *errReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

func TestDecodeAllReadError(t *testing.T) {
	boom := errors.New("boom")
	got, err := DecodeAll(&errReader{data: []byte("a\nb\nc\n"), err: boom}, Options{Workers: 2, ChunkBytes: 4}, decodeLines(Options{}))
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	if len(got) != 3 {
		t.Errorf("decoded %d values before the read error, want 3", len(got))
	}
}

func TestDecodeAllNoProgressReader(t *testing.T) {
	_, err := DecodeAll(io.MultiReader(strings.NewReader("a\n"), neverReader{}), Options{Workers: 1}, decodeLines(Options{}))
	if !errors.Is(err, io.ErrNoProgress) {
		t.Fatalf("want ErrNoProgress, got %v", err)
	}
}

type neverReader struct{}

func (neverReader) Read(p []byte) (int, error) { return 0, nil }

func TestShardStateIsPerWorker(t *testing.T) {
	// Each worker slot must get its own shard; a shared counter would
	// race (caught under -race) and break the per-shard invariant.
	in := buildInput(1000)
	var made atomic.Int64
	_, err := DecodeAll(strings.NewReader(in), Options{Workers: 4, ChunkBytes: 128}, func() ShardFunc[int] {
		made.Add(1)
		seen := 0
		return func(chunk []byte, firstLine int) ([]int, error) {
			seen++
			return []int{seen}, nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := made.Load(); n < 1 || n > 4 {
		t.Errorf("made %d shards, want 1..4", n)
	}
}

// decodeStream collects Decode's emitted values and counts the emit
// calls, failing on an empty one.
func decodeStream(in string, opts Options) (vals []string, emits int, err error) {
	err = Decode(strings.NewReader(in), opts, decodeLines(Options{}), func(v []string) error {
		if len(v) == 0 {
			return errors.New("empty emit")
		}
		emits++
		vals = append(vals, v...)
		return nil
	})
	return vals, emits, err
}

// TestDecodeMatchesDecodeAll checks the streaming form against the
// collecting one: the same values in the same order, the same error and
// line number, at every worker count and chunk size, including a
// malformed line that must surface after the values before it.
func TestDecodeMatchesDecodeAll(t *testing.T) {
	inputs := map[string]string{
		"clean":      buildInput(800),
		"empty":      "",
		"no-newline": "a\nb\nc",
		"bad-middle": buildInput(300) + "BAD\n" + buildInput(300),
		"bad-first":  "BAD\n" + buildInput(50),
		"bad-last":   buildInput(300) + "BAD",
	}
	for name, in := range inputs {
		for _, workers := range []int{1, 2, 4} {
			for _, chunk := range []int{16, 100, 1 << 20} {
				opts := Options{Workers: workers, ChunkBytes: chunk}
				want, wantErr := DecodeAll(strings.NewReader(in), opts, decodeLines(Options{}))
				got, emits, err := decodeStream(in, opts)
				if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
					t.Fatalf("%s %+v: err %v, want %v", name, opts, err, wantErr)
				}
				if strings.HasPrefix(name, "bad-") && err == nil {
					t.Fatalf("%s %+v: malformed line decoded cleanly", name, opts)
				}
				if len(got) != len(want) {
					t.Fatalf("%s %+v: %d values, want %d", name, opts, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s %+v: value %d = %q, want %q", name, opts, i, got[i], want[i])
					}
				}
				if name == "clean" && chunk == 16 && emits < 2 {
					t.Fatalf("%s %+v: %d emit calls, want one per chunk", name, opts, emits)
				}
			}
		}
	}
}

// TestDecodeEmitErrorStops requires an emit error to end the decode:
// it is returned as is, no later chunk is emitted, and what was emitted
// is a prefix of the full decode.
func TestDecodeEmitErrorStops(t *testing.T) {
	stop := errors.New("stop")
	in := buildInput(1000)
	opts := Options{ChunkBytes: 64}
	want, err := DecodeAll(strings.NewReader(in), opts, decodeLines(Options{}))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		opts.Workers = workers
		var got []string
		calls := 0
		err := Decode(strings.NewReader(in), opts, decodeLines(Options{}), func(v []string) error {
			calls++
			got = append(got, v...)
			if calls == 3 {
				return stop
			}
			return nil
		})
		if err != stop {
			t.Fatalf("w=%d: err %v, want the emit error", workers, err)
		}
		if calls != 3 {
			t.Fatalf("w=%d: emit called %d times, want 3 (none after its error)", workers, calls)
		}
		if len(got) >= len(want) {
			t.Fatalf("w=%d: emitted %d of %d values, want the decode to stop early", workers, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("w=%d: value %d = %q, want %q", workers, i, got[i], want[i])
			}
		}
	}
}

// pipelineCases are the worker counts the pipeline tests run, each over
// 64-byte chunks so a stream is many chunks and the reader runs ahead.
var pipelineCases = []Options{
	{Workers: 1, ChunkBytes: 64}, {Workers: 2, ChunkBytes: 64},
	{Workers: 3, ChunkBytes: 64}, {Workers: 4, ChunkBytes: 64},
}

// settledGoroutines returns the goroutine count once it is back to
// want, or after about a second. Decode waits for its goroutines'
// deferred WaitGroup.Done, which runs just before each one exits, so
// the count can lag Decode's return by a scheduling step; a leaked
// goroutine never comes back.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 1000 && n != want; i++ {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestPipelineFailuresLeaveNoGoroutine stops the pipeline early, by a
// bad line deep in the stream and by an emit error, and requires
// Decode to return with every goroutine it started gone, after exactly
// the values a sequential decode gives before the failure.
func TestPipelineFailuresLeaveNoGoroutine(t *testing.T) {
	badDeep := buildInput(2000) + "BAD\n" + buildInput(2000)
	wantBad, wantBadErr := seqDecode(t, badDeep)
	clean := buildInput(4000)
	wantClean, _ := seqDecode(t, clean)
	stop := errors.New("stop")
	for _, opts := range pipelineCases {
		before := runtime.NumGoroutine()
		got, err := DecodeAll(strings.NewReader(badDeep), opts, decodeLines(Options{}))
		if err == nil || err.Error() != wantBadErr.Error() {
			t.Fatalf("%+v: err %v, want %v", opts, err, wantBadErr)
		}
		if !slices.Equal(got, wantBad) {
			t.Fatalf("%+v: %d values before the bad line, want the sequential %d", opts, len(got), len(wantBad))
		}
		if n := settledGoroutines(before); n != before {
			t.Fatalf("%+v: %d goroutines after a parse error, %d before", opts, n, before)
		}

		var emitted []string
		err = Decode(strings.NewReader(clean), opts, decodeLines(Options{}), func(v []string) error {
			emitted = append(emitted, v...)
			if len(emitted) > len(wantClean)/2 {
				return stop
			}
			return nil
		})
		if err != stop {
			t.Fatalf("%+v: err %v, want the emit error", opts, err)
		}
		if len(emitted) >= len(wantClean) || !slices.Equal(emitted, wantClean[:len(emitted)]) {
			t.Fatalf("%+v: emitted %d values, not a proper prefix of the sequential decode", opts, len(emitted))
		}
		if n := settledGoroutines(before); n != before {
			t.Fatalf("%+v: %d goroutines after an emit error, %d before", opts, n, before)
		}
	}
}

// TestPipelineReadErrorAfterGoodChunks fails the reader after many
// chunks of whole lines: the read error comes back after exactly those
// lines' values, in order, and no later.
func TestPipelineReadErrorAfterGoodChunks(t *testing.T) {
	boom := errors.New("boom")
	good := buildInput(1500)
	want, err := seqDecode(t, good)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range pipelineCases {
		var got []string
		emits := 0
		err := Decode(&errReader{data: []byte(good), err: boom}, opts, decodeLines(Options{}), func(v []string) error {
			emits++
			got = append(got, v...)
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("%+v: err %v, want the read error", opts, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%+v: %d values before the read error, want the %d of the good chunks", opts, len(got), len(want))
		}
		if emits < len(good)/(2*opts.ChunkBytes) {
			t.Fatalf("%+v: %d emits, want the good bytes cut into many chunks", opts, emits)
		}
	}
}

// TestPipelineRingBound decodes a stream of many chunks and requires
// the pipeline to have made at most 2×Workers chunk buffers, however
// far the reader ran ahead of the emits, and exactly one inline.
func TestPipelineRingBound(t *testing.T) {
	in := buildInput(5000)
	want, _ := seqDecode(t, in)
	for _, opts := range pipelineCases {
		p := newPipeline(strings.NewReader(in), opts, decodeLines(Options{}))
		var got []string
		if err := p.run(func(v []string) error {
			got = append(got, v...)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%+v: decode differs from the sequential one", opts)
		}
		if p.buffers < 1 || p.buffers > 2*opts.Workers || (opts.Workers == 1 && p.buffers != 1) {
			t.Fatalf("%+v: %d chunk buffers made, want 1..%d", opts, p.buffers, 2*opts.Workers)
		}
	}
}
