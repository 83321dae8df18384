// Package linescan is the bounded-memory substrate of the streaming log
// codecs: it cuts an io.Reader into chunks that end on line boundaries
// and fans the chunks out to the internal/parallel pool, so a
// multi-gigabyte log is decoded by concurrent shard workers while only
// a few chunk buffers are resident at any moment.
//
// The determinism contract matches internal/parallel: chunk boundaries
// depend only on the byte stream and the configured chunk size, shard
// outputs are merged in chunk order (index-keyed, like the filter
// cascade's tag merge), and the first parse error — with its 1-based
// line number — is exactly the one a sequential scan of the same input
// would report. The decoded result is byte-identical for any worker
// count, including 1.
package linescan

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"

	"repro/internal/parallel"
)

// MaxLineBytes caps a single log line. The sequential readers impose
// the same cap through bufio.Scanner's buffer limit; both paths surface
// an over-long line as an error wrapping bufio.ErrTooLong that names
// the offending line.
const MaxLineBytes = 4 * 1024 * 1024

// DefaultChunkBytes is the target chunk size of the parallel decode:
// large enough to amortize dispatch, small enough that workers×chunks
// stays far below campaign scale.
const DefaultChunkBytes = 1 << 20

// TooLongError returns the error both the sequential readers and the
// parallel chunker report for a line exceeding the cap, wrapping
// bufio.ErrTooLong so callers can errors.Is on it.
func TooLongError(line int) error {
	return fmt.Errorf("line %d: %w (line exceeds %d bytes)", line, bufio.ErrTooLong, MaxLineBytes)
}

// Options tunes Decode and DecodeAll. The zero value selects
// GOMAXPROCS workers and DefaultChunkBytes chunks.
type Options struct {
	// Workers follows the module-wide Parallelism convention
	// (0 = GOMAXPROCS, 1 = sequential; see internal/parallel).
	Workers int
	// ChunkBytes is the target chunk size; chunks grow past it only to
	// reach the next line boundary. 0 selects DefaultChunkBytes.
	ChunkBytes int
}

// ShardFunc decodes one chunk of whole lines whose first line has the
// given 1-based number. On a malformed line it returns the values
// decoded before the error plus an error naming the line, exactly as a
// sequential scan would. The chunk buffer is reused once the chunk's
// wave is merged, so the values must not alias it: copy every retained
// byte (string(b) does).
type ShardFunc[T any] func(chunk []byte, firstLine int) ([]T, error)

// shardOut pairs one chunk's decoded values with its parse error, so
// the wave merge can recover sequential error semantics.
type shardOut[T any] struct {
	vals []T
	err  error
}

// DecodeAll is Decode collecting every value: the returned slice and
// error match a sequential decode of the same stream byte for byte.
func DecodeAll[T any](r io.Reader, opts Options, newShard func() ShardFunc[T]) ([]T, error) {
	var out []T
	err := Decode(r, opts, newShard, func(vals []T) error {
		out = append(out, vals...)
		return nil
	})
	return out, err
}

// Decode streams r through newShard-produced workers in waves of at
// most Workers chunks and hands each chunk's decoded values to emit, in
// chunk order, once the chunk's wave is done. Each worker slot calls
// newShard once and reuses the returned ShardFunc across waves, so
// shards may keep worker-local state (e.g. string intern tables);
// newShard itself may be called from concurrent goroutines and must not
// touch shared mutable state. emit runs on the calling goroutine
// between waves and is not called for a chunk that decoded no values.
// Reads stay bounded: one wave of chunk buffers and decoded values is
// resident at a time.
//
// The values emitted and the error returned match a sequential decode
// of the same stream: on a malformed line, the values before it are
// emitted and the shard's error (naming the line) is returned; nothing
// after it is decoded further. An emit error stops the decode and is
// returned as is.
func Decode[T any](r io.Reader, opts Options, newShard func() ShardFunc[T], emit func([]T) error) error {
	w := parallel.Workers(opts.Workers)
	size := opts.ChunkBytes
	if size <= 0 {
		size = DefaultChunkBytes
	}
	if size > MaxLineBytes {
		size = MaxLineBytes
	}
	c := &chunker{r: r, chunkBytes: size, line: 1}
	shards := make([]ShardFunc[T], w)
	for {
		// Cut the next wave of chunks sequentially.
		type chunk struct {
			data      []byte
			firstLine int
		}
		var wave []chunk
		var readErr error
		for len(wave) < w {
			data, firstLine, err := c.next()
			if err == io.EOF {
				break
			}
			if err != nil {
				readErr = err
				break
			}
			wave = append(wave, chunk{data, firstLine})
		}
		if len(wave) == 0 {
			return readErr
		}
		outs, _ := parallel.Map(context.Background(), w, len(wave), func(i int) (shardOut[T], error) {
			if shards[i] == nil {
				shards[i] = newShard()
			}
			vals, err := shards[i](wave[i].data, wave[i].firstLine)
			return shardOut[T]{vals: vals, err: err}, nil
		})
		// The wave's shards are done, so its buffers can carry the next
		// wave; decoded values must not alias them (ShardFunc).
		for i := range wave {
			c.recycle(wave[i].data)
		}
		for _, so := range outs {
			if len(so.vals) > 0 {
				if err := emit(so.vals); err != nil {
					return err
				}
			}
			if so.err != nil {
				// Sequential semantics: values decoded before the first bad
				// line survive, everything after it is discarded.
				return so.err
			}
		}
		if readErr != nil {
			return readErr
		}
	}
}

// ForEachLine iterates the whole lines of a chunk, calling fn with each
// line (trailing \r stripped, to match bufio.ScanLines) and its 1-based
// number. A final line without a trailing newline is still visited,
// matching bufio.Scanner. Iteration stops at fn's first error.
func ForEachLine(chunk []byte, firstLine int, fn func(line []byte, n int) error) error {
	n := firstLine
	for len(chunk) > 0 {
		var line []byte
		if i := bytes.IndexByte(chunk, '\n'); i >= 0 {
			line, chunk = chunk[:i], chunk[i+1:]
		} else {
			line, chunk = chunk, nil
		}
		if len(line) > 0 && line[len(line)-1] == '\r' {
			line = line[:len(line)-1]
		}
		if err := fn(line, n); err != nil {
			return err
		}
		n++
	}
	return nil
}

// chunker cuts the stream into line-aligned chunks. Not safe for
// concurrent use; Decode drives it from one goroutine.
type chunker struct {
	r          io.Reader
	chunkBytes int
	carry      []byte   // partial trailing line of the previous chunk
	free       [][]byte // buffers of merged waves, ready for reuse
	line       int      // 1-based number of the next chunk's first line
	err        error    // sticky read error (io.EOF included)
	zeroReads  int      // consecutive (0, nil) reads, for the no-progress guard
}

// next returns the next line-aligned chunk and the 1-based number of
// its first line. The returned buffer is owned by the caller until it
// hands it back through recycle (chunks of one wave are parsed
// concurrently, so each has its own). Returns io.EOF after the last
// chunk.
func (c *chunker) next() ([]byte, int, error) {
	if len(c.carry) == 0 && c.err != nil {
		return nil, 0, c.err
	}
	buf := c.buffer(c.chunkBytes + len(c.carry))
	buf = append(buf, c.carry...)
	c.carry = c.carry[:0]
	for len(buf) < c.chunkBytes && c.err == nil {
		buf = c.fill(buf)
	}
	// Cut at the last line boundary; grow when the chunk is one giant
	// partial line.
	cut := bytes.LastIndexByte(buf, '\n')
	for cut < 0 && c.err == nil {
		if len(buf) > MaxLineBytes {
			return nil, 0, TooLongError(c.line)
		}
		grown := c.fill(buf)
		cut = lastIndexFrom(grown, len(buf))
		buf = grown
	}
	if cut < 0 {
		if len(buf) > MaxLineBytes {
			return nil, 0, TooLongError(c.line)
		}
		if len(buf) == 0 {
			if c.err != nil {
				return nil, 0, c.err
			}
			return nil, 0, io.EOF
		}
		// Final line without a trailing newline.
		first := c.line
		c.line++
		return buf, first, nil
	}
	c.carry = append(c.carry, buf[cut+1:]...)
	data := buf[:cut+1]
	first := c.line
	c.line += bytes.Count(data, nlSep)
	return data, first, nil
}

var nlSep = []byte{'\n'}

// buffer returns an empty buffer with at least size bytes of capacity,
// reusing a recycled one when one is large enough.
func (c *chunker) buffer(size int) []byte {
	for len(c.free) > 0 {
		b := c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
		if cap(b) >= size {
			return b[:0]
		}
	}
	// Headroom lets the buffer serve later chunks whose carried partial
	// line is longer.
	return make([]byte, 0, size+c.chunkBytes/16)
}

// recycle returns a chunk buffer whose contents are no longer read.
func (c *chunker) recycle(b []byte) {
	c.free = append(c.free, b[:0])
}

// fill reads once into buf's spare capacity (growing it when full) and
// records a sticky error.
func (c *chunker) fill(buf []byte) []byte {
	if len(buf) == cap(buf) {
		grown := make([]byte, len(buf), cap(buf)+c.chunkBytes)
		copy(grown, buf)
		buf = grown
	}
	n, err := c.r.Read(buf[len(buf):cap(buf)])
	if n > 0 {
		buf = buf[:len(buf)+n]
		c.zeroReads = 0
	} else if err == nil {
		// Tolerate sporadic (0, nil) reads like bufio does, but refuse to
		// spin on a reader that never makes progress.
		if c.zeroReads++; c.zeroReads >= 100 {
			c.err = io.ErrNoProgress
		}
	}
	if err != nil {
		c.err = err
	}
	return buf
}

// lastIndexFrom finds the last '\n' at or after position from.
func lastIndexFrom(b []byte, from int) int {
	if i := bytes.LastIndexByte(b[from:], '\n'); i >= 0 {
		return from + i
	}
	return -1
}
