// Package linescan is the bounded-memory substrate of the streaming log
// codecs: it cuts an io.Reader into chunks that end on line boundaries
// and runs them through an ordered pipeline — a reader goroutine cuts
// chunks ahead of a fixed set of shard workers, and the caller emits
// each chunk's values in chunk order — so a multi-gigabyte log is
// decoded by concurrent shard workers, with reading overlapped with
// parsing, while at most 2×Workers chunk buffers are resident at any
// moment.
//
// The determinism contract matches internal/parallel: chunk boundaries
// depend only on the byte stream and the configured chunk size, shard
// outputs are emitted in chunk order (index-keyed, like the filter
// cascade's tag merge), and the first parse error — with its 1-based
// line number — is exactly the one a sequential scan of the same input
// would report. The decoded result is byte-identical for any worker
// count, including 1.
package linescan

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sync"

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
// values are emitted, so the values must not alias it: copy every
// retained byte (string(b) does). The returned slice is handed over:
// the shard must not write to it again (DecodeAll keeps it).
type ShardFunc[T any] func(chunk []byte, firstLine int) ([]T, error)

// DecodeAll is Decode collecting every value: the returned slice and
// error match a sequential decode of the same stream byte for byte. The
// first chunk's slice becomes the result and later chunks append to it,
// so a stream of one chunk is returned without a copy; the shard must
// hand over a fresh slice for each chunk.
func DecodeAll[T any](r io.Reader, opts Options, newShard func() ShardFunc[T]) ([]T, error) {
	var out []T
	err := Decode(r, opts, newShard, func(vals []T) error {
		if out == nil {
			out = vals
		} else {
			out = append(out, vals...)
		}
		return nil
	})
	return out, err
}

// Decode streams r through newShard-produced workers and hands each
// chunk's decoded values to emit, in chunk order. With Workers > 1 a
// reader goroutine cuts chunks ahead of Workers shard goroutines through
// a ring of at most 2×Workers chunk buffers, so reading overlaps with
// parsing and the caller emits one chunk while later ones are read and
// parsed; with Workers == 1 the same loop cuts, parses and emits each
// chunk inline, starting no goroutine. Each worker calls newShard once
// and reuses the returned ShardFunc for every chunk it parses, so shards
// may keep worker-local state (e.g. string intern tables); newShard
// itself may be called from concurrent goroutines and must not touch
// shared mutable state. emit runs on the calling goroutine and is not
// called for a chunk that decoded no values. Reads stay bounded: at most
// 2×Workers chunk buffers and their decoded values are resident.
//
// The values emitted and the error returned match a sequential decode
// of the same stream: on a malformed line, the values before it are
// emitted and the shard's error (naming the line) is returned; a read
// error comes back after the values of every chunk cut before it. An
// emit error stops the decode and is returned as is. Decode returns
// only once every goroutine it started has exited, which waits for a
// read already in progress to return.
func Decode[T any](r io.Reader, opts Options, newShard func() ShardFunc[T], emit func([]T) error) error {
	return newPipeline(r, opts, newShard).run(emit)
}

// slot is one chunk buffer of the pipeline's ring and the decode of
// the chunk it holds.
type slot[T any] struct {
	buf       []byte // the slot's buffer; data is a prefix of it
	data      []byte
	firstLine int
	vals      []T
	err       error
	parsed    chan struct{} // signalled once vals and err are set
}

// pipeline runs one Decode. With Workers == 1 it uses the inline slot
// and shard; otherwise the channels carry slots between the reader, the
// workers and the caller.
type pipeline[T any] struct {
	c        chunker
	workers  int
	newShard func() ShardFunc[T]

	one   slot[T]      // the inline slot (Workers == 1)
	shard ShardFunc[T] // the inline shard (Workers == 1)

	free    chan *slot[T] // emitted slots, back to the reader
	work    chan *slot[T] // cut slots, to the workers
	order   chan *slot[T] // cut slots in chunk order, to the caller
	stopped chan struct{} // closed when the caller stops early or is done
	wg      sync.WaitGroup

	buffers int   // chunk buffers made; written by the cutting goroutine
	readErr error // the reader's final error; read after order closes
}

func newPipeline[T any](r io.Reader, opts Options, newShard func() ShardFunc[T]) *pipeline[T] {
	size := opts.ChunkBytes
	if size <= 0 {
		size = DefaultChunkBytes
	}
	if size > MaxLineBytes {
		size = MaxLineBytes
	}
	return &pipeline[T]{
		c:        chunker{r: r, chunkBytes: size, line: 1},
		workers:  parallel.Workers(opts.Workers),
		newShard: newShard,
	}
}

// run is Decode's loop: take the next chunk in order, emit its values,
// stop at its error, hand its buffer back.
func (p *pipeline[T]) run(emit func([]T) error) error {
	if p.workers > 1 {
		p.start()
		defer p.stop()
	}
	for {
		s := p.next()
		if s == nil {
			return p.readErr
		}
		if len(s.vals) > 0 {
			if err := emit(s.vals); err != nil {
				return err
			}
		}
		if s.err != nil {
			// Sequential semantics: values decoded before the first bad
			// line survive, everything after it is discarded.
			return s.err
		}
		p.release(s)
	}
}

// next returns the next chunk in chunk order, parsed, or nil after the
// last one (p.readErr then holds the read error, nil at EOF).
func (p *pipeline[T]) next() *slot[T] {
	if p.workers == 1 {
		s := &p.one
		if !p.cut(s) {
			return nil
		}
		if p.shard == nil {
			p.shard = p.newShard()
		}
		s.vals, s.err = p.shard(s.data, s.firstLine)
		return s
	}
	s, ok := <-p.order
	if !ok {
		return nil
	}
	<-s.parsed
	return s
}

// release hands an emitted slot's buffer back to the reader; its
// values are no longer read, so the next chunk may overwrite it.
func (p *pipeline[T]) release(s *slot[T]) {
	s.vals = nil
	if p.workers > 1 {
		p.free <- s // never blocks: free holds every slot at most once
	}
}

// cut reads the next chunk into s's buffer. It reports false at the end
// of the stream, recording a read error other than io.EOF in p.readErr.
func (p *pipeline[T]) cut(s *slot[T]) bool {
	if s.buf == nil {
		p.buffers++
	}
	data, first, err := p.c.next(s.buf)
	if err != nil {
		if err != io.EOF {
			p.readErr = err
		}
		return false
	}
	s.buf, s.data, s.firstLine = data[:0], data, first
	return true
}

// start launches the reader and the workers. Every channel holds at
// most the ring's 2×Workers slots, so sends on them never block.
func (p *pipeline[T]) start() {
	ring := 2 * p.workers
	p.free = make(chan *slot[T], ring)
	p.work = make(chan *slot[T], ring)
	p.order = make(chan *slot[T], ring)
	p.stopped = make(chan struct{})
	p.wg.Add(1 + p.workers)
	go p.read(ring)
	for i := 0; i < p.workers; i++ {
		go p.parse()
	}
}

// stop ends the reader and the workers and waits for them.
func (p *pipeline[T]) stop() {
	close(p.stopped)
	p.wg.Wait()
}

// read cuts chunks into ring slots, making a new slot while the ring
// has room and reusing an emitted one after that, until the stream ends
// or the caller stops.
func (p *pipeline[T]) read(ring int) {
	defer p.wg.Done()
	defer close(p.order)
	defer close(p.work)
	made := 0
	for {
		var s *slot[T]
		select {
		case <-p.stopped:
			return
		case s = <-p.free:
		default:
			if made < ring {
				made++
				s = &slot[T]{parsed: make(chan struct{}, 1)}
			} else {
				select {
				case <-p.stopped:
					return
				case s = <-p.free:
				}
			}
		}
		if !p.cut(s) {
			return
		}
		p.work <- s
		p.order <- s
	}
}

// parse is one worker: it decodes the slots it takes with its own
// shard, and after a stop drains the rest without parsing them.
func (p *pipeline[T]) parse() {
	defer p.wg.Done()
	var shard ShardFunc[T]
	for s := range p.work {
		select {
		case <-p.stopped:
			continue
		default:
		}
		if shard == nil {
			shard = p.newShard()
		}
		s.vals, s.err = shard(s.data, s.firstLine)
		s.parsed <- struct{}{}
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
// concurrent use; one goroutine at a time drives it.
type chunker struct {
	r          io.Reader
	chunkBytes int
	carry      []byte // partial trailing line of the previous chunk
	line       int    // 1-based number of the next chunk's first line
	err        error  // sticky read error (io.EOF included)
	zeroReads  int    // consecutive (0, nil) reads, for the no-progress guard
}

// next cuts the next line-aligned chunk into buf (grown or replaced
// when too small; its contents are overwritten) and returns it with the
// 1-based number of its first line. Returns io.EOF after the last
// chunk.
func (c *chunker) next(buf []byte) ([]byte, int, error) {
	if len(c.carry) == 0 && c.err != nil {
		return nil, 0, c.err
	}
	if need := c.chunkBytes + len(c.carry); cap(buf) < need {
		// Headroom lets the buffer serve later chunks whose carried
		// partial line is longer.
		buf = make([]byte, 0, need+c.chunkBytes/16)
	}
	buf = append(buf[:0], c.carry...)
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
