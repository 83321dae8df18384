// Package joblog models the system-wide job log collected by the Cobalt
// scheduler on Intrepid: the per-job record schema (Table III of the
// paper), a line-oriented serialization with Cobalt-style epoch
// timestamps, and an in-memory log with the query operations the
// co-analysis pipeline needs.
package joblog

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/bgp"
	"repro/internal/linescan"
	"repro/internal/tailio"
)

// Job is one job record. A job is "distinct" from another iff its
// ExecFile differs; the paper treats resubmissions of the same
// executable as one distinct job.
type Job struct {
	// ID is the scheduler-assigned job sequence number.
	ID int64
	// Name is the user-visible job name ("N.A." when withheld).
	Name string
	// ExecFile is the path of the job executable; the distinct-job key.
	ExecFile string
	// QueueTime is when the job entered the wait queue.
	QueueTime time.Time
	// StartTime is when the job began running on its partition (after
	// the partition reboot that Blue Gene/P performs before execution).
	StartTime time.Time
	// EndTime is when the job exited — finished or interrupted.
	EndTime time.Time
	// Partition is the set of midplanes the job ran on.
	Partition bgp.Partition
	// User is the submitting user ("N.A." when withheld).
	User string
	// Project is the charging project ("N.A." when withheld).
	Project string
}

// Runtime returns the job's execution time (EndTime - StartTime).
func (j Job) Runtime() time.Duration { return j.EndTime.Sub(j.StartTime) }

// WaitTime returns the queueing delay (StartTime - QueueTime).
func (j Job) WaitTime() time.Duration { return j.StartTime.Sub(j.QueueTime) }

// Size returns the job's width in midplanes.
func (j Job) Size() int { return j.Partition.Size }

// RunningAt reports whether the job was executing at time t
// (StartTime <= t < EndTime).
func (j Job) RunningAt(t time.Time) bool {
	return !t.Before(j.StartTime) && t.Before(j.EndTime)
}

// OnMidplane reports whether the job's partition contains global
// midplane mp.
func (j Job) OnMidplane(mp int) bool { return j.Partition.Contains(mp) }

// epoch renders a time as Cobalt-style fractional epoch seconds.
func epoch(t time.Time) string {
	sec := float64(t.UnixNano()) / 1e9
	return strconv.FormatFloat(sec, 'f', 2, 64)
}

// appendEpoch is the append-style twin of epoch; strconv.AppendFloat
// emits the same bytes FormatFloat does.
func appendEpoch(dst []byte, t time.Time) []byte {
	sec := float64(t.UnixNano()) / 1e9
	return strconv.AppendFloat(dst, sec, 'f', 2, 64)
}

// epochToTime converts parsed fractional epoch seconds to a time the
// way the original parser did (Modf + rounded nanoseconds).
func epochToTime(f float64) time.Time {
	sec, frac := math.Modf(f)
	return time.Unix(int64(sec), int64(math.Round(frac*1e9))).UTC()
}

func parseEpoch(s string) (time.Time, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return time.Time{}, err
	}
	return epochToTime(f), nil
}

// parseEpochBytes parses Cobalt-style epoch seconds without allocating.
// The fast path covers plain fixed-point decimals ([+-]digits[.digits])
// whose value fits 53 bits of integer precision: there the quotient
// num/10^fd is a single correctly-rounded division, bit-identical to
// strconv.ParseFloat. Everything else (exponents, Inf/NaN spellings,
// >15-digit mantissas) falls back to ParseFloat on a transient string.
func parseEpochBytes(b []byte) (time.Time, bool, error) {
	i, neg := 0, false
	if i < len(b) && (b[i] == '+' || b[i] == '-') {
		neg = b[i] == '-'
		i++
	}
	var num uint64
	digits, fracDigits := 0, 0
	seenDot := false
	for ; i < len(b); i++ {
		c := b[i]
		if c == '.' {
			if seenDot {
				return time.Time{}, false, nil // second dot: let ParseFloat reject
			}
			seenDot = true
			continue
		}
		if c < '0' || c > '9' {
			return time.Time{}, false, nil // exponents etc.: fall back
		}
		num = num*10 + uint64(c-'0')
		digits++
		if seenDot {
			fracDigits++
		}
		if digits > 15 {
			return time.Time{}, false, nil // may need >53-bit precision
		}
	}
	if digits == 0 {
		return time.Time{}, false, nil // "", ".", "+": fall back (and fail)
	}
	f := float64(num) / float64(pow10[fracDigits])
	if neg {
		f = -f
	}
	return epochToTime(f), true, nil
}

var pow10 = [16]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

const numFields = 9

const fieldSep = "|"

// appendEscaped appends s with the job-log field escaping: backslash
// doubled, '|' as `\p`. (Unlike raslog, the historical job codec never
// escaped newlines; we preserve its exact byte behavior.)
func appendEscaped(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			dst = append(dst, '\\', '\\')
		case '|':
			dst = append(dst, '\\', 'p')
		default:
			dst = append(dst, s[i])
		}
	}
	return dst
}

func escape(s string) string {
	return string(appendEscaped(make([]byte, 0, len(s)), s))
}

// unescapeInto decodes the field escaping of b into dst (reused as
// scratch), mirroring the historical decoder: `\p` is '|', any other
// escaped byte stands for itself, a trailing lone backslash survives.
func unescapeInto(dst, b []byte) []byte {
	dst = dst[:0]
	for i := 0; i < len(b); i++ {
		if b[i] == '\\' && i+1 < len(b) {
			if b[i+1] == 'p' {
				dst = append(dst, '|')
			} else {
				dst = append(dst, b[i+1])
			}
			i++
			continue
		}
		dst = append(dst, b[i])
	}
	return dst
}

// intern deduplicates retained field strings across a decode stream;
// job logs repeat users, projects and executables heavily. Bounded so
// adversarial input degrades to plain allocation.
type intern struct {
	m map[string]string
}

const (
	internMaxEntries  = 1 << 15
	internMaxValueLen = 512
)

func newIntern() *intern { return &intern{m: make(map[string]string, 256)} }

func (it *intern) str(b []byte) string {
	if it == nil || len(b) > internMaxValueLen {
		return string(b)
	}
	if s, ok := it.m[string(b)]; ok { // no-alloc map probe
		return s
	}
	s := string(b)
	if len(it.m) < internMaxEntries {
		it.m[s] = s
	}
	return s
}

// decoder is the per-stream reusable state: unescape scratch, the
// intern table, and a partition cache (jobs draw from a small set of
// partition shapes, so each distinct spelling parses once).
type decoder struct {
	buf   []byte
	it    *intern
	parts map[string]bgp.Partition
}

func newDecoder() *decoder {
	return &decoder{it: newIntern(), parts: make(map[string]bgp.Partition, 64)}
}

func (d *decoder) str(b []byte) string {
	if bytes.IndexByte(b, '\\') < 0 {
		return d.it.str(b)
	}
	d.buf = unescapeInto(d.buf, b)
	return d.it.str(d.buf)
}

func (d *decoder) partition(b []byte) (bgp.Partition, error) {
	if p, ok := d.parts[string(b)]; ok { // no-alloc map probe
		return p, nil
	}
	p, err := bgp.ParsePartition(string(b))
	if err != nil {
		return bgp.Partition{}, err
	}
	if d.parts != nil && len(d.parts) < internMaxEntries {
		d.parts[string(b)] = p
	}
	return p, nil
}

// AppendLine appends the job's one-line serialization to dst and
// returns the extended buffer; the output is byte-identical to
// MarshalLine.
func (j *Job) AppendLine(dst []byte) []byte {
	dst = strconv.AppendInt(dst, j.ID, 10)
	dst = append(dst, '|')
	dst = appendEscaped(dst, j.Name)
	dst = append(dst, '|')
	dst = appendEscaped(dst, j.ExecFile)
	dst = append(dst, '|')
	dst = appendEpoch(dst, j.QueueTime)
	dst = append(dst, '|')
	dst = appendEpoch(dst, j.StartTime)
	dst = append(dst, '|')
	dst = appendEpoch(dst, j.EndTime)
	dst = append(dst, '|')
	dst = append(dst, j.Partition.String()...)
	dst = append(dst, '|')
	dst = appendEscaped(dst, j.User)
	dst = append(dst, '|')
	dst = appendEscaped(dst, j.Project)
	return dst
}

// MarshalLine renders the job as one line of the log file.
func (j Job) MarshalLine() string {
	return string(j.AppendLine(make([]byte, 0, 128)))
}

// ErrBadJob reports an unparseable job log line.
var ErrBadJob = errors.New("joblog: bad job line")

// UnmarshalFields parses one line of the job log into j with an
// index-based field scanner over the raw bytes: no field slice, no
// per-field conversions except the retained strings. The streaming
// Reader amortizes those through its intern table.
func (j *Job) UnmarshalFields(line []byte) error {
	return j.unmarshalFields(line, &decoder{})
}

// parseIDBytes matches strconv.ParseInt(s, 10, 64) acceptance exactly:
// optional sign, all digits, overflow rejected.
func parseIDBytes(b []byte) (int64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	neg := false
	i := 0
	if b[0] == '+' || b[0] == '-' {
		neg = b[0] == '-'
		i++
		if len(b) == 1 {
			return 0, false
		}
	}
	var n uint64
	for ; i < len(b); i++ {
		c := b[i] - '0'
		if c > 9 {
			return 0, false
		}
		if n > (1<<63)/10 {
			return 0, false
		}
		n = n*10 + uint64(c)
		if neg && n > 1<<63 {
			return 0, false
		}
		if !neg && n > 1<<63-1 {
			return 0, false
		}
	}
	if neg {
		return -int64(n), true
	}
	return int64(n), true
}

func (j *Job) unmarshalFields(line []byte, d *decoder) error {
	var f [numFields][]byte
	n := 0
	rest := line
	for {
		i := bytes.IndexByte(rest, '|')
		if i < 0 {
			if n < numFields {
				f[n] = rest
			}
			n++
			break
		}
		if n < numFields {
			f[n] = rest[:i]
		}
		n++
		rest = rest[i+1:]
	}
	if n != numFields {
		return fmt.Errorf("%w: %d fields, want %d", ErrBadJob, n, numFields)
	}
	id, ok := parseIDBytes(f[0])
	if !ok {
		return fmt.Errorf("%w: id %q", ErrBadJob, f[0])
	}
	qt, err := parseEpochField(f[3])
	if err != nil {
		return fmt.Errorf("%w: queue time %q", ErrBadJob, f[3])
	}
	st, err := parseEpochField(f[4])
	if err != nil {
		return fmt.Errorf("%w: start time %q", ErrBadJob, f[4])
	}
	et, err := parseEpochField(f[5])
	if err != nil {
		return fmt.Errorf("%w: end time %q", ErrBadJob, f[5])
	}
	part, err := d.partition(f[6])
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadJob, err)
	}
	j.ID = id
	j.QueueTime = qt
	j.StartTime = st
	j.EndTime = et
	j.Partition = part
	j.Name = d.str(f[1])
	j.ExecFile = d.str(f[2])
	j.User = d.str(f[7])
	j.Project = d.str(f[8])
	return nil
}

func parseEpochField(b []byte) (time.Time, error) {
	t, ok, err := parseEpochBytes(b)
	if !ok && err == nil {
		// The fast path is exact for well-formed fields; delegate
		// near-misses (and their string conversion) to the slow parser.
		return parseEpoch(string(b))
	}
	return t, err
}

// UnmarshalLine parses one line of the job log.
func UnmarshalLine(line string) (Job, error) {
	var j Job
	if err := j.UnmarshalFields([]byte(line)); err != nil {
		return Job{}, err
	}
	return j, nil
}

// Writer streams jobs to an underlying io.Writer.
type Writer struct {
	w   *bufio.Writer
	buf []byte
	n   int
	err error
}

// NewWriter returns a Writer on w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: bufio.NewWriter(w)} }

// Write appends one job record; errors are sticky.
func (w *Writer) Write(j Job) error {
	if w.err != nil {
		return w.err
	}
	w.buf = j.AppendLine(w.buf[:0])
	w.buf = append(w.buf, '\n')
	if _, err := w.w.Write(w.buf); err != nil {
		w.err = err
		return err
	}
	w.n++
	return nil
}

// Count returns the number of jobs written.
func (w *Writer) Count() int { return w.n }

// Flush flushes buffered output.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// Reader streams jobs from an underlying io.Reader. The idiomatic loop
// mirrors raslog.Reader:
//
//	r := joblog.NewReader(f)
//	for r.Next() {
//	    use(r.Job()) // valid until the next call to Next
//	}
//	if err := r.Err(); err != nil { ... }
type Reader struct {
	s    *bufio.Scanner
	line int
	job  Job
	dec  *decoder
	err  error
	done bool
}

// NewReader returns a Reader on r.
func NewReader(r io.Reader) *Reader {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 64*1024), linescan.MaxLineBytes)
	return &Reader{s: s, dec: newDecoder()}
}

// NewTailReader returns a Reader that follows a growing log: at end of
// input it polls for more bytes (every poll interval; non-positive
// means tailio.DefaultPoll) instead of stopping, until ctx is
// cancelled — then it drains what is already readable and ends
// cleanly. The decode path is identical to NewReader's.
func NewTailReader(ctx context.Context, r io.Reader, poll time.Duration) *Reader {
	return NewReader(tailio.NewReader(ctx, r, poll))
}

// Next advances to the next job, skipping blank lines. It returns false
// at end of input or on the first error; Err distinguishes the two.
func (r *Reader) Next() bool {
	if r.done {
		return false
	}
	for r.s.Scan() {
		r.line++
		line := r.s.Bytes()
		if len(line) == 0 {
			continue
		}
		if err := r.job.unmarshalFields(line, r.dec); err != nil {
			r.err = fmt.Errorf("line %d: %w", r.line, err)
			r.done = true
			return false
		}
		return true
	}
	r.done = true
	if err := r.s.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			// The scanner stalls at the over-long line without consuming
			// it; the offending line is the one after the last good one.
			err = linescan.TooLongError(r.line + 1)
		}
		r.err = err
	}
	return false
}

// Job returns the current job. The pointee is reused by Next; copy the
// Job (its field strings are immutable and shared) to retain it.
func (r *Reader) Job() *Job { return &r.job }

// Err returns the first error encountered, if any. It never returns
// io.EOF.
func (r *Reader) Err() error { return r.err }

// Line returns the 1-based line number of the current job.
func (r *Reader) Line() int { return r.line }

// Read returns the next job, or io.EOF at end of input. It is the
// pre-streaming API, kept as a thin wrapper over Next.
func (r *Reader) Read() (Job, error) {
	if r.Next() {
		return r.job, nil
	}
	if err := r.Err(); err != nil {
		return Job{}, err
	}
	return Job{}, io.EOF
}

// ReadAll drains the reader.
func (r *Reader) ReadAll() ([]Job, error) {
	var out []Job
	for r.Next() {
		out = append(out, r.job)
	}
	return out, r.Err()
}

// ReadAllParallel decodes a job log stream with workers parallel shards
// (0 = GOMAXPROCS, 1 = sequential), merging in chunk order; results and
// errors are identical to ReadAll on the same input for any worker
// count.
func ReadAllParallel(r io.Reader, workers int) ([]Job, error) {
	return linescan.DecodeAll(r, linescan.Options{Workers: workers}, func() linescan.ShardFunc[Job] {
		dec := newDecoder()
		return func(chunk []byte, firstLine int) ([]Job, error) {
			var out []Job
			err := linescan.ForEachLine(chunk, firstLine, func(line []byte, n int) error {
				if len(line) == 0 {
					return nil
				}
				var j Job
				if err := j.unmarshalFields(line, dec); err != nil {
					return fmt.Errorf("line %d: %w", n, err)
				}
				out = append(out, j)
				return nil
			})
			return out, err
		}
	})
}

// Log is an in-memory job log ordered by EndTime, with the aggregate
// queries the co-analysis needs. It is immutable after NewLog, so the
// ByExecFile grouping is built once, on first use, and shared by every
// reader; a Log is safe for concurrent use.
type Log struct {
	jobs []Job

	byExecOnce sync.Once
	byExec     map[string][]Job
}

// NewLog returns a log over jobs ordered by (EndTime, ID).
func NewLog(jobs []Job) *Log {
	l := &Log{jobs: append([]Job(nil), jobs...)}
	sort.SliceStable(l.jobs, func(i, j int) bool {
		if !l.jobs[i].EndTime.Equal(l.jobs[j].EndTime) {
			return l.jobs[i].EndTime.Before(l.jobs[j].EndTime)
		}
		return l.jobs[i].ID < l.jobs[j].ID
	})
	return l
}

// Len returns the number of jobs.
func (l *Log) Len() int { return len(l.jobs) }

// All returns the jobs ordered by EndTime (shared slice; callers must
// not mutate).
func (l *Log) All() []Job { return l.jobs }

// DistinctExecutables returns the number of distinct ExecFiles and the
// number of ExecFiles submitted more than once.
func (l *Log) DistinctExecutables() (distinct, resubmitted int) {
	count := make(map[string]int)
	for _, j := range l.jobs {
		count[j.ExecFile]++
	}
	for _, n := range count {
		if n > 1 {
			resubmitted++
		}
	}
	return len(count), resubmitted
}

// MidplaneBusySeconds returns, per global midplane, the total seconds
// the midplane spent allocated to jobs — the "workload" of Figure 4b.
// If minSize > 0, only jobs at least that wide contribute (Figure 4c
// uses wide jobs only).
func (l *Log) MidplaneBusySeconds(minSize int) [bgp.NumMidplanes]float64 {
	var out [bgp.NumMidplanes]float64
	for _, j := range l.jobs {
		if j.Size() < minSize {
			continue
		}
		sec := j.Runtime().Seconds()
		if sec < 0 {
			continue
		}
		for mp := j.Partition.Start; mp < j.Partition.End(); mp++ {
			out[mp] += sec
		}
	}
	return out
}

// Span returns the earliest QueueTime and the latest EndTime.
func (l *Log) Span() (first, last time.Time) {
	if len(l.jobs) == 0 {
		return
	}
	first = l.jobs[0].QueueTime
	for _, j := range l.jobs {
		if j.QueueTime.Before(first) {
			first = j.QueueTime
		}
	}
	return first, l.jobs[len(l.jobs)-1].EndTime
}

// ByExecFile groups jobs by executable, each group ordered by
// StartTime; used by resubmission analyses. The grouping is built once
// per Log and shared: callers must not mutate the map or its slices.
func (l *Log) ByExecFile() map[string][]Job {
	l.byExecOnce.Do(func() {
		m := make(map[string][]Job)
		for _, j := range l.jobs {
			m[j.ExecFile] = append(m[j.ExecFile], j)
		}
		for _, js := range m {
			sort.Slice(js, func(a, b int) bool { return js[a].StartTime.Before(js[b].StartTime) })
		}
		l.byExec = m
	})
	return l.byExec
}
