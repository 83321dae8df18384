// Package joblog models the system-wide job log collected by the Cobalt
// scheduler on Intrepid: the per-job record schema (Table III of the
// paper), a line-oriented serialization with Cobalt-style epoch
// timestamps, and an in-memory log with the query operations the
// co-analysis pipeline needs.
package joblog

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
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
	parts map[string]parsedPartition
}

// parsedPartition is a partition spelling's parse and the length of
// its canonical rendering (Partition.AppendTo).
type parsedPartition struct {
	p bgp.Partition
	n int
}

func newDecoder() *decoder {
	return &decoder{it: newIntern(), parts: make(map[string]parsedPartition, 64)}
}

// str returns the decoded field and its escaped length (escapedLen). A
// field without a backslash decodes to itself and holds no '|', so its
// escaped length is its raw length.
func (d *decoder) str(b []byte) (string, int) {
	if bytes.IndexByte(b, '\\') < 0 {
		return d.it.str(b), len(b)
	}
	d.buf = unescapeInto(d.buf, b)
	s := d.it.str(d.buf)
	return s, escapedLen(s)
}

// partition returns the partition b spells and the length of its
// canonical rendering.
func (d *decoder) partition(b []byte) (bgp.Partition, int, error) {
	if pp, ok := d.parts[string(b)]; ok { // no-alloc map probe
		return pp.p, pp.n, nil
	}
	p, err := bgp.ParsePartition(string(b))
	if err != nil {
		return bgp.Partition{}, 0, err
	}
	var buf [32]byte
	n := len(p.AppendTo(buf[:0]))
	if d.parts != nil && len(d.parts) < internMaxEntries {
		d.parts[string(b)] = parsedPartition{p, n}
	}
	return p, n, nil
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
	dst = j.Partition.AppendTo(dst)
	dst = append(dst, '|')
	dst = appendEscaped(dst, j.User)
	dst = append(dst, '|')
	dst = appendEscaped(dst, j.Project)
	return dst
}

// MarshaledLen returns len(j.AppendLine(nil)) without allocating or
// formatting: the digits of the ID, each string field's escaped length,
// the three epochs' lengths, the partition's length and the eight
// separators.
func (j *Job) MarshaledLen() int {
	var buf [32]byte
	return intLen(j.ID) + escapedLen(j.Name) + escapedLen(j.ExecFile) +
		epochLen(j.QueueTime) + epochLen(j.StartTime) + epochLen(j.EndTime) +
		len(j.Partition.AppendTo(buf[:0])) + escapedLen(j.User) + escapedLen(j.Project) +
		numFields - 1
}

// intLen is len(strconv.AppendInt(nil, v, 10)).
func intLen(v int64) int {
	u := uint64(v)
	if v < 0 {
		return 1 + digits(-u)
	}
	return digits(u)
}

// digits is the number of decimal digits of u (1 for 0). The bit length
// times log10(2) ≈ 1233/4096 gives t such that u has t or t+1 digits,
// and u < 10^t settles which. u|1 has u's digit count, since every power
// of ten from 10 on is even, and it keeps 0 out of the bit length.
func digits(u uint64) int {
	u |= 1
	t := bits.Len64(u) * 1233 >> 12
	if u < pow10u[t] {
		return t
	}
	return t + 1
}

// pow10u[i] is 10^i, up to the largest power of ten a uint64 holds.
var pow10u = [20]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// escapedLen is len(appendEscaped(nil, s)).
func escapedLen(s string) int {
	n := len(s)
	for i := 0; i < len(s); i++ {
		if c := s[i]; c == '\\' || c == '|' {
			n++
		}
	}
	return n
}

// epochLen is len(appendEpoch(nil, t)): a sign for negative times, the
// whole seconds' digits, the point and two decimals. It is read off
// UnixNano in integer arithmetic. The float quotient appendEpoch rounds
// lies within a microsecond of the exact one, so with a fraction below
// .99 s it rounds to the same whole seconds; only from .99 on can the
// rounding carry into another digit, and that case formats for real.
func epochLen(t time.Time) int {
	ns := t.UnixNano()
	u := uint64(ns)
	if ns < 0 {
		u = -u
	}
	if u%1e9 >= 99e7 {
		var buf [32]byte
		return len(appendEpoch(buf[:0], t))
	}
	n := intLen(int64(u/1e9)) + len(".00")
	if ns < 0 {
		n++
	}
	return n
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
	_, err := j.unmarshalFields(line, &decoder{})
	return err
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

// unmarshalFields decodes line into j and returns j.MarshaledLen(),
// summed from what the decode already holds: each string field's
// escaped length, the partition's cached rendering length, and the
// ID's and epochs' formatted lengths (a non-canonical spelling such as
// "+12" or "1.5" counts as it re-marshals, not as it was read).
func (j *Job) unmarshalFields(line []byte, d *decoder) (int, error) {
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
		return 0, fmt.Errorf("%w: %d fields, want %d", ErrBadJob, n, numFields)
	}
	id, ok := parseIDBytes(f[0])
	if !ok {
		return 0, fmt.Errorf("%w: id %q", ErrBadJob, f[0])
	}
	qt, err := parseEpochField(f[3])
	if err != nil {
		return 0, fmt.Errorf("%w: queue time %q", ErrBadJob, f[3])
	}
	st, err := parseEpochField(f[4])
	if err != nil {
		return 0, fmt.Errorf("%w: start time %q", ErrBadJob, f[4])
	}
	et, err := parseEpochField(f[5])
	if err != nil {
		return 0, fmt.Errorf("%w: end time %q", ErrBadJob, f[5])
	}
	part, size, err := d.partition(f[6])
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadJob, err)
	}
	j.ID = id
	j.QueueTime = qt
	j.StartTime = st
	j.EndTime = et
	j.Partition = part
	var fn int
	j.Name, fn = d.str(f[1])
	size += fn
	j.ExecFile, fn = d.str(f[2])
	size += fn
	j.User, fn = d.str(f[7])
	size += fn
	j.Project, fn = d.str(f[8])
	size += fn
	size += intLen(id) + epochLen(qt) + epochLen(st) + epochLen(et) + numFields - 1
	return size, nil
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

// Writer streams jobs to an underlying io.Writer.
type Writer struct {
	w   *bufio.Writer
	buf []byte
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
	return nil
}

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
		if _, err := r.job.unmarshalFields(line, r.dec); err != nil {
			r.fail(err, true)
			return false
		}
		return true
	}
	r.done = true
	if err := r.s.Err(); err != nil {
		r.fail(err, false)
	}
	return false
}

// fail ends the stream with err. A decode error is wrapped with its
// line number. A scanner error belongs to the line after the last one
// scanned, because the scanner stalls at the line it cannot read
// without counting it: fail counts that line, so Line names it, and an
// overflow becomes linescan.TooLongError for it. It stays out of line
// so the error values it builds are not charged to Next, whose
// per-record path is escape-free (cmd/bgpescape's codec rule).
//
//go:noinline
func (r *Reader) fail(err error, decode bool) {
	if !decode {
		r.line++
	}
	switch {
	case decode:
		err = fmt.Errorf("line %d: %w", r.line, err)
	case errors.Is(err, bufio.ErrTooLong):
		err = linescan.TooLongError(r.line)
	}
	r.err = err
	r.done = true
}

// Job returns the current job. The pointee is reused by Next; copy the
// Job (its field strings are immutable and shared) to retain it.
func (r *Reader) Job() *Job { return &r.job }

// Err returns the first error encountered, if any. It never returns
// io.EOF.
func (r *Reader) Err() error { return r.err }

// Line returns the 1-based line number of the current job; after an
// error, that of the line the error names.
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
	jobs, _, err := readAll(r, linescan.Options{Workers: workers})
	return jobs, err
}

// ReadLog decodes a job log stream as ReadAllParallel does and returns
// it as a Log (NewLog). The decode sums each job's marshaled length from
// the fields it parses, so the Log's MarshaledBytes costs nothing more.
func ReadLog(r io.Reader, workers int) (*Log, error) {
	jobs, marshaled, err := readAll(r, linescan.Options{Workers: workers})
	if err != nil {
		return nil, err
	}
	l := NewLog(jobs)
	l.marshaledOnce.Do(func() { l.marshaled = marshaled })
	return l, nil
}

// readAll decodes r into jobs and returns them with their MarshaledBytes
// total.
func readAll(r io.Reader, opts linescan.Options) ([]Job, int, error) {
	var marshaled atomic.Int64
	jobs, err := linescan.DecodeAll(r, opts, func() linescan.ShardFunc[Job] {
		dec := newDecoder()
		return func(chunk []byte, firstLine int) ([]Job, error) {
			// One job per line at most, so the shard never regrows.
			out := make([]Job, 0, bytes.Count(chunk, []byte{'\n'})+1)
			size := 0
			err := linescan.ForEachLine(chunk, firstLine, func(line []byte, n int) error {
				if len(line) == 0 {
					return nil
				}
				var j Job
				m, err := j.unmarshalFields(line, dec)
				if err != nil {
					return fmt.Errorf("line %d: %w", n, err)
				}
				out = append(out, j)
				size += m + 1
				return nil
			})
			marshaled.Add(int64(size))
			return out, err
		}
	})
	return jobs, int(marshaled.Load()), err
}

// Log is an in-memory job log ordered by EndTime, with the aggregate
// queries the co-analysis needs. It is immutable after NewLog, so the
// MarshaledBytes total is summed once (by ReadLog's decode, or on first
// use) and shared by every reader; a Log is safe for concurrent use.
type Log struct {
	jobs []Job

	marshaledOnce sync.Once
	marshaled     int
}

// NewLog returns a log over jobs ordered by (EndTime, ID). The log
// takes ownership of jobs: it keeps the slice rather than a copy, and
// sorts it in place (stably) when it is out of order, so the caller must
// not modify jobs afterwards. Appending to the caller's slice past
// len(jobs) leaves the log's view unchanged. A caller that needs its
// own order kept must pass a copy.
func NewLog(jobs []Job) *Log {
	if !slices.IsSortedFunc(jobs, compareEnd) {
		SortStable(jobs)
	}
	return &Log{jobs: jobs}
}

// SortStable sorts jobs in place into (EndTime, ID) order, keeping input
// order among full ties: the order a Log keeps and bgpd ingests. It
// sorts 4-byte positions by (EndTime, ID, position), then moves each job
// once by following the permutation's cycles in place, instead of
// shifting whole Jobs through a stable merge sort. Positions hold no
// pointers, unlike copied time.Time keys (a time.Time carries its
// Location): the collector does not scan them, and the sort's writes pay
// no write barrier while a collection runs. The order agrees with
// compareEnd on every pair, because it compares the time.Time values
// themselves.
func SortStable(jobs []Job) {
	perm := make([]int32, len(jobs))
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(a, b int32) int {
		ja, jb := &jobs[a], &jobs[b]
		if c := ja.EndTime.Compare(jb.EndTime); c != 0 {
			return c
		}
		if c := cmp.Compare(ja.ID, jb.ID); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	// Slot i takes the job at perm[i]. Walk each cycle once, marking a
	// slot done by pointing it at itself.
	for i := range perm {
		if int(perm[i]) == i {
			continue
		}
		held := jobs[i]
		j := i
		for {
			k := int(perm[j])
			perm[j] = int32(j)
			if k == i {
				jobs[j] = held
				break
			}
			jobs[j] = jobs[k]
			j = k
		}
	}
}

// compareEnd orders jobs by (EndTime, ID).
func compareEnd(a, b Job) int {
	if c := a.EndTime.Compare(b.EndTime); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// Len returns the number of jobs.
func (l *Log) Len() int { return len(l.jobs) }

// All returns the jobs ordered by EndTime (shared slice; callers must
// not mutate).
func (l *Log) All() []Job { return l.jobs }

// DistinctExecutables returns the number of distinct ExecFiles and the
// number of ExecFiles submitted more than once, counted in one map per
// call. The analysis reads the first off its interned executables.
func (l *Log) DistinctExecutables() (distinct, resubmitted int) {
	count := make(map[string]int)
	for i := range l.jobs {
		count[l.jobs[i].ExecFile]++
		if count[l.jobs[i].ExecFile] == 2 {
			resubmitted++
		}
	}
	return len(count), resubmitted
}

// MidplaneBusySeconds returns, per global midplane, the total seconds
// the midplane spent allocated to jobs — the "workload" of Figure 4b —
// and the same total over only the jobs at least wideSize midplanes
// wide (Figure 4c), both in one pass over the jobs.
func (l *Log) MidplaneBusySeconds(wideSize int) (all, wide [bgp.NumMidplanes]float64) {
	for i := range l.jobs {
		j := &l.jobs[i]
		sec := j.Runtime().Seconds()
		if sec < 0 {
			continue
		}
		isWide := j.Size() >= wideSize
		for mp := j.Partition.Start; mp < j.Partition.End(); mp++ {
			all[mp] += sec
			if isWide {
				wide[mp] += sec
			}
		}
	}
	return all, wide
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

// MarshaledBytes returns the size of the log re-marshaled one job per
// line: the sum of Job.MarshaledLen plus a newline per job. ReadLog's
// decode sums it; a Log built from values sums it once, on first use.
func (l *Log) MarshaledBytes() int {
	l.marshaledOnce.Do(func() {
		n := 0
		for i := range l.jobs {
			n += l.jobs[i].MarshaledLen() + 1
		}
		l.marshaled = n
	})
	return l.marshaled
}
