// Package raslog models the Blue Gene/P RAS (Reliability, Availability,
// Serviceability) event log produced by the Core Monitoring and Control
// System (CMCS): the record schema, the event-time format, a streaming
// line-oriented serialization, and an in-memory store with the query
// operations the co-analysis pipeline needs.
//
// The line codec is allocation-conscious: UnmarshalFields splits a
// []byte line with one IndexByte per separator (no strings.Split, no
// fmt scanning) and checks the timestamp's fixed layout a 64-bit word
// at a time, AppendLine marshals into a caller-supplied buffer, and the
// streaming Reader amortizes the remaining per-record string
// allocations through a field intern table — RAS streams repeat MsgIDs,
// ERRCODEs, locations and flags millions of times. ScanFatal, which
// materializes only FATAL records, splits just a line's seven head
// fields and counts the separators of the rest.
package raslog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"time"
)

// Severity is the RAS severity ladder. DEBUG and TRACE exist in the
// CMCS schema but do not occur in the Intrepid log studied by the
// paper; only FATAL presumably leads to application or system crash.
type Severity int

const (
	// SevUnknown is the zero value.
	SevUnknown Severity = iota
	// SevDebug designates code-debugging information (absent on Intrepid).
	SevDebug
	// SevTrace designates tracing information (absent on Intrepid).
	SevTrace
	// SevInfo reports system-software progress, e.g. automatic recovery.
	SevInfo
	// SevWarning reports recoverable soft errors, e.g. ECC-correctable
	// single-symbol errors.
	SevWarning
	// SevError reports harmful events that may still let the application
	// continue, e.g. failure of a redundant component.
	SevError
	// SevFatal reports events that presumably crash the application or
	// system. The co-analysis pipeline consumes only these.
	SevFatal
)

var severityNames = [...]string{
	SevDebug: "DEBUG", SevTrace: "TRACE", SevInfo: "INFO",
	SevWarning: "WARNING", SevError: "ERROR", SevFatal: "FATAL",
}

// String returns the CMCS spelling of the severity.
func (s Severity) String() string {
	if s > SevUnknown && int(s) < len(severityNames) {
		return severityNames[s]
	}
	return "UNKNOWN"
}

// parseSeverityBytes matches the CMCS severity spellings without
// allocating (the compiler optimizes the string(b) switch).
func parseSeverityBytes(b []byte) (Severity, bool) {
	switch string(b) {
	case "DEBUG":
		return SevDebug, true
	case "TRACE":
		return SevTrace, true
	case "INFO":
		return SevInfo, true
	case "WARNING":
		return SevWarning, true
	case "ERROR":
		return SevError, true
	case "FATAL":
		return SevFatal, true
	}
	return SevUnknown, false
}

// ParseSeverity parses the CMCS spelling of a severity.
func ParseSeverity(s string) (Severity, error) {
	if sev, ok := parseSeverityBytes([]byte(s)); ok {
		return sev, nil
	}
	return SevUnknown, fmt.Errorf("raslog: unknown severity %q", s)
}

// Component is the software component that detected and reported an
// event.
type Component int

const (
	// CompUnknown is the zero value.
	CompUnknown Component = iota
	// CompApplication indicates the running job.
	CompApplication
	// CompKernel indicates the OS kernel domain (compute-node kernel).
	CompKernel
	// CompMC designates the machine controller.
	CompMC
	// CompMMCS designates the control system on the service node.
	CompMMCS
	// CompBareMetal designates service-related facilities.
	CompBareMetal
	// CompCard indicates a card controller.
	CompCard
	// CompDiags refers to diagnostic functions on compute or service nodes.
	CompDiags
)

var componentNames = [...]string{
	CompApplication: "APPLICATION", CompKernel: "KERNEL", CompMC: "MC",
	CompMMCS: "MMCS", CompBareMetal: "BAREMETAL", CompCard: "CARD",
	CompDiags: "DIAGS",
}

// Components lists all reporting components in a stable order.
var Components = []Component{
	CompApplication, CompKernel, CompMC, CompMMCS, CompBareMetal, CompCard, CompDiags,
}

// String returns the CMCS spelling of the component.
func (c Component) String() string {
	if c > CompUnknown && int(c) < len(componentNames) {
		return componentNames[c]
	}
	return "UNKNOWN"
}

// parseComponentBytes matches the CMCS component spellings without
// allocating.
func parseComponentBytes(b []byte) (Component, bool) {
	switch string(b) {
	case "APPLICATION":
		return CompApplication, true
	case "KERNEL":
		return CompKernel, true
	case "MC":
		return CompMC, true
	case "MMCS":
		return CompMMCS, true
	case "BAREMETAL":
		return CompBareMetal, true
	case "CARD":
		return CompCard, true
	case "DIAGS":
		return CompDiags, true
	}
	return CompUnknown, false
}

// ParseComponent parses the CMCS spelling of a component.
func ParseComponent(s string) (Component, error) {
	if c, ok := parseComponentBytes([]byte(s)); ok {
		return c, nil
	}
	return CompUnknown, fmt.Errorf("raslog: unknown component %q", s)
}

// EventTimeLayout is the CMCS timestamp format, e.g.
// "2008-04-14-15.08.12.285324".
const EventTimeLayout = "2006-01-02-15.04.05.000000"

// FormatEventTime renders t in the CMCS timestamp format (UTC).
func FormatEventTime(t time.Time) string {
	return t.UTC().Format(EventTimeLayout)
}

// ParseEventTime parses a CMCS timestamp.
func ParseEventTime(s string) (time.Time, error) {
	return time.Parse(EventTimeLayout, s)
}

// eventKey is a CMCS event time packed into one integer whose order is
// the time order: the year (0000-9999, the four digits the layout
// allows) in the high bits, then month, day, hour, minute, second and
// microsecond. The decode compares keys to fold a chunk's first and
// last event time, and builds a time.Time only for what something
// reads: FATAL records and each chunk's extremes.
type eventKey int64

// Bit widths of the packed fields below the year.
const (
	keyMicroBits = 20 // 0..999999
	keySecBits   = 6
	keyMinBits   = 6
	keyHourBits  = 5
	keyDayBits   = 5
	keyMonthBits = 4
)

func packEventKey(year, month, day, hour, min, sec, micro int) eventKey {
	k := int64(year)
	k = k<<keyMonthBits | int64(month)
	k = k<<keyDayBits | int64(day)
	k = k<<keyHourBits | int64(hour)
	k = k<<keyMinBits | int64(min)
	k = k<<keySecBits | int64(sec)
	return eventKey(k<<keyMicroBits | int64(micro))
}

// timeKey is the key of t, truncated to the microsecond the CMCS layout
// carries.
func timeKey(t time.Time) eventKey {
	t = t.UTC()
	y, mo, d := t.Date()
	h, mi, s := t.Clock()
	return packEventKey(y, int(mo), d, h, mi, s, t.Nanosecond()/1000)
}

// year returns the key's year.
func (k eventKey) year() int {
	return int(k >> (keyMicroBits + keySecBits + keyMinBits + keyHourBits + keyDayBits + keyMonthBits))
}

// time builds the UTC time.Time the key packs; it equals what
// time.Parse(EventTimeLayout, …) returns for the timestamp.
func (k eventKey) time() time.Time {
	field := func(bits int) int {
		v := int(k & (1<<bits - 1))
		k >>= bits
		return v
	}
	micro := field(keyMicroBits)
	sec := field(keySecBits)
	min := field(keyMinBits)
	hour := field(keyHourBits)
	day := field(keyDayBits)
	month := field(keyMonthBits)
	return time.Date(int(k), time.Month(month), day, hour, min, sec, micro*1000, time.UTC)
}

// daysInMonth is the length of each month of a common year.
var daysInMonth = [13]int{1: 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31}

// isLeap reports whether year is a leap year of the proleptic Gregorian
// calendar, the calendar time.Parse validates against.
func isLeap(year int) bool {
	return year%4 == 0 && (year%100 != 0 || year%400 == 0)
}

// The fixed CMCS timestamp layout, "2006-01-02-15.04.05.000000", read
// as four little-endian 64-bit words at byte offsets 0, 8, 16 and 18
// (the last two overlap, so together they cover all 26 bytes). A word's
// pattern holds '0' at each digit and the separator itself at each
// separator. XOR with the pattern leaves 0-9 at a digit position exactly
// when the byte was '0'-'9', and 0 at a separator position exactly when
// it matched. The addend then holds 0x80-1-limit per byte (0x76 for a
// digit's limit 9, 0x7f for a separator's limit 0): adding it to the
// XOR's low seven bits sets a byte's high bit exactly when the byte
// exceeds its limit, and no byte carries into the next (0x7f+0x7f <
// 0x100). TestTimestampWordsMatchLayout rebuilds these from the layout.
const (
	tsPattern0 = 0x2d30302d30303030 // "0000-00-"
	tsPattern1 = 0x30302e30302d3030 // "00-00.00"
	tsPattern2 = 0x303030302e30302e // ".00.0000"
	tsPattern3 = 0x3030303030302e30 // "0.000000"
	tsAddend0  = 0x7f76767f76767676
	tsAddend1  = 0x76767f76767f7676
	tsAddend2  = 0x767676767f76767f
	tsAddend3  = 0x7676767676767f76
	lowSeven   = 0x7f7f7f7f7f7f7f7f
	highBits   = 0x8080808080808080
)

// tsWordBad reports whether a timestamp word holds a byte outside its
// pattern: a non-digit where a digit belongs, or a separator that does
// not match. It is branch-free and carry-free.
func tsWordBad(w, pattern, addend uint64) bool {
	x := w ^ pattern
	return ((x&lowSeven)+addend|x)&highBits != 0
}

// parseEventTimeBytes is the allocation-free fast path for the
// fixed-width CMCS timestamp. It accepts exactly the all-digit
// timestamps time.Parse accepts for EventTimeLayout (fixed-width
// digits, in-range calendar fields, the day within its month) and
// returns their key; callers fall back to ParseEventTime when it
// reports !ok, which also covers what time.Parse alone accepts (a comma
// before the fraction, a signed fraction). Four word checks validate
// the layout, every separator and every digit; the fields are then
// read digit by digit with no further test.
func parseEventTimeBytes(b []byte) (eventKey, bool) {
	if len(b) != 26 {
		return 0, false
	}
	if tsWordBad(binary.LittleEndian.Uint64(b[0:8]), tsPattern0, tsAddend0) ||
		tsWordBad(binary.LittleEndian.Uint64(b[8:16]), tsPattern1, tsAddend1) ||
		tsWordBad(binary.LittleEndian.Uint64(b[16:24]), tsPattern2, tsAddend2) ||
		tsWordBad(binary.LittleEndian.Uint64(b[18:26]), tsPattern3, tsAddend3) {
		return 0, false
	}
	year := int(b[0]-'0')*1000 + int(b[1]-'0')*100 + int(b[2]-'0')*10 + int(b[3]-'0')
	month := int(b[5]-'0')*10 + int(b[6]-'0')
	day := int(b[8]-'0')*10 + int(b[9]-'0')
	hour := int(b[11]-'0')*10 + int(b[12]-'0')
	min := int(b[14]-'0')*10 + int(b[15]-'0')
	sec := int(b[17]-'0')*10 + int(b[18]-'0')
	micro := int(b[20]-'0')*100000 + int(b[21]-'0')*10000 + int(b[22]-'0')*1000 +
		int(b[23]-'0')*100 + int(b[24]-'0')*10 + int(b[25]-'0')
	if month < 1 || month > 12 || day < 1 || hour > 23 || min > 59 || sec > 59 {
		return 0, false
	}
	if days := daysInMonth[month]; day > days && !(month == 2 && day == 29 && isLeap(year)) {
		return 0, false
	}
	return packEventKey(year, month, day, hour, min, sec, micro), true
}

// parseInt64Bytes parses a full-field base-10 integer with optional
// sign. It is stricter than the fmt scanning it replaced (no leading
// whitespace, no trailing junk); marshaled logs were never affected.
func parseInt64Bytes(b []byte) (int64, bool) {
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
		if n > (1<<63)/10 { // would overflow uint64 below
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

// Record is one RAS event record, mirroring the fields of the Intrepid
// DB2 schema the paper enumerates (Table II).
type Record struct {
	// RecID is the sequence number of the record in the log.
	RecID int64
	// MsgID indicates the source of the message, e.g. "KERN_0802".
	MsgID string
	// Component is the reporting software component.
	Component Component
	// SubComponent is the functional area within the component.
	SubComponent string
	// ErrCode is the fine-grained event type, e.g.
	// "_bgp_err_cns_ras_storm_fatal". Events sharing an ErrCode are one
	// event type for the purposes of the methodology.
	ErrCode string
	// Severity is the reported severity level.
	Severity Severity
	// EventTime is the start time of the event.
	EventTime time.Time
	// Flags carries the control-system event listener, e.g.
	// "DefaultControlEventListener".
	Flags string
	// Location is the raw CMCS location code where the event occurred,
	// e.g. "R23-M0-N08-J09".
	Location string
	// Serial is the serial number of the implicated hardware.
	Serial string
	// Message is a brief prose description of the event condition.
	Message string
}

// Fatal reports whether the record carries FATAL severity.
func (r Record) Fatal() bool { return r.Severity == SevFatal }

const numFields = 11

// fieldSep separates fields in the line serialization. The message
// field is last so embedded separators would be unambiguous anyway, but
// we escape them for robustness.
const fieldSep = "|"

// appendEscaped appends s with the field escaping: backslash doubled,
// '|' as `\p`, newline as `\n`. The runs between escaped bytes are
// copied with one append each, so a field that needs no escaping (the
// common case) is one copy.
func appendEscaped(dst []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); i++ {
		var esc byte
		switch s[i] {
		case '\\':
			esc = '\\'
		case '|':
			esc = 'p'
		case '\n':
			esc = 'n'
		default:
			continue
		}
		dst = append(dst, s[start:i]...)
		dst = append(dst, '\\', esc)
		start = i + 1
	}
	return append(dst, s[start:]...)
}

// unescapeInto decodes the field escaping of b into dst (reused as
// scratch) and returns the decoded bytes. The escaping rules mirror
// appendEscaped, with the historical leniencies kept: an unknown escape
// drops the backslash, a trailing lone backslash survives.
func unescapeInto(dst []byte, b []byte) []byte {
	dst = dst[:0]
	for i := 0; i < len(b); i++ {
		if b[i] == '\\' && i+1 < len(b) {
			switch b[i+1] {
			case 'p':
				dst = append(dst, '|')
			case 'n':
				dst = append(dst, '\n')
			case '\\':
				dst = append(dst, '\\')
			default:
				dst = append(dst, b[i+1])
			}
			i++
			continue
		}
		dst = append(dst, b[i])
	}
	return dst
}

// intern deduplicates the retained field strings of a decode stream.
// RAS logs repeat MsgIDs, ERRCODEs, locations, flags and even messages
// millions of times; handing out one shared string per distinct value
// removes nearly every per-record allocation. The table is bounded so
// adversarial input degrades to plain allocation, never to unbounded
// memory.
type intern struct {
	m map[string]string
}

const (
	internMaxEntries  = 1 << 15
	internMaxValueLen = 512
)

func newIntern() *intern { return &intern{m: make(map[string]string, 256)} }

// str returns a string for b, shared across records when possible.
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

// fieldScratch is the per-decoder reusable state: the unescape buffer
// and the intern table.
type fieldScratch struct {
	buf []byte
	it  *intern
}

// str decodes field b (unescaping only when needed) into a retained
// string.
func (fs *fieldScratch) str(b []byte) string {
	if bytes.IndexByte(b, '\\') < 0 {
		return fs.it.str(b)
	}
	fs.buf = unescapeInto(fs.buf, b)
	return fs.it.str(fs.buf)
}

// AppendLine appends the record's one-line serialization to dst and
// returns the extended buffer. It allocates only when dst lacks
// capacity; the output is byte-identical to MarshalLine.
func (r *Record) AppendLine(dst []byte) []byte {
	dst = strconv.AppendInt(dst, r.RecID, 10)
	dst = append(dst, '|')
	dst = appendEscaped(dst, r.MsgID)
	dst = append(dst, '|')
	dst = append(dst, r.Component.String()...)
	dst = append(dst, '|')
	dst = appendEscaped(dst, r.SubComponent)
	dst = append(dst, '|')
	dst = appendEscaped(dst, r.ErrCode)
	dst = append(dst, '|')
	dst = append(dst, r.Severity.String()...)
	dst = append(dst, '|')
	dst = r.EventTime.UTC().AppendFormat(dst, EventTimeLayout)
	dst = append(dst, '|')
	dst = appendEscaped(dst, r.Flags)
	dst = append(dst, '|')
	dst = appendEscaped(dst, r.Location)
	dst = append(dst, '|')
	dst = appendEscaped(dst, r.Serial)
	dst = append(dst, '|')
	dst = appendEscaped(dst, r.Message)
	return dst
}

// MarshalLine renders the record as one line of the log file.
func (r Record) MarshalLine() string {
	return string(r.AppendLine(make([]byte, 0, 160)))
}

// ErrBadRecord reports an unparseable RAS log line.
var ErrBadRecord = errors.New("raslog: bad record line")

// UnmarshalFields parses one line of the log file into r, splitting
// the raw bytes in one pass: no field slice, no fmt scanning, no
// intermediate strings except the retained fields. The streaming
// Reader amortizes even those through its intern table.
func (r *Record) UnmarshalFields(line []byte) error {
	return r.unmarshalFields(line, &fieldScratch{})
}

func (r *Record) unmarshalFields(line []byte, fs *fieldScratch) error {
	var lf lineFields
	if err := lf.parseAll(line); err != nil {
		return err
	}
	lf.fill(r, fs)
	return nil
}

// headFields is the number of leading fields every line is split into
// and validated on: recid, msgid, component, subcomponent, errcode,
// severity and event time. The tail after them (flags, location,
// serial, message) is only counted until something reads it.
const headFields = 7

// lineFields is one validated log line: the typed fields parsed, the
// string fields still raw (escaped) bytes and the event time still a
// key. A decoder can look at the severity and the event time and
// account a record's re-marshaled size without splitting the tail,
// materializing its strings or building its time.Time.
type lineFields struct {
	f    [numFields][]byte // f[headFields:] is set once tailSplit
	tail []byte            // the bytes after the event time's separator
	n    int               // len(line)
	id   int64
	comp Component
	sev  Severity
	key  eventKey
	// tailSplit reports whether f holds the tail's four fields.
	tailSplit bool
	// canonical reports a line without a backslash whose timestamp took
	// the fixed-layout path: it re-marshals to itself but for the
	// recid's spelling. Only parseIn sets it.
	canonical bool
}

// stringFields indexes the free-text fields of the line layout, in
// column order.
var stringFields = [...]int{1, 3, 4, 7, 8, 9, 10}

// parseIn splits the head of line, checks the field count with one
// count of the tail's separators, and validates the recid, component,
// severity and event time, in that order, so the first error is the
// one a full decode reports. The tail stays unsplit. escapes reports
// whether the line may hold a backslash: a decoder that found none in
// the whole chunk passes false and the line skips its own search.
func (lf *lineFields) parseIn(line []byte, escapes bool) error {
	if err := lf.splitHead(line); err != nil {
		return err
	}
	if n := lf.fieldCount(); n != numFields {
		return fieldCountError(n)
	}
	fast, err := lf.validate()
	lf.canonical = fast && !(escapes && bytes.IndexByte(line, '\\') >= 0)
	return err
}

// parseAll is the full decoders' split: the head as parseIn splits it,
// then the tail in the same pass, since fill reads every field anyway.
func (lf *lineFields) parseAll(line []byte) error {
	if err := lf.splitHead(line); err != nil {
		return err
	}
	if !lf.splitTail() || bytes.IndexByte(lf.f[numFields-1], '|') >= 0 {
		return fieldCountError(lf.fieldCount())
	}
	_, err := lf.validate()
	return err
}

// splitHead sets the head fields and the tail of line, or reports the
// field count of a line with fewer than headFields separators.
func (lf *lineFields) splitHead(line []byte) error {
	lf.n, lf.tailSplit = len(line), false
	rest := line
	for i := 0; i < headFields; i++ {
		j := bytes.IndexByte(rest, '|')
		if j < 0 {
			return fieldCountError(i + 1)
		}
		lf.f[i], rest = rest[:j], rest[j+1:]
	}
	lf.tail = rest
	return nil
}

// fieldCount is the number of fields of a line whose head is split.
func (lf *lineFields) fieldCount() int {
	return headFields + 1 + bytes.Count(lf.tail, []byte(fieldSep))
}

// fieldCountError reports a line of n fields. It stays out of line so
// the error it builds is one escape site, not one per split.
//
//go:noinline
func fieldCountError(n int) error {
	return fmt.Errorf("%w: %d fields, want %d", ErrBadRecord, n, numFields)
}

// validate parses the recid, component, severity and event time of the
// split head, in that order. fast reports that the event time took the
// fixed-layout path.
func (lf *lineFields) validate() (fast bool, err error) {
	var ok bool
	if lf.id, ok = parseInt64Bytes(lf.f[0]); !ok {
		return false, fmt.Errorf("%w: recid %q", ErrBadRecord, lf.f[0])
	}
	if lf.comp, ok = parseComponentBytes(lf.f[2]); !ok {
		return false, fmt.Errorf("%w: raslog: unknown component %q", ErrBadRecord, lf.f[2])
	}
	if lf.sev, ok = parseSeverityBytes(lf.f[5]); !ok {
		return false, fmt.Errorf("%w: raslog: unknown severity %q", ErrBadRecord, lf.f[5])
	}
	if lf.key, ok = parseEventTimeBytes(lf.f[6]); ok {
		return true, nil
	}
	// The fast path is exact for all-digit timestamps; delegate
	// near-misses to time.Parse so acceptance matches it bit for bit.
	t, err := ParseEventTime(string(lf.f[6]))
	if err != nil {
		return false, fmt.Errorf("%w: event time %q", ErrBadRecord, lf.f[6])
	}
	lf.key = timeKey(t)
	return false, nil
}

// splitTail sets the tail's four fields at its first three separators,
// once, and reports whether it found three. After parseIn, which
// counted exactly three, it always does.
func (lf *lineFields) splitTail() bool {
	if lf.tailSplit {
		return true
	}
	rest := lf.tail
	for i := headFields; i < numFields-1; i++ {
		j := bytes.IndexByte(rest, '|')
		if j < 0 {
			return false
		}
		lf.f[i], rest = rest[:j], rest[j+1:]
	}
	lf.f[numFields-1] = rest
	lf.tailSplit = true
	return true
}

// fill materializes the parsed line into r.
func (lf *lineFields) fill(r *Record, fs *fieldScratch) {
	lf.splitTail()
	r.RecID = lf.id
	r.Component = lf.comp
	r.Severity = lf.sev
	r.EventTime = lf.key.time()
	r.MsgID = fs.str(lf.f[1])
	r.SubComponent = fs.str(lf.f[3])
	r.ErrCode = fs.str(lf.f[4])
	r.Flags = fs.str(lf.f[7])
	r.Location = fs.str(lf.f[8])
	r.Serial = fs.str(lf.f[9])
	r.Message = fs.str(lf.f[10])
}

// marshaledLen is MarshaledLen of the record the line decodes to,
// computed from the raw fields. A canonical line differs from its
// re-marshaling only in the recid's spelling (a sign or leading zeros):
// its component, severity and fast-path timestamp are their canonical
// spellings, and a field without a backslash decodes to itself and
// cannot hold '|' or a newline. Any other line sums its columns,
// unescaping a field with a backslash into scratch first.
func (lf *lineFields) marshaledLen(fs *fieldScratch) int {
	if lf.canonical {
		return lf.n - len(lf.f[0]) + intLen(lf.id)
	}
	lf.splitTail()
	n := fixedLen(lf.id, lf.comp, lf.sev, lf.key.year())
	for _, i := range stringFields {
		b := lf.f[i]
		if bytes.IndexByte(b, '\\') < 0 {
			n += len(b)
			continue
		}
		fs.buf = unescapeInto(fs.buf, b)
		n += escapedLen(fs.buf)
	}
	return n
}

// MarshaledLen returns len(r.MarshalLine()) without allocating or
// formatting: the digits of the RecID, the component and severity
// names, the timestamp, the ten separators and each string field's
// escaped length.
func (r *Record) MarshaledLen() int {
	return fixedLen(r.RecID, r.Component, r.Severity, r.EventTime.UTC().Year()) +
		escapedLen(r.MsgID) + escapedLen(r.SubComponent) + escapedLen(r.ErrCode) +
		escapedLen(r.Flags) + escapedLen(r.Location) + escapedLen(r.Serial) +
		escapedLen(r.Message)
}

// fixedLen is the marshaled length of a line's non-string columns plus
// its numFields-1 separators, given the event time's year.
func fixedLen(id int64, comp Component, sev Severity, year int) int {
	return intLen(id) + len(comp.String()) + len(sev.String()) + timeLen(year) + numFields - 1
}

// escapedLen is len(appendEscaped(nil, s)).
func escapedLen[S ~string | ~[]byte](s S) int {
	n := len(s)
	for i := 0; i < len(s); i++ {
		if c := s[i]; c == '\\' || c == '|' || c == '\n' {
			n++
		}
	}
	return n
}

// intLen is len(strconv.AppendInt(nil, v, 10)).
func intLen(v int64) int {
	n := 1
	u := uint64(v)
	if v < 0 {
		n++
		u = -u
	}
	for ; u >= 10; u /= 10 {
		n++
	}
	return n
}

// timeLen is the length in EventTimeLayout of a time in year y: 22
// bytes around the year, which time.Format pads to four digits and
// signs when negative.
func timeLen(y int) int {
	n := 22
	if y < 0 {
		n++
		y = -y
	}
	return n + max(4, intLen(int64(y)))
}

// UnmarshalLine parses one line of the log file.
func UnmarshalLine(line string) (Record, error) {
	var r Record
	if err := r.UnmarshalFields([]byte(line)); err != nil {
		return Record{}, err
	}
	return r, nil
}
