package raslog

// The pre-streaming codec, kept verbatim as the oracle for the
// byte-compatibility tests in codec_test.go: AppendLine must emit the
// same bytes legacyMarshalLine did, and UnmarshalFields must accept the
// same well-formed lines with the same decoded record. (The new parser
// is deliberately stricter on the RecID field — fmt.Sscanf tolerated
// trailing junk like "1x" — which the fuzz contract permits: rejecting
// more is always allowed, accepting differently is not.)

import (
	"fmt"
	"strings"
)

// legacyParseSeverity and legacyParseComponent are the string parsers
// the legacy decoder called; their error text is the text the decoder
// wraps, which UnmarshalFields must match.
func legacyParseSeverity(s string) (Severity, error) {
	if sev, ok := parseSeverityBytes([]byte(s)); ok {
		return sev, nil
	}
	return SevUnknown, fmt.Errorf("raslog: unknown severity %q", s)
}

func legacyParseComponent(s string) (Component, error) {
	if c, ok := parseComponentBytes([]byte(s)); ok {
		return c, nil
	}
	return CompUnknown, fmt.Errorf("raslog: unknown component %q", s)
}

func legacyEscape(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, fieldSep, `\p`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return s
}

func legacyUnescape(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			switch s[i+1] {
			case 'p':
				b.WriteString(fieldSep)
			case 'n':
				b.WriteString("\n")
			case '\\':
				b.WriteString(`\`)
			default:
				b.WriteByte(s[i+1])
			}
			i++
			continue
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

func legacyMarshalLine(r Record) string {
	fields := []string{
		fmt.Sprintf("%d", r.RecID),
		legacyEscape(r.MsgID),
		r.Component.String(),
		legacyEscape(r.SubComponent),
		legacyEscape(r.ErrCode),
		r.Severity.String(),
		r.EventTime.UTC().Format(EventTimeLayout),
		legacyEscape(r.Flags),
		legacyEscape(r.Location),
		legacyEscape(r.Serial),
		legacyEscape(r.Message),
	}
	return strings.Join(fields, fieldSep)
}

func legacyUnmarshalLine(line string) (Record, error) {
	parts := strings.Split(line, fieldSep)
	if len(parts) != numFields {
		return Record{}, fmt.Errorf("%w: %d fields, want %d", ErrBadRecord, len(parts), numFields)
	}
	var r Record
	if _, err := fmt.Sscanf(parts[0], "%d", &r.RecID); err != nil {
		return Record{}, fmt.Errorf("%w: recid %q", ErrBadRecord, parts[0])
	}
	r.MsgID = legacyUnescape(parts[1])
	comp, err := legacyParseComponent(parts[2])
	if err != nil {
		return Record{}, fmt.Errorf("%w: %v", ErrBadRecord, err)
	}
	r.Component = comp
	r.SubComponent = legacyUnescape(parts[3])
	r.ErrCode = legacyUnescape(parts[4])
	sev, err := legacyParseSeverity(parts[5])
	if err != nil {
		return Record{}, fmt.Errorf("%w: %v", ErrBadRecord, err)
	}
	r.Severity = sev
	t, err := ParseEventTime(parts[6])
	if err != nil {
		return Record{}, fmt.Errorf("%w: event time %q", ErrBadRecord, parts[6])
	}
	r.EventTime = t
	r.Flags = legacyUnescape(parts[7])
	r.Location = legacyUnescape(parts[8])
	r.Serial = legacyUnescape(parts[9])
	r.Message = legacyUnescape(parts[10])
	return r, nil
}
