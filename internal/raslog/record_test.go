package raslog

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func sampleRecord() Record {
	return Record{
		RecID:        13718190,
		MsgID:        "CARD_0411",
		Component:    CompCard,
		SubComponent: "PALOMINO_S",
		ErrCode:      "DetectedClockCardErrors",
		Severity:     SevFatal,
		EventTime:    time.Date(2008, 4, 14, 15, 8, 12, 285324000, time.UTC),
		Flags:        "DefaultControlEventListener",
		Location:     "R04-M0-S",
		Serial:       "44V4173YL11K8021017",
		Message:      "An error(s) was detected by the Clock card : Error=Loss of reference input",
	}
}

func TestRecordRoundTrip(t *testing.T) {
	r := sampleRecord()
	line := r.MarshalLine()
	got, err := UnmarshalLine(line)
	if err != nil {
		t.Fatalf("UnmarshalLine: %v", err)
	}
	if got != r {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, r)
	}
}

func TestRecordRoundTripEscaping(t *testing.T) {
	r := sampleRecord()
	r.Message = `pipe | in message \ and backslash` + "\nnewline"
	r.SubComponent = "a|b"
	got, err := UnmarshalLine(r.MarshalLine())
	if err != nil {
		t.Fatalf("UnmarshalLine: %v", err)
	}
	if got != r {
		t.Errorf("escaped round trip mismatch:\n got %+v\nwant %+v", got, r)
	}
	if strings.Contains(r.MarshalLine(), "\n") {
		t.Error("marshaled line contains raw newline")
	}
}

func TestRecordRoundTripQuick(t *testing.T) {
	comps := []Component{CompApplication, CompKernel, CompMC, CompMMCS, CompBareMetal, CompCard, CompDiags}
	sevs := []Severity{SevInfo, SevWarning, SevError, SevFatal}
	f := func(seed int64, msg string) bool {
		rng := rand.New(rand.NewSource(seed))
		r := Record{
			RecID:        rng.Int63n(1 << 40),
			MsgID:        "KERN_0802",
			Component:    comps[rng.Intn(len(comps))],
			SubComponent: "SUB",
			ErrCode:      "code_x",
			Severity:     sevs[rng.Intn(len(sevs))],
			EventTime:    time.Unix(rng.Int63n(4e9), rng.Int63n(1e9)/1000*1000).UTC(),
			Flags:        "L",
			Location:     "R00-M0",
			Serial:       "SN",
			Message:      msg,
		}
		got, err := UnmarshalLine(r.MarshalLine())
		if err != nil {
			return false
		}
		// EventTime is serialized at microsecond precision.
		return got.Message == r.Message && got.RecID == r.RecID &&
			got.Severity == r.Severity && got.Component == r.Component &&
			got.EventTime.Equal(r.EventTime.Truncate(time.Microsecond))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalLineErrors(t *testing.T) {
	bad := []string{
		"",
		"1|2|3",
		"x|MSG|KERNEL|S|E|FATAL|2008-04-14-15.08.12.285324|F|L|SN|M",
		"1|MSG|NOSUCH|S|E|FATAL|2008-04-14-15.08.12.285324|F|L|SN|M",
		"1|MSG|KERNEL|S|E|NOSUCH|2008-04-14-15.08.12.285324|F|L|SN|M",
		"1|MSG|KERNEL|S|E|FATAL|yesterday|F|L|SN|M",
	}
	for _, line := range bad {
		if _, err := UnmarshalLine(line); err == nil {
			t.Errorf("UnmarshalLine(%q): want error", line)
		}
	}
}

func TestSeverityParse(t *testing.T) {
	for _, s := range []Severity{SevDebug, SevTrace, SevInfo, SevWarning, SevError, SevFatal} {
		got, ok := parseSeverityBytes([]byte(s.String()))
		if !ok || got != s {
			t.Errorf("parseSeverityBytes(%q) = %v, %v", s.String(), got, ok)
		}
	}
	if _, ok := parseSeverityBytes([]byte("fatal")); ok {
		t.Error("lowercase severity accepted")
	}
	if SevUnknown.String() != "UNKNOWN" {
		t.Error("SevUnknown.String()")
	}
}

func TestComponentParse(t *testing.T) {
	for c := CompUnknown + 1; int(c) < len(componentNames); c++ {
		got, ok := parseComponentBytes([]byte(c.String()))
		if !ok || got != c {
			t.Errorf("parseComponentBytes(%q) = %v, %v", c.String(), got, ok)
		}
	}
	if _, ok := parseComponentBytes([]byte("OTHER")); ok {
		t.Error("unknown component accepted")
	}
}

func TestEventTimeFormat(t *testing.T) {
	in := "2008-04-14-15.08.12.285324"
	tt, err := ParseEventTime(in)
	if err != nil {
		t.Fatal(err)
	}
	if got := FormatEventTime(tt); got != in {
		t.Errorf("FormatEventTime = %q, want %q", got, in)
	}
}

func TestFatal(t *testing.T) {
	r := sampleRecord()
	if !r.Fatal() {
		t.Error("sample record should be fatal")
	}
	r.Severity = SevWarning
	if r.Fatal() {
		t.Error("warning record reported fatal")
	}
}
