package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunDeterministic runs the advisor twice: the event-type triage
// lists are built from map iteration, so identical output needs their
// sort to be total.
func TestRunDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := run(&a); err != nil {
		t.Fatal(err)
	}
	if err := run(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(a.String(), "WATCH") {
		t.Fatalf("no WATCH list in the output:\n%s", &a)
	}
	if a.String() != b.String() {
		t.Fatalf("two runs differ:\n%s\nvs\n%s", &a, &b)
	}
}
