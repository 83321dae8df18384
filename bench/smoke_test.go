package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSmokeAllWorkloads runs every workload end to end on an eight-day
// campaign for one second, traced: the real programs must agree with
// the in-process reference, and every metric must be reported.
func TestSmokeAllWorkloads(t *testing.T) {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	bin := t.TempDir()
	if err := buildPrograms(ctx, root, bin); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := config{w: w, seed: 2, seconds: 1, trace: true, days: 8, work: t.TempDir(), bin: bin,
				traceOut: filepath.Join(t.TempDir(), "trace.json")}
			o, err := runWorkload(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if o.ops.failed != 0 || o.ops.attempted == 0 {
				t.Fatalf("%d of %d operations failed: %v", o.ops.failed, o.ops.attempted, o.ops.errs)
			}
			for _, d := range append(endToEnd, demoted...) {
				if m, ok := o.e2e[d.Name]; !ok || m.Value <= 0 || m.Unit != d.Unit {
					t.Errorf("end-to-end %s = %+v", d.Name, m)
				}
			}
			for _, d := range perLayer() {
				if m, ok := o.perLayer[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("per-layer %s = %+v", d.Name, m)
				}
			}
			if len(o.perLayer) != len(perLayer()) {
				t.Errorf("%d per-layer metrics, want %d", len(o.perLayer), len(perLayer()))
			}
			self := o.unattrd
			for _, r := range o.ledger {
				self += r.Self
			}
			if math.Abs(self-o.total) > 1e-9 {
				t.Errorf("ledger rows + unattributed = %v s, traced total %v s", self, o.total)
			}

			b, err := os.ReadFile(cfg.traceOut)
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(b, &tf); err != nil {
				t.Fatal(err)
			}
			if len(tf.Spans) == 0 || tf.Spans[0].Run != tf.Run || tf.Run == "" {
				t.Errorf("trace file: run %q, %d spans", tf.Run, len(tf.Spans))
			}
			for _, s := range tf.Spans {
				if s.End < s.Start || s.Busy < 0 || s.Parent >= s.ID {
					t.Errorf("bad span %+v", s)
				}
			}
		})
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics
// the benchmark prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []bounded   `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if spec.EndToEnd[i].metricDef != d || spec.EndToEnd[i].Bound <= 0 || spec.EndToEnd[i].Bound > 0.25 {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, benchmark %+v", i, spec.EndToEnd[i], d)
		}
	}
	want := perLayer()
	if len(spec.PerLayer) != len(want) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(spec.PerLayer), len(want))
	}
	for i, d := range want {
		if spec.PerLayer[i] != d {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, benchmark %+v", i, spec.PerLayer[i], d)
		}
	}
}
