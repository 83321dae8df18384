package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// SchemaV1 identifies the benchmark-report JSON layout. Bump only with
// a new reader in the CI gate; old baselines must stay loadable.
const SchemaV1 = "repro/bgpbench/v1"

// Report is the machine-readable benchmark report the CI gate diffs.
type Report struct {
	Schema string `json:"schema"`
	// GeneratedWith pins the host: comparisons across differing hosts are
	// skipped (a 1-core CI runner and a 16-core laptop are not
	// comparable).
	GeneratedWith Host `json:"generated_with"`
	// Benchtime and Count echo the fixed -benchtime/-count the report was
	// collected with.
	Benchtime string `json:"benchtime"`
	Count     int    `json:"count"`
	// Benchmarks is sorted by (package, name) for stable diffs.
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Host is the metadata that must match for a ns/op comparison to be
// meaningful.
type Host struct {
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func currentHost() Host {
	return Host{
		Go:         runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// goMinor reduces "go1.24.3" to "go1.24": patch releases are
// performance-comparable, minor releases are not assumed to be.
func goMinor(v string) string {
	parts := strings.SplitN(v, ".", 3)
	if len(parts) < 2 {
		return v
	}
	return parts[0] + "." + parts[1]
}

// Comparable reports whether ns/op numbers from the two hosts can be
// gated against each other, with a reason when they cannot. Only the
// NumCPU check is ns/op's alone (see cmdCompare).
func (h Host) Comparable(o Host) (bool, string) {
	switch {
	case goMinor(h.Go) != goMinor(o.Go):
		return false, fmt.Sprintf("go version %s vs %s", h.Go, o.Go)
	case h.GOOS != o.GOOS:
		return false, fmt.Sprintf("GOOS %s vs %s", h.GOOS, o.GOOS)
	case h.GOARCH != o.GOARCH:
		return false, fmt.Sprintf("GOARCH %s vs %s", h.GOARCH, o.GOARCH)
	case h.NumCPU != o.NumCPU:
		return false, fmt.Sprintf("NumCPU %d vs %d", h.NumCPU, o.NumCPU)
	}
	return true, ""
}

// Benchmark is one benchmark's best-of-count result. NsPerOp takes the
// minimum across samples (least-noise estimate); allocations are
// deterministic and must agree across samples.
type Benchmark struct {
	Name        string  `json:"name"`
	Package     string  `json:"package"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	Samples     int     `json:"samples"`
}

func key(pkg, name string) string { return pkg + "." + name }

// sample is one parsed `go test -bench` output line.
type sample struct {
	pkg, name                  string
	nsPerOp, bytesOp, allocsOp float64
	haveMem                    bool
}

// gomaxprocsSuffix strips the -N worker-count suffix go test appends to
// benchmark names ("BenchmarkFoo-8" -> "BenchmarkFoo").
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// parseBenchOutput parses the text `go test -bench` writes for one or
// more packages, tracking the `pkg:` headers so each benchmark is
// attributed to its package.
func parseBenchOutput(r io.Reader) ([]sample, error) {
	var out []sample
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "pkg:"); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name iterations value unit [value unit ...]
		if len(fields) < 4 {
			continue
		}
		s := sample{pkg: pkg, name: gomaxprocsSuffix.ReplaceAllString(fields[0], "")}
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue // not a result line (e.g. "BenchmarkFoo\t--- FAIL")
		}
		seen := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q in line %q", fields[i], line)
			}
			switch fields[i+1] {
			case "ns/op":
				s.nsPerOp, seen = v, true
			case "B/op":
				s.bytesOp, s.haveMem = v, true
			case "allocs/op":
				s.allocsOp, s.haveMem = v, true
			}
		}
		if seen {
			out = append(out, s)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// reduce folds repeated samples (-count > 1) into one Benchmark per
// (package, name): min ns/op and B/op across samples, and an error if
// allocs/op wavers (variation means the count depends on scheduling or
// on when the collector ran; see the package comment).
func reduce(samples []sample) ([]Benchmark, error) {
	byKey := map[string]*Benchmark{}
	var order []string
	for _, s := range samples {
		k := key(s.pkg, s.name)
		b, ok := byKey[k]
		if !ok {
			byKey[k] = &Benchmark{
				Name: s.name, Package: s.pkg,
				NsPerOp: s.nsPerOp, BytesPerOp: s.bytesOp, AllocsPerOp: s.allocsOp,
				Samples: 1,
			}
			order = append(order, k)
			continue
		}
		if s.nsPerOp < b.NsPerOp {
			b.NsPerOp = s.nsPerOp
		}
		if s.bytesOp < b.BytesPerOp {
			b.BytesPerOp = s.bytesOp
		}
		if s.haveMem && s.allocsOp != b.AllocsPerOp {
			return nil, fmt.Errorf("%s: allocs/op wavers across samples (%v vs %v); if the count depends on when the collector runs, collect only between ops, off the clock", k, b.AllocsPerOp, s.allocsOp)
		}
		b.Samples++
	}
	sort.Strings(order)
	out := make([]Benchmark, 0, len(order))
	for _, k := range order {
		out = append(out, *byKey[k])
	}
	return out, nil
}

func writeReport(w io.Writer, rep *Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func readReport(r io.Reader) (*Report, error) {
	var rep Report
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, err
	}
	if rep.Schema != SchemaV1 {
		return nil, fmt.Errorf("unsupported schema %q (want %s)", rep.Schema, SchemaV1)
	}
	return &rep, nil
}

// Regression is one gate violation.
type Regression struct {
	Key    string
	Reason string
}

// compareReports gates current against baseline: a benchmark regresses
// when ns/op (only if gateNs) or B/op grows beyond tolerance (fraction,
// e.g. 0.25) or allocs/op grows at all. Benchmarks present only in the
// baseline are reported as missing (a silently dropped benchmark must
// not pass the gate); benchmarks new in current are ignored until the
// baseline is regenerated.
func compareReports(baseline, current *Report, tolerance float64, gateNs bool) []Regression {
	cur := map[string]Benchmark{}
	for _, b := range current.Benchmarks {
		cur[key(b.Package, b.Name)] = b
	}
	var regs []Regression
	for _, base := range baseline.Benchmarks {
		k := key(base.Package, base.Name)
		c, ok := cur[k]
		if !ok {
			regs = append(regs, Regression{k, "missing from current run"})
			continue
		}
		if gateNs && base.NsPerOp > 0 && c.NsPerOp > base.NsPerOp*(1+tolerance) {
			regs = append(regs, Regression{k, fmt.Sprintf(
				"ns/op %.1f vs baseline %.1f (+%.1f%%, tolerance %.0f%%)",
				c.NsPerOp, base.NsPerOp, 100*(c.NsPerOp/base.NsPerOp-1), 100*tolerance)})
		}
		if base.BytesPerOp > 0 && c.BytesPerOp > base.BytesPerOp*(1+tolerance) {
			regs = append(regs, Regression{k, fmt.Sprintf(
				"B/op %.0f vs baseline %.0f (+%.1f%%, tolerance %.0f%%)",
				c.BytesPerOp, base.BytesPerOp, 100*(c.BytesPerOp/base.BytesPerOp-1), 100*tolerance)})
		}
		if c.AllocsPerOp > base.AllocsPerOp {
			regs = append(regs, Regression{k, fmt.Sprintf(
				"allocs/op %v vs baseline %v (any growth fails)",
				c.AllocsPerOp, base.AllocsPerOp)})
		}
	}
	return regs
}
