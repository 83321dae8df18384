package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/joblog"
	"repro/internal/linescan"
	"repro/internal/raslog"
	"repro/internal/simulate"
)

// campaignFiles simulates a campaign and writes its two logs to disk,
// returning the paths and the in-memory records for appending later.
func campaignFiles(t *testing.T, seed int64, days int) (string, string, []raslog.Record, []joblog.Job) {
	t.Helper()
	camp, err := simulate.Run(simulate.Config{Seed: seed, Days: days, NoisePerFatal: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	rasPath := filepath.Join(dir, "ras.log")
	jobPath := filepath.Join(dir, "job.log")
	writeRAS(t, rasPath, camp.RAS.All())
	writeJobs(t, jobPath, camp.Jobs.All())
	return rasPath, jobPath, camp.RAS.All(), camp.Jobs.All()
}

func writeRAS(t *testing.T, path string, recs []raslog.Record) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	w := raslog.NewWriter(f)
	for _, r := range recs {
		if err := w.Write(&r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func writeJobs(t *testing.T, path string, jobs []joblog.Job) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	w := joblog.NewWriter(f)
	for _, j := range jobs {
		if err := w.Write(j); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// startDaemon runs the daemon on a kernel-picked port and returns its
// base URL plus a stop function that shuts it down and requires a
// clean exit. The "listening on" stdout line is the startup handshake.
func startDaemon(t *testing.T, args ...string) (string, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	pr, pw := io.Pipe()
	var stderr bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), pw, &stderr)
		pw.Close()
	}()
	line, err := bufio.NewReader(pr).ReadString('\n')
	if err != nil {
		cancel()
		select {
		case runErr := <-done:
			t.Fatalf("daemon exited before announcing its address: %v (stderr: %s)", runErr, stderr.String())
		case <-time.After(5 * time.Second):
			t.Fatalf("daemon never announced its address: %v (stderr: %s)", err, stderr.String())
		}
	}
	addr := strings.TrimSpace(strings.TrimPrefix(line, "bgpd: listening on "))
	go io.Copy(io.Discard, pr) // drain the shutdown message
	stop := func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("daemon exit: %v (stderr: %s)", err, stderr.String())
			}
		case <-time.After(10 * time.Second):
			t.Error("daemon did not shut down within 10s")
		}
	}
	return "http://" + addr, stop
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, out); err != nil {
		t.Fatalf("GET %s: bad JSON: %v: %s", url, err, body)
	}
}

type epochSummary struct {
	Epoch        uint64 `json:"epoch"`
	RASRecords   int    `json:"ras_records"`
	FatalRecords int    `json:"fatal_records"`
	Jobs         int    `json:"jobs"`
}

// TestDaemonServesLoadedLogs boots the daemon over complete log files
// and checks that every endpoint family answers from the initial
// publication, then that shutdown is clean.
func TestDaemonServesLoadedLogs(t *testing.T) {
	rasPath, jobPath, recs, jobs := campaignFiles(t, 21, 8)
	base, stop := startDaemon(t, "-ras", rasPath, "-job", jobPath, "-publish-every", "1h")
	defer stop()

	var sum epochSummary
	getJSON(t, base+"/v1/epoch", &sum)
	if sum.RASRecords != len(recs) || sum.Jobs != len(jobs) {
		t.Fatalf("epoch summary counts = %d records, %d jobs; want %d, %d",
			sum.RASRecords, sum.Jobs, len(recs), len(jobs))
	}
	for _, path := range []string{
		"/healthz",
		"/v1/query/rates", "/v1/query/mtbf", "/v1/query/interruptions", "/v1/query/vulnerability",
		"/v1/report/t1", "/v1/report/t4", "/v1/report/obs1",
	} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
	}
	resp, err := http.Post(base+"/v1/quiesce", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/quiesce: status %d", resp.StatusCode)
	}
}

// TestDaemonIdleTickKeepsEpoch runs the publish ticker over loaded
// logs with nothing arriving: the ticks leave the epoch sequence where
// the startup publication put it, and POST /v1/publish still publishes.
func TestDaemonIdleTickKeepsEpoch(t *testing.T) {
	rasPath, jobPath, _, _ := campaignFiles(t, 21, 4)
	base, stop := startDaemon(t, "-ras", rasPath, "-job", jobPath, "-publish-every", "10ms")
	defer stop()

	var before, after epochSummary
	getJSON(t, base+"/v1/epoch", &before)
	time.Sleep(200 * time.Millisecond) // about 20 ticks
	getJSON(t, base+"/v1/epoch", &after)
	if after.Epoch != before.Epoch {
		t.Fatalf("idle ticks moved the epoch from %d to %d", before.Epoch, after.Epoch)
	}
	resp, err := http.Post(base+"/v1/publish", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	getJSON(t, base+"/v1/epoch", &after)
	if resp.StatusCode != http.StatusOK || after.Epoch != before.Epoch+1 {
		t.Fatalf("POST /v1/publish: status %d, epoch %d; want 200, %d", resp.StatusCode, after.Epoch, before.Epoch+1)
	}
}

// TestDaemonFollowsGrowingLogs starts the daemon tailing half-written
// logs, appends the rest while it runs, and waits for the appended
// records to show up in a published epoch.
func TestDaemonFollowsGrowingLogs(t *testing.T) {
	camp, err := simulate.Run(simulate.Config{Seed: 22, Days: 6, NoisePerFatal: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	recs, jobs := camp.RAS.All(), camp.Jobs.All()
	dir := t.TempDir()
	rasPath := filepath.Join(dir, "ras.log")
	jobPath := filepath.Join(dir, "job.log")
	writeRAS(t, rasPath, recs[:len(recs)/2])
	writeJobs(t, jobPath, jobs[:len(jobs)/2])

	base, stop := startDaemon(t,
		"-ras", rasPath, "-job", jobPath, "-follow",
		"-poll", "10ms", "-flush-every", "25ms", "-publish-every", "50ms")
	defer stop()

	// Append the second half while the daemon is tailing.
	writeRAS(t, rasPath, recs[len(recs)/2:])
	writeJobs(t, jobPath, jobs[len(jobs)/2:])

	deadline := time.Now().Add(15 * time.Second)
	for {
		var sum epochSummary
		resp, err := http.Get(base + "/v1/epoch")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(body, &sum); err != nil {
				t.Fatalf("bad epoch JSON: %v: %s", err, body)
			}
			if sum.RASRecords == len(recs) && sum.Jobs == len(jobs) {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("appended records never published: have %d/%d records, %d/%d jobs",
				sum.RASRecords, len(recs), sum.Jobs, len(jobs))
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestDaemonRestartResumesFromData shuts a durable daemon down (final
// seal) and boots a second one over the same -data directory: the
// recovered epoch must report the full ingested state.
func TestDaemonRestartResumesFromData(t *testing.T) {
	rasPath, jobPath, recs, jobs := campaignFiles(t, 23, 5)
	data := t.TempDir()

	base, stop := startDaemon(t, "-ras", rasPath, "-job", jobPath, "-data", data, "-publish-every", "1h")
	var sum epochSummary
	getJSON(t, base+"/v1/epoch", &sum)
	stop() // clean shutdown writes the final seal

	base2, stop2 := startDaemon(t, "-data", data, "-publish-every", "1h")
	defer stop2()
	var sum2 epochSummary
	getJSON(t, base2+"/v1/epoch", &sum2)
	if sum2.RASRecords != len(recs) || sum2.Jobs != len(jobs) || sum2.FatalRecords != sum.FatalRecords {
		t.Fatalf("restarted daemon epoch = %+v; first run saw %+v over %d records, %d jobs",
			sum2, sum, len(recs), len(jobs))
	}
}

// TestRunBadFlags pins the error paths a misconfigured start takes.
func TestRunBadFlags(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(context.Background(), []string{"-ras", filepath.Join(t.TempDir(), "missing.log")}, &out, &errb); err == nil {
		t.Error("missing -ras file: want error")
	}
	if err := run(context.Background(), []string{"-badflag"}, &out, &errb); err == nil {
		t.Error("unknown flag: want error")
	}
	if err := run(context.Background(), []string{"-addr", "256.0.0.1:bad"}, &out, &errb); err == nil {
		t.Error("unlistenable address: want error")
	}
}

// rasRecorder records what loadRAS ingests, in ingest order.
type rasRecorder struct{ got []raslog.Record }

func (r *rasRecorder) IngestRAS(recs []raslog.Record) error {
	r.got = append(r.got, recs...)
	return nil
}

// TestLoadRASSortsShuffledLog checks that a shuffled RAS log with a
// full (EventTime, RecID) tie ingests in the same order as the sorted
// file: (EventTime, RecID) order, tied records in file order.
func TestLoadRASSortsShuffledLog(t *testing.T) {
	t0 := time.Date(2009, 1, 5, 0, 0, 0, 0, time.UTC)
	rec := func(id int64, at time.Duration, loc string) raslog.Record {
		return raslog.Record{RecID: id, MsgID: "M", Component: raslog.CompKernel, SubComponent: "S",
			ErrCode: "e", Severity: raslog.SevFatal, EventTime: t0.Add(at), Flags: "F",
			Location: loc, Serial: "SN", Message: "m"}
	}
	sorted := []raslog.Record{
		rec(1, 0, "R00-M0"),
		rec(2, time.Second, "R00-M1"),
		rec(2, time.Second, "R01-M0"), // full tie with the record before it
		rec(3, time.Second, "R01-M1"),
		rec(4, time.Minute, "R02-M0"),
	}
	// Every record moves, but the tied pair keeps its file order.
	shuffled := []raslog.Record{sorted[4], sorted[1], sorted[3], sorted[0], sorted[2]}

	ingest := func(recs []raslog.Record) []raslog.Record {
		path := filepath.Join(t.TempDir(), "ras.log")
		writeRAS(t, path, recs)
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		var r rasRecorder
		if err := loadRAS(&r, f); err != nil {
			t.Fatal(err)
		}
		return r.got
	}
	want := ingest(sorted)
	if !slices.Equal(want, sorted) {
		t.Fatalf("sorted file ingested as %+v", want)
	}
	if got := ingest(shuffled); !slices.Equal(got, want) {
		t.Errorf("shuffled file ingested as\n%+v\nwant\n%+v", got, want)
	}
}

// TestRunLoadErrorNamesLineOnce pins the text of a start-up load
// failure: a malformed or over-long second line of either log is named
// once, as line 2.
func TestRunLoadErrorNamesLineOnce(t *testing.T) {
	camp, err := simulate.Run(simulate.Config{Seed: 1, Days: 2, NoisePerFatal: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	long := strings.Repeat("A", linescan.MaxLineBytes+1) + "\n"
	tooLong := fmt.Sprintf("line 2: bufio.Scanner: token too long (line exceeds %d bytes)", linescan.MaxLineBytes)
	for _, c := range []struct {
		name, flag, tail, want string
	}{
		{"ras bad line", "-ras", "1|M|KERNEL|s|c|LOUD|2008-04-14-15.08.12.285324|f|R00-M0|sn|msg\n", "line 2: raslog: bad record line"},
		{"ras long line", "-ras", long, tooLong},
		{"job bad line", "-job", "not|a|job\n", "line 2: joblog: bad job line"},
		{"job long line", "-job", long, tooLong},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log")
			if c.flag == "-ras" {
				writeRAS(t, path, camp.RAS.All()[:1])
			} else {
				writeJobs(t, path, camp.Jobs.All()[:1])
			}
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteString(c.tail); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			var out, errb bytes.Buffer
			err = run(context.Background(), []string{c.flag, path, "-addr", "127.0.0.1:0"}, &out, &errb)
			if err == nil {
				t.Fatal("bad log loaded without error")
			}
			prefix := "load " + path + ": " + c.want
			if !strings.HasPrefix(err.Error(), prefix) || strings.Count(err.Error(), "line 2") != 1 {
				t.Fatalf("error %q, want it to start %q and name line 2 once", err, prefix)
			}
		})
	}
}
