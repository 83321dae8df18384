package main

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

var t0 = time.Date(2008, 1, 1, 0, 0, 0, 0, time.UTC)

func at(msec float64) time.Time { return t0.Add(time.Duration(msec * float64(time.Millisecond))) }

func TestVisibilityLags(t *testing.T) {
	// Batches reach 100, 200, 300 and 400 records. Publications show 0
	// records until 250 ms, 200 from there, 400 from 520 ms; the last
	// batch is never shown.
	sends := []sendMark{{at(0), 100}, {at(100), 200}, {at(300), 300}, {at(400), 400}, {at(600), 500}}
	seen := []seenMark{
		{at(50), 0}, {at(150), 0}, {at(250), 200}, {at(350), 200},
		{at(450), 200}, {at(550), 400}, {at(650), 400},
	}
	lags, missing := visibilityLags(sends, seen)
	if want := []float64{250, 150, 250, 150}; !reflect.DeepEqual(lags, want) || missing != 1 {
		t.Errorf("lags = %v, missing %d; want %v, missing 1", lags, missing, want)
	}
	// An answer that arrived before the batch was sent never covers it,
	// even if its count does (records of an earlier life).
	lags, missing = visibilityLags([]sendMark{{at(100), 10}}, []seenMark{{at(90), 10}, {at(140), 10}})
	if !reflect.DeepEqual(lags, []float64{40}) || missing != 0 {
		t.Errorf("lags = %v, missing %d; want [40], 0", lags, missing)
	}
}

func TestDueTimeAccounting(t *testing.T) {
	// Requests due every 10 ms; the second stalls the connection for
	// 35 ms, so the next two are sent late and their latency counts the
	// wait from their due time.
	shots := []shot{
		{due: at(0), sent: at(0), done: at(1), ok: true},
		{due: at(10), sent: at(10), done: at(45), ok: true},
		{due: at(20), sent: at(45), done: at(46), ok: true},
		{due: at(30), sent: at(46), done: at(47), ok: true},
		{due: at(40), sent: at(47), done: at(48), ok: true},
		{due: at(50), sent: at(50), done: at(51), ok: false},
	}
	var lat, late []float64
	for _, s := range shots {
		lat = append(lat, ms(s.latency()))
		late = append(late, ms(s.late()))
	}
	if want := []float64{1, 35, 26, 17, 8, 1}; !reflect.DeepEqual(lat, want) {
		t.Errorf("latencies = %v, want %v", lat, want)
	}
	if want := []float64{0, 0, 25, 16, 7, 0}; !reflect.DeepEqual(late, want) {
		t.Errorf("lateness = %v, want %v", late, want)
	}
	// Six samples support no tail; the failed request counts as missing
	// any limit, which moves the median up.
	s := summarize(shots)
	if s.N != 6 || s.Failed != 1 || s.TailPct != 0 || s.P50 != 17 {
		t.Errorf("summary = %+v", s)
	}
}

func TestBacklogGrows(t *testing.T) {
	steady := make([]shot, 50)
	growing := make([]shot, 50)
	for i := range steady {
		due := at(float64(i))
		steady[i] = shot{due: due, sent: due.Add(time.Millisecond), ok: true}
		growing[i] = shot{due: due, sent: due.Add(time.Duration(i) * time.Millisecond), ok: true}
	}
	if backlogGrows(steady) {
		t.Error("a generator on schedule was judged to fall behind")
	}
	if !backlogGrows(growing) {
		t.Error("a generator 49 ms behind at the end was judged on schedule")
	}
}

func TestMaxQPS(t *testing.T) {
	ok := latencies{N: 1000, TailPct: 99, Tail: 4}
	slow := latencies{N: 1000, TailPct: 99, Tail: 12}
	failed := latencies{N: 1000, TailPct: 99, Tail: 4, Failed: 1}
	steps := []sweepRate{{QPS: 1000, Lat: ok}, {QPS: 3000, Lat: ok}, {QPS: 9000, Lat: slow}}
	if got := maxQPS(steps); got != 3000 {
		t.Errorf("maxQPS = %v, want 3000", got)
	}
	steps[1].Grows = true
	if got := maxQPS(steps); got != 1000 {
		t.Errorf("maxQPS with a growing backlog at 3000 = %v, want 1000", got)
	}
	steps[0].Lat = failed
	if got := maxQPS(steps); got != 0 {
		t.Errorf("maxQPS with a failed request = %v, want 0", got)
	}
}

func TestOpenLoopKeepsSchedule(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 3 {
			time.Sleep(60 * time.Millisecond) // one stall
		}
		if r.URL.Path == "/v1/epoch" {
			w.Write([]byte(`{"ras_records": 7}`))
		}
	}))
	defer srv.Close()
	c := newClient()
	defer c.CloseIdleConnections()
	var epochs []int
	start := time.Now()
	shots, o := openLoop(c, srv.URL, schedule{
		mix: []string{"/v1/epoch", "/x"}, start: start, end: start.Add(100 * time.Millisecond),
		interval: 10 * time.Millisecond,
	}, nil, func(records int, _ time.Time) { epochs = append(epochs, records) })
	if len(shots) != 10 || o.attempted != 10 || o.failed != 0 || len(epochs) != 5 || epochs[0] != 7 {
		t.Fatalf("%d shots, ops %+v, epochs %v", len(shots), o, epochs)
	}
	// The stall makes the requests due behind it late, and they are still
	// all sent: none is dropped or rescheduled.
	if late := shots[3].late(); late < 20*time.Millisecond {
		t.Errorf("request due after the stall was %v late", late)
	}
	for i, s := range shots {
		if want := start.Add(time.Duration(i) * 10 * time.Millisecond); !s.due.Equal(want) {
			t.Errorf("shot %d due %v, want %v", i, s.due.Sub(start), want.Sub(start))
		}
	}
}
