package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/joblog"
	"repro/internal/raslog"
	"repro/internal/serve"
)

// The daemon's settings, shared by the real bgpd and the traced
// in-process engine: publish four times a second, seal every 4096
// filtered rows, and keep at most 256 KiB of sealed columns resident so
// the run spills.
const (
	publishEvery = 250 * time.Millisecond
	sealRows     = 4096
	memBudget    = 256 << 10
)

const (
	batchRecords = 512                   // RAS records per ingest POST
	liveInterval = 10 * time.Millisecond // 100 queries/s beside ingest
	latencyLimit = 10 * time.Millisecond // the sweep's p99 limit
	sweepStep    = time.Second           // how long each sweep rate runs
)

// sweepRates are the read-only rates (queries/s) the quiesced daemon is
// driven at over two connections.
var sweepRates = []float64{1000, 3000, 9000}

// checkedReports are the fragments a quiesced daemon must serve
// byte-identical to the batch report.
var checkedReports = []string{"t1", "obs1", "t6", "pipeline"}

func bgpdArgs(dataDir string) []string {
	return []string{"-addr", "127.0.0.1:0", "-data", dataDir,
		"-publish-every", publishEvery.String(), "-seal-records", fmt.Sprint(sealRows),
		"-mem-budget", fmt.Sprint(memBudget)}
}

// pair is one RAS batch and the job batch whose end times it passes,
// pre-marshaled so the ingest loop measures the daemon, not the encoder.
type pair struct {
	ras, job   []byte
	rasN, jobN int
}

// feed is daemon-live's input: the logs cut into ingest batches, and
// the query mix.
type feed struct {
	pairs   []pair
	boot    int // pairs ingested before the bootstrap publish
	records int // RAS records over all pairs
	mix     []string
	// from and to bound the mix's /v1/scan window: the first week.
	from, to time.Time
}

// prepareFeed cuts the logs into batches in the engine's ingest order,
// (EventTime, RecID) for RAS records and (EndTime, ID) for jobs.
func prepareFeed(in inputs) (feed, error) {
	var f feed
	rf, err := os.Open(in.rasPath)
	if err != nil {
		return f, err
	}
	defer rf.Close()
	recs, err := raslog.ReadAllParallel(rf, 0)
	if err != nil {
		return f, err
	}
	jf, err := os.Open(in.jobPath)
	if err != nil {
		return f, err
	}
	defer jf.Close()
	jobList, err := joblog.ReadAllParallel(jf, 0)
	if err != nil {
		return f, err
	}
	all, jobs := raslog.NewStore(recs).All(), joblog.NewLog(jobList).All()
	if len(all) == 0 || len(jobs) == 0 {
		return f, errors.New("daemon feed: empty log")
	}

	j := 0
	for i := 0; i < len(all); i += batchRecords {
		b := all[i:min(i+batchRecords, len(all))]
		var p pair
		for k := range b {
			p.ras = append(b[k].AppendLine(p.ras), '\n')
		}
		p.rasN = len(b)
		last, final := b[len(b)-1].EventTime, i+batchRecords >= len(all)
		for ; j < len(jobs) && (final || !jobs[j].EndTime.After(last)); j++ {
			p.job = append(jobs[j].AppendLine(p.job), '\n')
			p.jobN++
		}
		f.pairs = append(f.pairs, p)
	}
	// A publication over no jobs fails, so the bootstrap runs until the
	// first job is in.
	for jobsIn := 0; jobsIn == 0 && f.boot < len(f.pairs); f.boot++ {
		jobsIn += f.pairs[f.boot].jobN
	}
	if f.boot == len(f.pairs) {
		return f, fmt.Errorf("daemon feed: %d RAS records leave no batch for the live phase", len(all))
	}
	f.records = len(all)
	f.from = all[0].EventTime.UTC().Truncate(24 * time.Hour)
	f.to = f.from.Add(7 * 24 * time.Hour)
	f.mix = []string{
		"/v1/epoch", "/v1/query/rates", "/v1/query/mtbf",
		"/v1/epoch", "/v1/query/interruptions", "/v1/query/vulnerability",
		"/v1/report/t1", "/v1/report/obs1", "/v1/report/t6",
		"/v1/scan?from=" + f.from.Format(time.RFC3339) + "&to=" + f.to.Format(time.RFC3339),
	}
	return f, nil
}

// bgpd is a running daemon under test.
type bgpd struct {
	cmd     *exec.Cmd
	base    string
	drained chan struct{} // closed once stdout is at EOF
	stderr  bytes.Buffer
}

// startBgpd execs bgpd and waits for its listening line.
func startBgpd(ctx context.Context, prog string, env []string, dataDir string) (*bgpd, error) {
	d := &bgpd{drained: make(chan struct{})}
	d.cmd = exec.Command(prog, bgpdArgs(dataDir)...)
	d.cmd.Env = append(os.Environ(), env...)
	d.cmd.Stderr = &d.stderr
	out, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	addr := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(out)
		for listening := false; sc.Scan(); {
			if a, ok := strings.CutPrefix(sc.Text(), "bgpd: listening on "); ok && !listening {
				listening = true
				addr <- a
			}
		}
	}()
	timeout := time.NewTimer(30 * time.Second)
	defer timeout.Stop()
	select {
	case a := <-addr:
		d.base = "http://" + a
		return d, nil
	case <-d.drained:
		err = errors.New("exited before listening")
	case <-timeout.C:
		err = errors.New("no listening line within 30s")
	case <-ctx.Done():
		err = ctx.Err()
	}
	d.stop()
	return nil, fmt.Errorf("bgpd: %v: %s", err, strings.TrimSpace(d.stderr.String()))
}

// stop shuts the daemon down as an operator would (SIGTERM, which seals
// the tail), killing it if that takes over ten seconds, and waits for
// it to exit.
func (d *bgpd) stop() (*os.ProcessState, error) {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	kill := time.AfterFunc(10*time.Second, func() { _ = d.cmd.Process.Kill() })
	defer kill.Stop()
	<-d.drained
	err := d.cmd.Wait()
	return d.cmd.ProcessState, err
}

// newClient returns a client that holds one connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// call makes one request and reads the whole response.
func call(c *http.Client, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// expect makes one request that must answer 200 and counts it.
func expect(o *ops, c *http.Client, method, url string, body []byte) {
	status, b, err := call(c, method, url, body)
	o.add(err == nil && status == http.StatusOK, "%s %s: status %d, err %v: %.200s", method, url, status, err, b)
}

// shot is one request of an open-loop client: when it was due, sent and
// answered.
type shot struct {
	due, sent, done time.Time
	ok              bool
}

// latency is counted from the due time, so a stall also charges the
// requests it delayed.
func (s shot) latency() time.Duration { return s.done.Sub(s.due) }

// late is how far behind its schedule the generator sent the request.
func (s shot) late() time.Duration { return s.sent.Sub(s.due) }

// schedule is an open-loop client's plan: request i is mix[(first+i) %
// len(mix)], due at start + i*interval, and none is due at or after end
// (zero end: until stopped).
type schedule struct {
	mix        []string
	first      int
	start, end time.Time
	interval   time.Duration
}

// openLoop sends the schedule over one connection, never slowing when
// the daemon does, until stop is closed or the schedule ends. Each
// /v1/epoch answer is passed to onEpoch with its arrival time.
func openLoop(c *http.Client, base string, s schedule, stop <-chan struct{}, onEpoch func(records int, at time.Time)) ([]shot, ops) {
	var shots []shot
	var o ops
	for i := 0; ; i++ {
		due := s.start.Add(time.Duration(i) * s.interval)
		if !s.end.IsZero() && !due.Before(s.end) {
			return shots, o
		}
		time.Sleep(time.Until(due))
		select {
		case <-stop:
			return shots, o
		default:
		}
		path := s.mix[(s.first+i)%len(s.mix)]
		sh := shot{due: due, sent: time.Now()}
		status, body, err := call(c, http.MethodGet, base+path, nil)
		sh.done = time.Now()
		sh.ok = err == nil && status == http.StatusOK
		o.add(sh.ok, "GET %s: status %d, err %v: %.200s", path, status, err, body)
		if sh.ok && onEpoch != nil && path == "/v1/epoch" {
			var ep serve.EpochSummary
			if err := json.Unmarshal(body, &ep); err == nil {
				onEpoch(ep.RASRecords, sh.done)
			}
		}
		shots = append(shots, sh)
	}
}

// latencies summarizes shots in milliseconds: median, the highest
// percentile with ten samples beyond it, and the generator's lateness at
// that percentile. A failed request counts as missing any limit.
type latencies struct {
	N        int     `json:"n"`
	P50      float64 `json:"p50_ms"`
	TailPct  float64 `json:"tail_pct"`
	Tail     float64 `json:"tail_ms"`
	LateTail float64 `json:"late_tail_ms"`
	Failed   int     `json:"failed"`
}

func summarize(shots []shot) latencies {
	l := latencies{N: len(shots)}
	lat := make([]float64, 0, len(shots))
	late := make([]float64, 0, len(shots))
	for _, s := range shots {
		v := ms(s.latency())
		if !s.ok {
			l.Failed++
			v = ms(time.Hour)
		}
		lat = append(lat, v)
		late = append(late, ms(s.late()))
	}
	l.P50 = percentile(lat, 0.5)
	if p, ok := tailPercentile(len(shots)); ok {
		l.TailPct = 100 * p
		l.Tail = percentile(lat, p)
		l.LateTail = percentile(late, p)
	}
	return l
}

// backlogGrows reports whether the generator fell further behind its
// schedule over a run: the median lateness of the last fifth of the
// requests exceeds the first fifth's by more than the latency limit.
func backlogGrows(shots []shot) bool {
	s := append([]shot(nil), shots...)
	sort.Slice(s, func(i, j int) bool { return s[i].due.Before(s[j].due) })
	n := len(s) / 5
	if n == 0 {
		return false
	}
	lateness := func(part []shot) float64 {
		xs := make([]float64, len(part))
		for i, sh := range part {
			xs[i] = ms(sh.late())
		}
		return median(xs)
	}
	return lateness(s[len(s)-n:])-lateness(s[:n]) > ms(latencyLimit)
}

// sendMark is when an ingest batch was sent and how many RAS records
// the daemon holds once it is in.
type sendMark struct {
	at  time.Time
	cum int
}

// seenMark is a /v1/epoch answer: when it arrived and how many RAS
// records its epoch covers.
type seenMark struct {
	at      time.Time
	records int
}

// visibilityLags returns, for every batch, the time from its send to the
// first epoch answer that covers it, in milliseconds, and how many
// batches no answer covered. Both lists are in time order, and coverage
// only grows.
func visibilityLags(sends []sendMark, seen []seenMark) (lags []float64, missing int) {
	j := 0
	for _, s := range sends {
		for j < len(seen) && (seen[j].records < s.cum || seen[j].at.Before(s.at)) {
			j++
		}
		if j == len(seen) {
			missing++
			continue
		}
		lags = append(lags, ms(seen[j].at.Sub(s.at)))
	}
	return lags, missing
}

// cycle is one bgpd life: start, bootstrap, live phase, quiesce, check.
type cycle struct {
	ready   time.Duration // exec to bootstrap publish answered
	ingest  time.Duration // first live send to last ingest answer
	records int           // RAS records sent in the live phase
	lags    []float64     // visibility lag per batch, ms
	live    []shot
	sweep   []sweepRate // set on the cycle that ran the sweep
	cpu     time.Duration
	rssKB   int64
	ops     ops
}

// runCycle drives one fresh bgpd through daemon-live. The live phase has
// two clients: ingest sends the batches back to back on one connection
// (closed loop) while queries run the mix at 100/s on another (open
// loop). Once an epoch covers every record the daemon is quiesced, its
// reports are checked against ref, and, if asked, the read-only sweep
// runs before the daemon is stopped.
func runCycle(ctx context.Context, prog string, env []string, dataDir string, f feed, ref analysis, withSweep bool) (cycle, error) {
	var c cycle
	t0 := time.Now()
	d, err := startBgpd(ctx, prog, env, dataDir)
	if err != nil {
		return c, err
	}
	stopped := false
	defer func() {
		if !stopped {
			_, _ = d.stop()
		}
	}()

	ingest, queries := newClient(), newClient()
	defer ingest.CloseIdleConnections()
	defer queries.CloseIdleConnections()
	post := func(p pair) {
		expect(&c.ops, ingest, http.MethodPost, d.base+"/v1/ingest/ras", p.ras)
		if p.jobN > 0 {
			expect(&c.ops, ingest, http.MethodPost, d.base+"/v1/ingest/job", p.job)
		}
	}
	cum := 0
	for _, p := range f.pairs[:f.boot] {
		post(p)
		cum += p.rasN
	}
	expect(&c.ops, ingest, http.MethodPost, d.base+"/v1/publish", nil)
	c.ready = time.Since(t0)
	if c.ops.failed > 0 {
		return c, fmt.Errorf("bgpd bootstrap: %v", c.ops.errs)
	}

	var (
		seen    []seenMark
		covered = make(chan struct{})
		once    sync.Once
		stop    = make(chan struct{})
		qops    ops
		wg      sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.live, qops = openLoop(queries, d.base, schedule{mix: f.mix, start: time.Now(), interval: liveInterval}, stop,
			func(records int, at time.Time) {
				seen = append(seen, seenMark{at: at, records: records})
				if records >= f.records {
					once.Do(func() { close(covered) })
				}
			})
	}()
	var sends []sendMark
	start := time.Now()
	for _, p := range f.pairs[f.boot:] {
		cum += p.rasN
		sends = append(sends, sendMark{at: time.Now(), cum: cum})
		post(p)
		c.records += p.rasN
	}
	c.ingest = time.Since(start)
	wait := time.NewTimer(10 * time.Second)
	select {
	case <-covered:
	case <-wait.C:
	case <-ctx.Done():
	}
	wait.Stop()
	close(stop)
	wg.Wait()
	c.ops.merge(qops)
	var missing int
	c.lags, missing = visibilityLags(sends, seen)
	c.ops.add(missing == 0, "%d batches never became visible", missing)
	if err := ctx.Err(); err != nil {
		return c, err
	}

	expect(&c.ops, ingest, http.MethodPost, d.base+"/v1/quiesce", nil)
	for _, name := range checkedReports {
		status, body, err := call(queries, http.MethodGet, d.base+"/v1/report/"+name, nil)
		c.ops.add(err == nil && status == http.StatusOK && bytes.Equal(body, ref.artifacts[name]),
			"report %s after quiesce: status %d, err %v, differs from the batch report", name, status, err)
	}
	if withSweep {
		var sops ops
		c.sweep, sops = sweep(d.base, f.mix)
		c.ops.merge(sops)
	}
	stopped = true
	ps, err := d.stop()
	c.ops.add(err == nil, "bgpd exit: %v: %s", err, strings.TrimSpace(d.stderr.String()))
	c.cpu, c.rssKB = usage(ps)
	return c, nil
}

// sweepRate is one read-only rate of the sweep.
type sweepRate struct {
	QPS   float64   `json:"qps"`
	Lat   latencies `json:"latency"`
	Grows bool      `json:"backlog_grows"`
}

// sweep drives the quiesced daemon at each sweep rate for sweepStep over
// two connections, each an open-loop client at half the rate.
func sweep(base string, mix []string) ([]sweepRate, ops) {
	var steps []sweepRate
	var o ops
	for _, rate := range sweepRates {
		interval := time.Duration(2 * float64(time.Second) / rate)
		start := time.Now().Add(10 * time.Millisecond)
		var shots [2][]shot
		var sops [2]ops
		var wg sync.WaitGroup
		for k := range shots {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				c := newClient()
				defer c.CloseIdleConnections()
				shots[k], sops[k] = openLoop(c, base, schedule{
					mix:      mix,
					first:    k * len(mix) / 2,
					start:    start.Add(time.Duration(k) * interval / 2),
					end:      start.Add(sweepStep),
					interval: interval,
				}, nil, nil)
			}(k)
		}
		wg.Wait()
		pooled := append(shots[0], shots[1]...)
		o.merge(sops[0])
		o.merge(sops[1])
		steps = append(steps, sweepRate{QPS: rate, Lat: summarize(pooled), Grows: backlogGrows(pooled)})
	}
	return steps, o
}

// maxQPS is the highest sweep rate whose pooled p99 (or a higher
// percentile) stays within the latency limit with no failed request and
// no growing backlog; 0 if none does.
func maxQPS(steps []sweepRate) float64 {
	best := 0.0
	for _, s := range steps {
		if s.Lat.TailPct >= 99 && s.Lat.Tail <= ms(latencyLimit) && s.Lat.Failed == 0 && !s.Grows {
			best = max(best, s.QPS)
		}
	}
	return best
}

// runEngine is daemon-live in process, for the trace: the same batches
// through serve.Engine with bgpd's settings, on one goroutine so the
// spans add up to the run's wall time. Publication and the query mix
// run inline on their schedules (every publishEvery, one query per
// liveInterval) between batches instead of on their own goroutines.
func runEngine(tr *tracer, f feed, dataDir string) (analysis, ops, error) {
	var out analysis
	var o ops
	sp := tr.begin("serve.open")
	eng, err := serve.NewEngine(serve.Config{DataDir: dataDir, SealRows: sealRows, MemBudget: memBudget})
	tr.end(sp, 0, 0)
	if err != nil {
		return out, o, err
	}
	ingest := func(p pair) {
		sp := tr.begin("raslog.decode")
		recs, err := raslog.NewReader(bytes.NewReader(p.ras)).ReadAll()
		tr.end(sp, 0, len(recs))
		o.add(err == nil, "decoding RAS batch: %v", err)
		sp = tr.begin("serve.ingest_ras")
		err = eng.IngestRAS(recs)
		tr.end(sp, len(recs), len(recs))
		o.add(err == nil, "IngestRAS: %v", err)
		if p.jobN == 0 {
			return
		}
		sp = tr.begin("joblog.decode")
		jobs, err := joblog.NewReader(bytes.NewReader(p.job)).ReadAll()
		tr.end(sp, 0, len(jobs))
		o.add(err == nil, "decoding job batch: %v", err)
		sp = tr.begin("serve.ingest_jobs")
		err = eng.IngestJobs(jobs)
		tr.end(sp, len(jobs), len(jobs))
		o.add(err == nil, "IngestJobs: %v", err)
	}
	publish := func(name string, pub func() (*serve.Epoch, error)) *serve.Epoch {
		sp := tr.begin(name)
		ep, err := pub()
		n := 0
		if err == nil {
			n = len(ep.Analysis.Events)
		}
		tr.end(sp, 0, n)
		o.add(err == nil, "%s: %v", name, err)
		out.publishes++
		return ep
	}
	query := func(path string) {
		ep := eng.Epoch()
		var err error
		switch {
		case ep == nil:
			err = errors.New("no epoch published")
		case path == "/v1/epoch":
			sp := tr.begin("serve.query")
			_ = ep.Summary()
			tr.end(sp, 1, 1)
		case strings.HasPrefix(path, "/v1/query/"):
			sp := tr.begin("serve.query")
			_, ok := ep.Query(strings.TrimPrefix(path, "/v1/query/"))
			tr.end(sp, 1, 1)
			if !ok {
				err = errors.New("unknown query")
			}
		case strings.HasPrefix(path, "/v1/report/"):
			sp := tr.begin("serve.fragment")
			var b []byte
			b, err = ep.Fragment(strings.TrimPrefix(path, "/v1/report/"))
			tr.end(sp, 1, len(b))
		default:
			sp := tr.begin("serve.scan")
			prof, st, serr := eng.ScanWindow(core.WindowConfig{From: f.from, To: f.to})
			tr.end(sp, st.Segments, int(prof.Rows))
			out.scan.Segments += st.Segments
			out.scan.Skipped += st.Skipped
			out.scan.Scanned += st.Scanned
			err = serr
		}
		o.add(err == nil, "%s: %v", path, err)
	}

	for _, p := range f.pairs[:f.boot] {
		ingest(p)
	}
	publish("serve.publish", eng.Publish)
	lastPub, next, q := time.Now(), time.Now(), 0
	for _, p := range f.pairs[f.boot:] {
		ingest(p)
		if time.Since(lastPub) >= publishEvery {
			publish("serve.publish", eng.Publish)
			lastPub = time.Now()
		}
		for !time.Now().Before(next) {
			query(f.mix[q%len(f.mix)])
			q++
			next = next.Add(liveInterval)
		}
	}
	ep := publish("serve.quiesce", eng.Quiesce)
	out.artifacts = make(map[string][]byte, len(checkedReports))
	for _, name := range checkedReports {
		query("/v1/report/" + name)
		if ep != nil {
			out.artifacts[name], _ = ep.Fragment(name)
		}
	}
	if ep != nil {
		out.filter = ep.Analysis.FilterStats
		out.events = len(ep.Analysis.Events)
	}
	return out, o, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
