package sched

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/bgp"
	"repro/internal/errcat"
	"repro/internal/faultgen"
	"repro/internal/joblog"
	"repro/internal/workload"
)

// evKind enumerates the discrete-event types.
type evKind int

const (
	evSubmit evKind = iota
	evStart
	evEnd
	evKill
	evFaultCand
	evRepair
	evExpire // a partition hold lapsed; retry scheduling
)

// event is one heap entry. Payload fields are used per kind.
type event struct {
	at   time.Time
	seq  int64
	kind evKind

	// evSubmit
	exec       int
	runtime    time.Duration
	resubmitOf int64
	chainFails int
	prev       bgp.Partition
	hasPrev    bool
	tryPrev    bool

	// evStart / evEnd / evKill
	runID int64

	// evKill (realloc and bug kills)
	code     errcat.Code
	mp       int
	faultGen int64
	isBug    bool

	// evRepair
	repairGen int64
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// run is one scheduled job instance.
type run struct {
	runID, jobID int64
	exec         int
	part         bgp.Partition
	queueT       time.Time
	startT       time.Time
	runtime      time.Duration
	resubmitOf   int64
	chainFails   int
	started      bool
	done         bool
	samePart     bool
}

// waiting is one queued submission.
type waiting struct {
	exec int
	// size is the executable's width, cached at submission so a
	// scheduling pass reads it without touching the executable table.
	size       int
	runtime    time.Duration
	queueT     time.Time
	resubmitOf int64
	chainFails int
	prev       bgp.Partition
	hasPrev    bool
	// tryPrev is the once-per-submission decision to prefer the
	// previous partition.
	tryPrev bool
}

// faultState tracks a sticky failure on a midplane.
type faultState struct {
	code     errcat.Code
	gen      int64
	repairAt time.Time
}

// hold reserves a just-freed partition's midplanes for the interrupted
// executable's expected resubmission, modelling Cobalt's per-partition
// queue affinity on Intrepid (the mechanism behind the paper's 57.44%
// same-partition resubmissions). A zero until means no hold.
type hold struct {
	exec  int
	until time.Time
}

// engine is the discrete-event simulator: a policy-agnostic event loop
// that owns simulated time, the fault stream and the ground truth, and
// defers every scheduling decision to its Policy (see policy.go).
type engine struct {
	cfg    Config
	policy Policy
	model  *faultgen.Model
	emit   *faultgen.Emitter
	execs  []workload.ExecSpec
	rng    *rand.Rand

	now   time.Time
	start time.Time
	end   time.Time
	heap  eventHeap
	seq   int64

	// replay holds the pre-drawn fault-candidate stream of a
	// counterfactual (matrix) run; nil means candidates are drawn live
	// from rng, the byte-identical solo path.
	replay    []faultgen.Candidate
	replayIdx int

	machine *bgp.Machine
	mpOwner [bgp.NumMidplanes]*run
	faulty  map[int]*faultState
	genSeq  int64

	// lastFatal tracks, per midplane, when the most recent FATAL
	// record was emitted there — the RAS-derived signal the
	// failure-aware policy consults through Env.LastFatal.
	lastFatal    [bgp.NumMidplanes]time.Time
	lastFatalSet [bgp.NumMidplanes]bool

	queue    []*waiting
	running  map[int64]*run
	nextID   int64
	bugCount map[int]int
	held     [bgp.NumMidplanes]hold

	// avail is placeFor's candidate buffer: refilled for every policy
	// scan and handed to Policy.Place, which must not retain it. No
	// width has more than NumMidplanes aligned windows, so it never
	// grows.
	avail [bgp.NumMidplanes]bgp.Partition

	// reservation state for draining ahead of wide jobs
	reserved    [bgp.NumMidplanes]bool
	reserver    *waiting
	reservePart bgp.Partition

	// wear tracks each midplane's decaying wide-exposure for the fault
	// model: wearE is the exposure in hours as of wearT.
	wearE [bgp.NumMidplanes]float64
	wearT [bgp.NumMidplanes]time.Time

	// envMult is the per-day environment hazard multiplier table.
	envMult []float64

	jobs  []joblog.Job
	truth GroundTruth
}

// Run simulates the campaign described by the workload generator under
// the scheduler configuration and fault model, returning both logs and
// the ground truth.
func Run(cfg Config, gen *workload.Generator, model *faultgen.Model, emitCfg faultgen.EmitterConfig) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := model.Validate(); err != nil {
		return nil, err
	}
	policy, err := NewPolicy(cfg.Policy)
	if err != nil {
		return nil, err
	}
	spec := gen.Spec()
	e := &engine{
		cfg:      cfg,
		policy:   policy,
		model:    model,
		emit:     faultgen.NewEmitter(emitCfg, cfg.Seed^0x5eed),
		execs:    gen.Executables(),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		start:    spec.Start,
		end:      spec.Start.Add(time.Duration(spec.Days) * 24 * time.Hour),
		machine:  bgp.NewMachine(),
		faulty:   make(map[int]*faultState),
		running:  make(map[int64]*run),
		nextID:   1,
		bugCount: make(map[int]int),
		replay:   cfg.Candidates,
	}
	e.truth.Outcomes = make(map[int64]Outcome)
	e.envMult = model.EnvMultipliers(e.rng, spec.Days+30)

	for _, s := range gen.Submissions() {
		e.push(&event{at: s.At, kind: evSubmit, exec: s.Exec, runtime: s.Runtime})
	}
	if e.replay != nil {
		// Counterfactual mode: the fault-candidate stream was pre-drawn
		// once (see faultgen.Model.Candidates) and is replayed verbatim,
		// so every policy in a matrix faces the identical candidates.
		if len(e.replay) > 0 {
			e.push(&event{at: e.replay[0].At, kind: evFaultCand})
		}
	} else {
		e.push(&event{at: e.start.Add(e.model.DrawCandidateGap(e.rng)), kind: evFaultCand})
	}

	for e.heap.Len() > 0 {
		ev := heap.Pop(&e.heap).(*event)
		e.now = ev.at
		e.dispatch(ev)
	}
	if len(e.running) > 0 || (len(e.queue) > 0 && e.reserver == nil) {
		return nil, fmt.Errorf("sched: simulation drained with %d running, %d queued", len(e.running), len(e.queue))
	}

	nFatalStorm := len(e.emit.Records())
	e.emit.EmitNoise(e.start, e.end, nFatalStorm)
	recs := faultgen.Renumber(e.emit.Records())

	return &Result{
		Jobs:    e.jobs,
		Records: recs,
		Truth:   e.truth,
		Start:   e.start,
		End:     e.end,
	}, nil
}

func (e *engine) push(ev *event) {
	e.seq++
	ev.seq = e.seq
	heap.Push(&e.heap, ev)
}

func (e *engine) dispatch(ev *event) {
	switch ev.kind {
	case evSubmit:
		e.onSubmit(ev)
	case evStart:
		e.onStart(ev)
	case evEnd:
		e.onEnd(ev)
	case evKill:
		e.onKill(ev)
	case evFaultCand:
		e.onFaultCandidate()
	case evRepair:
		e.onRepair(ev)
	case evExpire:
		e.trySchedule()
	}
}

func (e *engine) onSubmit(ev *event) {
	e.queue = append(e.queue, &waiting{
		exec: ev.exec, size: e.execs[ev.exec].Size, runtime: ev.runtime, queueT: e.now,
		resubmitOf: ev.resubmitOf, chainFails: ev.chainFails,
		prev: ev.prev, hasPrev: ev.hasPrev, tryPrev: ev.tryPrev,
	})
	e.trySchedule()
}

// --- Env: the read-only engine view handed to policies ---

// Now returns the current simulated time.
func (e *engine) Now() time.Time { return e.now }

// RNG returns the engine's seed-derived generator.
func (e *engine) RNG() *rand.Rand { return e.rng }

// SchedConfig returns the scheduler configuration.
func (e *engine) SchedConfig() Config { return e.cfg }

// ExecSize returns the width of executable exec.
func (e *engine) ExecSize(exec int) int { return e.execs[exec].Size }

// Faulty reports whether midplane mp has a sticky, unrepaired failure.
func (e *engine) Faulty(mp int) bool {
	_, ok := e.faulty[mp]
	return ok
}

// LastFatal returns when the most recent FATAL record was emitted on
// midplane mp.
func (e *engine) LastFatal(mp int) (time.Time, bool) {
	return e.lastFatal[mp], e.lastFatalSet[mp]
}

// Remaining returns how long midplane mp stays occupied by its current
// run: remaining runtime for started runs, runtime plus mean boot
// delay for booting ones, zero when idle.
func (e *engine) Remaining(mp int) time.Duration {
	r := e.mpOwner[mp]
	if r == nil {
		return 0
	}
	if !r.started {
		return r.runtime + e.cfg.BootDelay
	}
	rem := r.startT.Add(r.runtime).Sub(e.now)
	if rem < 0 {
		return 0
	}
	return rem
}

// noteFatal records a FATAL emission on the given midplanes for the
// Env.LastFatal signal; call it alongside every emit.EmitFault.
func (e *engine) noteFatal(mps []int) {
	for _, mp := range mps {
		e.lastFatal[mp] = e.now
		e.lastFatalSet[mp] = true
	}
}

// reserveAfter is how long a wide job waits before the scheduler starts
// draining a window for it.
const reserveAfter = 15 * time.Minute

func (e *engine) trySchedule() {
	// The policy decides the order this pass considers jobs in (FIFO
	// for the default).
	e.policy.Order(e, e.queue)

	// Maintain at most one drain reservation, for the oldest starving
	// wide job.
	if e.reserver == nil {
		for _, w := range e.queue {
			if w.size >= 32 && e.now.Sub(w.queueT) > reserveAfter {
				e.reserver = w
				e.reservePart = e.policy.ReserveWindow(e, w.size)
				for mp := e.reservePart.Start; mp < e.reservePart.End(); mp++ {
					e.reserved[mp] = true
				}
				break
			}
		}
	}

	// Single pass: startRun only ever shrinks capacity, so a job that
	// fails to place cannot newly fit later in the same pass. A per-width
	// memo prunes repeated policy scans for saturated widths; the
	// previous-partition and reservation paths are job-specific and
	// bypass the memo. The memo is part of the placement rule, not only
	// a pruning: a hold exempts its own executable, so a later job of a
	// failed width could have fit on a window it holds, and the logs
	// depend on it being skipped. The queue compacts in place, and only
	// from its first placed job on, so a pass that places nothing writes
	// nothing.
	var failedSize [bgp.NumMidplanes + 1]bool
	n := 0
	for i, w := range e.queue {
		if part, ok := e.placeFor(w, &failedSize); ok {
			e.startRun(w, part)
			continue
		}
		if n != i {
			e.queue[n] = w
		}
		n++
	}
	// Drop the tail's pointers so placed submissions can be collected.
	clear(e.queue[n:])
	e.queue = e.queue[:n]
}

// placeFor returns the partition w should run on, honouring drain
// reservations, partition holds, previous-partition affinity, and the
// region policy. failedSize memoizes, by width, the policy scans that
// already failed in this pass.
func (e *engine) placeFor(w *waiting, failedSize *[bgp.NumMidplanes + 1]bool) (bgp.Partition, bool) {
	if w == e.reserver {
		if e.machine.Free(e.reservePart) && !e.blocked(e.reservePart, w) {
			return e.reservePart, true
		}
		return bgp.Partition{}, false
	}
	size := w.size
	if w.tryPrev && w.prev.Size == size &&
		e.machine.Free(w.prev) && !e.blocked(w.prev, w) {
		return w.prev, true
	}
	if failedSize[size] {
		return bgp.Partition{}, false
	}
	cands := e.machine.AppendCandidates(e.avail[:0], size)
	avail := cands[:0]
	for _, c := range cands {
		if !e.blocked(c, w) {
			avail = append(avail, c)
		}
	}
	p, ok := e.policy.Place(e, avail, size)
	if !ok {
		failedSize[size] = true
	}
	return p, ok
}

// blocked reports whether partition p is off-limits for w because of a
// drain reservation or a foreign partition hold.
func (e *engine) blocked(p bgp.Partition, w *waiting) bool {
	for mp := p.Start; mp < p.End(); mp++ {
		if e.reserved[mp] && w != e.reserver {
			return true
		}
		if h := &e.held[mp]; !h.until.IsZero() {
			if h.until.Before(e.now) {
				*h = hold{} // expired: cleared lazily
				continue
			}
			if h.exec != w.exec {
				return true
			}
		}
	}
	return false
}

func (e *engine) startRun(w *waiting, part bgp.Partition) {
	if err := e.machine.Allocate(part); err != nil {
		// Defensive: choosePartition only returns free partitions.
		panic("sched: allocation of chosen partition failed: " + err.Error())
	}
	if w == e.reserver {
		for mp := range e.reserved {
			e.reserved[mp] = false
		}
		e.reserver = nil
	}
	r := &run{
		runID: e.nextID, jobID: e.nextID, exec: w.exec, part: part,
		queueT: w.queueT, runtime: w.runtime,
		resubmitOf: w.resubmitOf, chainFails: w.chainFails,
		samePart: w.hasPrev && part == w.prev,
	}
	e.nextID++
	e.running[r.runID] = r
	for mp := part.Start; mp < part.End(); mp++ {
		e.mpOwner[mp] = r
		e.held[mp] = hold{} // the hold (if any) is consumed or overridden
	}
	e.push(&event{at: e.now.Add(e.policy.BootDelay(e)), kind: evStart, runID: r.runID})
}

func (e *engine) onStart(ev *event) {
	r := e.running[ev.runID]
	if r == nil || r.done {
		return
	}
	r.started = true
	r.startT = e.now
	naturalEnd := e.now.Add(r.runtime)
	e.push(&event{at: naturalEnd, kind: evEnd, runID: r.runID})

	// Earliest pending doom: a still-faulty midplane in the partition
	// (the scheduler reallocated failed nodes), or the executable's
	// latent bug.
	var killAt time.Time
	var kill *event
	for mp := r.part.Start; mp < r.part.End(); mp++ {
		fs := e.faulty[mp]
		if fs == nil {
			continue
		}
		at := e.now.Add(faultgen.ReallocKillDelay(e.rng))
		if kill == nil || at.Before(killAt) {
			killAt = at
			kill = &event{at: at, kind: evKill, runID: r.runID, code: fs.code, mp: mp, faultGen: fs.gen}
		}
	}
	ex := e.execs[r.exec]
	if ex.Bug.Buggy() && e.bugCount[r.exec] < ex.Bug.FailRuns {
		at := e.now.Add(ex.Bug.BugDelay(e.rng))
		if kill == nil || at.Before(killAt) {
			killAt = at
			code, ok := e.model.Catalog.Lookup(ex.Bug.Code)
			if !ok {
				panic("sched: bug code not in catalog: " + ex.Bug.Code)
			}
			kill = &event{at: at, kind: evKill, runID: r.runID, code: code, mp: r.part.Start, isBug: true}
		}
	}
	if kill != nil && killAt.Before(naturalEnd) {
		e.push(kill)
	}
}

func (e *engine) onEnd(ev *event) {
	r := e.running[ev.runID]
	if r == nil || r.done {
		return
	}
	e.finish(r, e.now, Outcome{
		Exec: e.execs[r.exec].Path, ResubmitOf: r.resubmitOf,
		ChainFails: r.chainFails, SamePartition: r.samePart,
	})
	e.trySchedule()
}

func (e *engine) onKill(ev *event) {
	r := e.running[ev.runID]
	if r == nil || r.done || !r.started {
		return
	}
	if !ev.isBug {
		// Realloc kill: only fires if the midplane is still faulty with
		// the same fault generation (the repair may have finished first).
		fs := e.faulty[ev.mp]
		if fs == nil || fs.gen != ev.faultGen {
			return
		}
	}
	redundant := false
	if ev.isBug {
		redundant = e.bugCount[r.exec] >= 1
		e.bugCount[r.exec]++
	} else {
		redundant = true // re-report of an existing sticky failure
	}
	gf := faultgen.GroundFault{
		Time: e.now, Code: ev.code, Midplane: ev.mp,
		InterruptedJobs: []int64{r.jobID}, Redundant: redundant,
	}
	mps := originFirst(r.part, ev.mp)
	e.emit.EmitFault(e.now, ev.code, mps)
	e.noteFatal(mps)
	e.killJob(r, e.now, ev.code)

	if !ev.isBug {
		e.adminAccelerate(ev.mp)
	}

	// Spatial propagation: shared file-system application errors can
	// interrupt other running jobs at the same time (Obs. 8).
	if ev.code.Shared && e.rng.Float64() < e.cfg.SharedVictimProb {
		victims := e.pickVictims(r.runID)
		for _, v := range victims {
			vmps := v.part.Midplanes()
			e.emit.EmitFault(e.now, ev.code, vmps)
			e.noteFatal(vmps)
			e.killJob(v, e.now, ev.code)
			gf.InterruptedJobs = append(gf.InterruptedJobs, v.jobID)
		}
	}
	e.truth.Faults = append(e.truth.Faults, gf)
	e.trySchedule()
}

// pickVictims selects up to SharedVictimMax other running, started jobs.
func (e *engine) pickVictims(excludeRunID int64) []*run {
	var pool []*run
	for _, r := range e.running {
		if r.runID != excludeRunID && r.started && !r.done {
			pool = append(pool, r)
		}
	}
	// Deterministic order before sampling: e.running is a map, so the
	// append order above is random per run (maporder invariant).
	sort.Slice(pool, func(i, j int) bool { return pool[i].runID < pool[j].runID })
	n := 1 + e.rng.Intn(e.cfg.SharedVictimMax)
	if n > len(pool) {
		n = len(pool)
	}
	e.rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool[:n]
}

// killJob finishes a run as interrupted and schedules the user's
// resubmission.
func (e *engine) killJob(r *run, at time.Time, code errcat.Code) {
	e.finish(r, at, Outcome{
		Interrupted: true, Code: code.Name, Class: code.Class,
		Exec: e.execs[r.exec].Path, ResubmitOf: r.resubmitOf,
		ChainFails: r.chainFails, SamePartition: r.samePart,
	})
	if at.After(e.end) {
		return
	}
	if r.chainFails+1 > e.cfg.MaxChainResubmits {
		return
	}
	if e.rng.Float64() >= e.cfg.ResubmitProb {
		return
	}
	resubAt := at.Add(workload.ResubmitDelay(e.rng))
	// Partition affinity is decided once per interruption: the policy
	// chooses whether the freed partition is held for the resubmission
	// (Cobalt's per-partition queue affinity); otherwise the
	// resubmission goes wherever the policy sends it.
	affinity := e.policy.ResubmitAffinity(e, r.part)
	e.push(&event{
		at: resubAt, kind: evSubmit,
		exec: r.exec, runtime: r.runtime,
		resubmitOf: r.jobID, chainFails: r.chainFails + 1,
		prev: r.part, hasPrev: true, tryPrev: affinity,
	})
	if affinity {
		until := resubAt.Add(30 * time.Minute)
		for mp := r.part.Start; mp < r.part.End(); mp++ {
			e.held[mp] = hold{exec: r.exec, until: until}
		}
		e.push(&event{at: until.Add(time.Second), kind: evExpire})
	}
}

// adminAccelerate shortens the remaining repair of a sticky failure
// after it interrupts yet another job: repeated interruptions attract
// administrator attention.
func (e *engine) adminAccelerate(mp int) {
	fs := e.faulty[mp]
	if fs == nil {
		return
	}
	rem := fs.repairAt.Sub(e.now)
	if rem <= 0 {
		return
	}
	fs.repairAt = e.now.Add(time.Duration(float64(rem) * e.model.AdminAccel))
	e.push(&event{at: fs.repairAt, kind: evRepair, mp: mp, repairGen: fs.gen})
}

func (e *engine) finish(r *run, at time.Time, o Outcome) {
	r.done = true
	delete(e.running, r.runID)
	wide := r.part.Size >= e.model.WideSize
	for mp := r.part.Start; mp < r.part.End(); mp++ {
		if e.mpOwner[mp] == r {
			e.mpOwner[mp] = nil
		}
		if wide {
			hours := at.Sub(r.startT).Hours()
			if hours > 0 {
				e.wearE[mp] = e.exposure(mp, at) + hours
				e.wearT[mp] = at
			}
		}
	}
	e.machine.Release(r.part)
	ex := e.execs[r.exec]
	e.jobs = append(e.jobs, joblog.Job{
		ID: r.jobID, Name: "N.A.", ExecFile: ex.Path,
		QueueTime: r.queueT, StartTime: r.startT, EndTime: at,
		Partition: r.part, User: ex.User, Project: ex.Project,
	})
	e.truth.Outcomes[r.jobID] = o
}

func (e *engine) onFaultCandidate() {
	// A candidate carries (At, Midplane, U, Code, Repair). In the solo
	// path those are drawn live from the engine RNG in the historical
	// order (gap, midplane, uniform, then code/repair only if accepted)
	// — byte-identical to the pre-refactor engine. In replay mode the
	// next pre-drawn candidate is consumed instead, so every policy in
	// a matrix faces the identical fault-candidate stream regardless of
	// how many RNG draws its own decisions consume.
	var cand *faultgen.Candidate
	if e.replay != nil {
		cand = &e.replay[e.replayIdx]
		e.replayIdx++
		if e.replayIdx < len(e.replay) {
			e.push(&event{at: e.replay[e.replayIdx].At, kind: evFaultCand})
		}
	} else if e.now.Before(e.end) {
		e.push(&event{at: e.now.Add(e.model.DrawCandidateGap(e.rng)), kind: evFaultCand})
	}
	var mp int
	if cand != nil {
		mp = cand.Midplane
	} else {
		mp = e.rng.Intn(bgp.NumMidplanes)
	}
	owner := e.mpOwner[mp]
	hostsWide := owner != nil && owner.part.Size >= e.model.WideSize
	hazard := e.model.HazardAt(mp, hostsWide, e.exposure(mp, e.now)) * e.envAt(e.now)
	var u float64
	if cand != nil {
		u = cand.U
	} else {
		u = e.rng.Float64()
	}
	if u >= hazard/e.model.MaxHazard() {
		return
	}
	var code errcat.Code
	if cand != nil {
		code = cand.Code
	} else {
		code = e.model.DrawSystemCode(e.rng)
	}
	victim := owner
	victimRunning := victim != nil && victim.started && !victim.done

	if !code.Interrupting {
		// False-fatal alarm: FATAL record, jobs keep running.
		e.truth.Faults = append(e.truth.Faults, faultgen.GroundFault{
			Time: e.now, Code: code, Midplane: mp, Idle: !victimRunning,
		})
		e.emit.EmitFault(e.now, code, []int{mp})
		e.noteFatal([]int{mp})
		return
	}

	if code.Sticky {
		if _, already := e.faulty[mp]; !already {
			e.genSeq++
			var repair time.Duration
			if cand != nil {
				repair = cand.Repair
			} else {
				repair = e.model.DrawRepair(e.rng)
			}
			fs := &faultState{code: code, gen: e.genSeq, repairAt: e.now.Add(repair)}
			e.faulty[mp] = fs
			e.push(&event{at: fs.repairAt, kind: evRepair, mp: mp, repairGen: fs.gen})
		}
	}

	gf := faultgen.GroundFault{Time: e.now, Code: code, Midplane: mp, Idle: !victimRunning}
	if victimRunning {
		killAt := e.now.Add(faultgen.DetectionDelay(e.rng))
		gf.InterruptedJobs = []int64{victim.jobID}
		vmps := originFirst(victim.part, mp)
		e.emit.EmitFault(e.now, code, vmps)
		e.noteFatal(vmps)
		e.killJob(victim, killAt, code)
		e.trySchedule()
	} else {
		e.emit.EmitFault(e.now, code, []int{mp})
		e.noteFatal([]int{mp})
	}
	e.truth.Faults = append(e.truth.Faults, gf)
}

// originFirst returns the partition's midplanes with the fault origin
// mp moved to the front, so the emitter's storm throttling never drops
// the faulty location itself.
func originFirst(p bgp.Partition, mp int) []int {
	mps := p.Midplanes()
	for i, m := range mps {
		if m == mp {
			mps[0], mps[i] = mps[i], mps[0]
			break
		}
	}
	return mps
}

// envAt returns the environment hazard multiplier in effect at time t.
func (e *engine) envAt(t time.Time) float64 {
	d := t.Sub(e.start)
	if d < 0 {
		return 1
	}
	day := int(d.Hours() / 24)
	if day >= len(e.envMult) {
		return 1
	}
	return e.envMult[day]
}

// exposure returns midplane mp's wide-exposure hours decayed to time t.
func (e *engine) exposure(mp int, t time.Time) float64 {
	if e.wearE[mp] == 0 {
		return 0
	}
	dt := t.Sub(e.wearT[mp])
	if dt <= 0 {
		return e.wearE[mp]
	}
	return e.wearE[mp] * math.Exp(-dt.Hours()/e.model.WearTau.Hours())
}

func (e *engine) onRepair(ev *event) {
	fs := e.faulty[ev.mp]
	if fs == nil || fs.gen != ev.repairGen {
		return
	}
	if fs.repairAt.After(e.now) {
		return // superseded by an accelerated (or original) later event
	}
	delete(e.faulty, ev.mp)
}
