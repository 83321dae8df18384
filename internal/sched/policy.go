package sched

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/bgp"
)

// Policy abstracts every scheduling decision the engine makes. The
// engine owns the event loop, simulated time, the fault stream and the
// ground truth; a Policy only answers the questions Cobalt's allocator
// answered on Intrepid — in what order to consider queued jobs, where
// to place them, which window to drain for a starving wide job, how
// long reboot-before-execution takes, and whether an interrupted job's
// resubmission is bound to its previous partition.
//
// Determinism contract: a Policy must be a pure function of the Env it
// is handed. All randomness must come from Env.RNG() — the single
// seed-derived generator the engine threads through the whole run
// (constructing a private rand.New inside a Policy is a seedtaint lint
// error). A Place call that returns ok == false must not have consumed
// any RNG draws: the engine memoizes failed widths within one
// scheduling pass, so a draw on the failure path would make the memo
// visible in the random stream.
type Policy interface {
	// Name returns the registry key (also used in reports and flags).
	Name() string
	// Order arranges the waiting queue in the order this pass considers
	// jobs (it must permute the slice in place, never grow or shrink
	// it). The engine submits in arrival order; an identity Order is
	// FIFO.
	Order(env Env, queue []*waiting)
	// Place picks a partition among the free, unblocked candidates for
	// a job of the given width. Returning ok == false leaves the job
	// queued for the next pass. cands is engine scratch, in ascending
	// start order, valid only for the duration of the call: the engine
	// refills it for its next scan, so Place must not retain it.
	Place(env Env, cands []bgp.Partition, size int) (bgp.Partition, bool)
	// ReserveWindow picks the aligned window the engine drains for a
	// starving wide job of the given width.
	ReserveWindow(env Env, size int) bgp.Partition
	// BootDelay draws the reboot-before-execution delay for one run.
	BootDelay(env Env) time.Duration
	// ResubmitAffinity decides whether the resubmission of a job
	// interrupted on prev is held for that same partition (the
	// mechanism behind the paper's 57.44% same-partition rate).
	ResubmitAffinity(env Env, prev bgp.Partition) bool
}

// Env is the read-only view of engine state a Policy may consult. It
// is implemented by the engine; policies must treat it as immutable.
type Env interface {
	// Now is the current simulated time.
	Now() time.Time
	// RNG is the engine's seed-derived generator — the only sanctioned
	// randomness source for policies.
	RNG() *rand.Rand
	// SchedConfig returns the scheduler configuration.
	SchedConfig() Config
	// Faulty reports whether midplane mp currently carries a sticky,
	// unrepaired failure.
	Faulty(mp int) bool
	// LastFatal returns the time of the most recent FATAL occurrence
	// recorded on midplane mp, and whether one has occurred at all.
	LastFatal(mp int) (time.Time, bool)
	// Remaining returns how long midplane mp stays occupied by its
	// current run (zero when idle): remaining runtime for started runs,
	// runtime plus mean boot delay for booting ones.
	Remaining(mp int) time.Duration
}

// DefaultPolicy is the registry key of the paper-documented Intrepid
// policy, the golden-checked default.
const DefaultPolicy = "intrepid"

// registry maps policy names to fresh-instance constructors. It is
// populated from init functions and only ever iterated through the
// sorted PolicyNames view (maporder invariant).
var registry = map[string]func() Policy{}

// RegisterPolicy adds a policy constructor under its name. It panics
// on duplicates — registration is an init-time, programmer-error
// surface.
func RegisterPolicy(name string, make func() Policy) {
	if name == "" {
		panic("sched: RegisterPolicy with empty name")
	}
	if _, dup := registry[name]; dup {
		panic("sched: duplicate policy " + name)
	}
	registry[name] = make
}

// PolicyNames returns the registered policy names in sorted order —
// the canonical iteration order for matrix runs, flags and reports
// (registry is a map; an unsorted view would leak random map order,
// the maporder invariant).
func PolicyNames() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// NewPolicy constructs a fresh instance of the named policy; the empty
// name means DefaultPolicy.
func NewPolicy(name string) (Policy, error) {
	if name == "" {
		name = DefaultPolicy
	}
	make, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("sched: unknown policy %q (registered: %v)", name, PolicyNames())
	}
	return make(), nil
}

// randIn picks uniformly among the candidates satisfying keep. It
// consumes one RNG draw per kept candidate and none when nothing is
// kept, preserving the failed-Place contract.
func randIn(cands []bgp.Partition, rng *rand.Rand, keep func(bgp.Partition) bool) (bgp.Partition, bool) {
	n := 0
	var pick bgp.Partition
	for _, c := range cands {
		if !keep(c) {
			continue
		}
		n++
		if rng.Intn(n) == 0 {
			pick = c
		}
	}
	return pick, n > 0
}

// overlap returns the midplane overlap of partition p with [lo, hi).
func overlap(p bgp.Partition, lo, hi int) int {
	a, b := p.Start, p.End()
	if a < lo {
		a = lo
	}
	if b > hi {
		b = hi
	}
	if b <= a {
		return 0
	}
	return b - a
}
