package sched

import (
	"cmp"
	"slices"
	"time"

	"repro/internal/bgp"
)

// The counterfactual policies the paper could never run on the real
// machine: alternatives to Intrepid's documented region skew, each fed
// the identical workload (and, in matrix mode, the identical pre-drawn
// fault-candidate stream) so per-policy differences in interruption
// outcomes are attributable to the allocation decisions alone. All of
// them draw randomness only from Env.RNG() and inherit the Intrepid
// drain-window and reboot draws, so the zoo varies exactly one axis:
// where jobs land.

func init() {
	RegisterPolicy("first-fit", func() Policy { return firstFitPolicy{} })
	RegisterPolicy("random", func() Policy { return randomPolicy{} })
	RegisterPolicy("failure-aware", func() Policy { return failureAwarePolicy{} })
	RegisterPolicy("sjf", func() Policy { return sjfPolicy{} })
}

// firstFitPolicy removes the region skew entirely: every job takes the
// lowest-numbered free window of its width. Small jobs are no longer
// confined to the outer midplanes, so per-midplane workload — and the
// wide-exposure wear behind Observation 5 — spreads differently.
type firstFitPolicy struct{}

func (firstFitPolicy) Name() string          { return "first-fit" }
func (firstFitPolicy) Order(Env, []*waiting) {}

func (firstFitPolicy) Place(env Env, cands []bgp.Partition, size int) (bgp.Partition, bool) {
	if len(cands) == 0 {
		return bgp.Partition{}, false
	}
	// Candidates come in ascending start order; the first is the
	// lowest-numbered fit. No RNG draws at all.
	return cands[0], true
}

func (firstFitPolicy) ReserveWindow(env Env, size int) bgp.Partition {
	return reserveIntrepid(env, size)
}
func (firstFitPolicy) BootDelay(env Env) time.Duration { return bootUniform(env) }
func (firstFitPolicy) ResubmitAffinity(env Env, prev bgp.Partition) bool {
	return env.RNG().Float64() < env.SchedConfig().SamePartitionProb
}

// randomPolicy places every job uniformly among the free windows of
// its width — the "no policy" baseline that decorrelates placement
// from both region and history.
type randomPolicy struct{}

func (randomPolicy) Name() string          { return "random" }
func (randomPolicy) Order(Env, []*waiting) {}

func (randomPolicy) Place(env Env, cands []bgp.Partition, size int) (bgp.Partition, bool) {
	if len(cands) == 0 {
		return bgp.Partition{}, false
	}
	return cands[env.RNG().Intn(len(cands))], true
}

func (randomPolicy) ReserveWindow(env Env, size int) bgp.Partition {
	return reserveIntrepid(env, size)
}
func (randomPolicy) BootDelay(env Env) time.Duration { return bootUniform(env) }
func (randomPolicy) ResubmitAffinity(env Env, prev bgp.Partition) bool {
	return env.RNG().Float64() < env.SchedConfig().SamePartitionProb
}

// fatalAvoidWindow is how long failure-aware allocation treats a
// midplane as suspect after a FATAL occurrence there.
const fatalAvoidWindow = 24 * time.Hour

// failureAwarePolicy answers the paper's open counterfactual: what if
// the allocator used the RAS stream it already had? It keeps Intrepid's
// region preferences but (a) filters out candidate windows touching a
// midplane that is still faulty or saw a FATAL within fatalAvoidWindow,
// falling back to the unfiltered candidates when nothing safe is free,
// and (b) refuses same-partition resubmit affinity onto hardware with a
// recent FATAL — directly countering the 57.44% same-partition
// resubmissions that the paper links to repeated interruptions.
type failureAwarePolicy struct{}

func (failureAwarePolicy) Name() string          { return "failure-aware" }
func (failureAwarePolicy) Order(Env, []*waiting) {}

// suspect reports whether partition p touches a midplane that is still
// faulty or saw a FATAL within the avoidance window.
func suspect(env Env, p bgp.Partition) bool {
	for mp := p.Start; mp < p.End(); mp++ {
		if env.Faulty(mp) {
			return true
		}
		if at, ok := env.LastFatal(mp); ok && env.Now().Sub(at) < fatalAvoidWindow {
			return true
		}
	}
	return false
}

func (failureAwarePolicy) Place(env Env, cands []bgp.Partition, size int) (bgp.Partition, bool) {
	if len(cands) == 0 {
		return bgp.Partition{}, false
	}
	// No width has more than NumMidplanes windows, so the filtered list
	// fits a fixed array on the stack.
	var buf [bgp.NumMidplanes]bgp.Partition
	safe := buf[:0]
	for _, c := range cands {
		if !suspect(env, c) {
			safe = append(safe, c)
		}
	}
	if len(safe) == 0 {
		// Everything free is suspect: run anyway rather than starve —
		// the counterfactual changes placement preference, not capacity.
		safe = cands
	}
	return placeIntrepid(env, safe, size)
}

func (failureAwarePolicy) ReserveWindow(env Env, size int) bgp.Partition {
	return reserveIntrepid(env, size)
}
func (failureAwarePolicy) BootDelay(env Env) time.Duration { return bootUniform(env) }

func (failureAwarePolicy) ResubmitAffinity(env Env, prev bgp.Partition) bool {
	if suspect(env, prev) {
		// The interrupted partition just produced a FATAL (or is still
		// faulty): never steer the resubmission back onto it.
		return false
	}
	return env.RNG().Float64() < env.SchedConfig().SamePartitionProb
}

// sjfPolicy exercises the queue-ordering decision point: shortest
// requested runtime first (stable, so equal runtimes keep arrival
// order), with skew-free first-fit placement. Short jobs stop queueing
// behind long ones, which shifts both queue delay and which jobs are
// exposed to faults.
type sjfPolicy struct{}

func (sjfPolicy) Name() string { return "sjf" }

func (sjfPolicy) Order(env Env, queue []*waiting) {
	slices.SortStableFunc(queue, func(a, b *waiting) int { return cmp.Compare(a.runtime, b.runtime) })
}

func (sjfPolicy) Place(env Env, cands []bgp.Partition, size int) (bgp.Partition, bool) {
	if len(cands) == 0 {
		return bgp.Partition{}, false
	}
	return cands[0], true
}

func (sjfPolicy) ReserveWindow(env Env, size int) bgp.Partition {
	return reserveIntrepid(env, size)
}
func (sjfPolicy) BootDelay(env Env) time.Duration { return bootUniform(env) }
func (sjfPolicy) ResubmitAffinity(env Env, prev bgp.Partition) bool {
	return env.RNG().Float64() < env.SchedConfig().SamePartitionProb
}
