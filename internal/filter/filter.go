// Package filter implements the RAS-log preprocessing cascade of the
// paper's methodology (Figure 1): temporal filtering (duplicate reports
// from one location), spatial filtering (the same event type reported
// from many locations, as a parallel job's interrupt is reported by all
// its nodes), and causality-related filtering (sets of event types that
// co-occur so reliably that the followers are symptoms of the leader).
// Job-related filtering — the paper's contribution — needs the job log
// and therefore lives in internal/core.
//
// The cascade is one ordered, single-pass state machine (Incremental):
// batch callers (Pipeline) and the streaming daemon feed it the same
// way. It works over interned symbols (internal/symtab), interning each
// record's ERRCODE and location in stream order, and every grouping
// stage keys on dense integer IDs — the temporal pass on a
// (LocationID, ErrcodeID) pair packed into a single uint64 — instead of
// hashing strings per record.
package filter

import (
	"sort"
	"time"

	"repro/internal/raslog"
	"repro/internal/symtab"
)

// Event is one filtered (independent) fatal event: a cluster of raw
// records of one ERRCODE that temporal-spatial filtering collapsed.
type Event struct {
	// Code is the interned ERRCODE shared by the cluster; resolve it
	// through the run's symtab table at the report boundary.
	Code symtab.ErrcodeID
	// Component is the reporting component of the representative record.
	Component raslog.Component
	// First and Last delimit the cluster in time; First is the event
	// time used by all downstream analyses.
	First, Last time.Time
	// Midplanes are the global midplane indices touched by any record of
	// the cluster, sorted. Events sharing a location may share the
	// backing array; callers must not mutate.
	Midplanes []int
	// Size is the number of raw records collapsed into this event.
	Size int
}

// Time returns the event time (cluster start).
func (e *Event) Time() time.Time { return e.First }

// OnMidplane reports whether the event touched global midplane mp.
func (e *Event) OnMidplane(mp int) bool {
	i := sort.SearchInts(e.Midplanes, mp)
	return i < len(e.Midplanes) && e.Midplanes[i] == mp
}

// Config holds the cascade thresholds.
type Config struct {
	// TemporalWindow collapses records with the same (location, code)
	// whose gap is at most this (Liang et al. use 5 minutes).
	TemporalWindow time.Duration
	// SpatialWindow merges same-code clusters across locations whose gap
	// is at most this.
	SpatialWindow time.Duration
	// CausalityWindow is the lag within which a follower event type is
	// considered a symptom of its leader.
	CausalityWindow time.Duration
	// CausalityMinSupport is the minimum number of observed
	// leader→follower co-occurrences for a causal rule.
	CausalityMinSupport int
	// CausalityMinConfidence is the minimum fraction of follower
	// occurrences preceded by the leader.
	CausalityMinConfidence float64
}

// DefaultConfig mirrors the thresholds of the paper's references:
// 5-minute temporal and spatial windows, 10-minute causality lag.
func DefaultConfig() Config {
	return Config{
		TemporalWindow:         5 * time.Minute,
		SpatialWindow:          5 * time.Minute,
		CausalityWindow:        10 * time.Minute,
		CausalityMinSupport:    3,
		CausalityMinConfidence: 0.6,
	}
}

// Stats reports the compression achieved by each stage.
type Stats struct {
	// Input is the number of raw FATAL records.
	Input int
	// AfterTemporal, AfterSpatial and AfterCausality count surviving
	// events after each stage.
	AfterTemporal, AfterSpatial, AfterCausality int
}

// CompressionRatio returns 1 - after/input: the fraction of raw records
// removed by the cascade (the paper reports 98.35%).
func (s Stats) CompressionRatio() float64 {
	if s.Input == 0 {
		return 0
	}
	return 1 - float64(s.AfterCausality)/float64(s.Input)
}

// Pipeline runs the full cascade over the FATAL records of a store and
// returns the independent events in time order, with their symbols
// interned into tab. It feeds every record, in order, into one
// Incremental and returns its Snapshot: the batch and streaming
// cascades are the same code.
//
// fatal must be in (EventTime, RecID) order, as raslog.Store.Fatal
// presents it; Pipeline panics with Feed's error on a record behind
// its predecessor.
func Pipeline(cfg Config, tab *symtab.Table, fatal []raslog.Record) ([]*Event, Stats) {
	inc := NewIncremental(cfg, tab)
	for i := range fatal {
		if err := inc.Feed(&fatal[i]); err != nil {
			panic(err)
		}
	}
	return inc.Snapshot()
}

// packKey packs a temporal-cluster stream key — (LocationID, ErrcodeID)
// — into one uint64, the map key of the temporal pass.
func packKey(loc symtab.LocationID, code symtab.ErrcodeID) uint64 {
	return uint64(uint32(loc))<<32 | uint64(uint32(code))
}

// rule is a mined causality rule: occurrences of Follower within the
// window after Leader are symptoms of the Leader.
type rule struct {
	Leader, Follower symtab.ErrcodeID
	// Support is the number of observed co-occurrences.
	Support int
	// Confidence is the fraction of Follower events preceded by Leader.
	Confidence float64
}

// rulesFromCounts turns mined co-occurrence counts into the rule set,
// sorted by (Leader, Follower) ID — first-seen symbol order.
func rulesFromCounts(cfg Config, coCount map[uint64]int, total []int) []rule {
	// Few pairs survive the support/confidence cuts; a small fixed
	// capacity avoids both per-iteration growth and a len(coCount)
	// allocation that would dwarf the survivors.
	rules := make([]rule, 0, min(len(coCount), 64))
	for p, n := range coCount {
		if n < cfg.CausalityMinSupport {
			continue
		}
		lead, follow := unpackPair(p)
		conf := float64(n) / float64(total[follow])
		if conf < cfg.CausalityMinConfidence {
			continue
		}
		rules = append(rules, rule{Leader: lead, Follower: follow, Support: n, Confidence: conf})
	}
	sort.Slice(rules, func(i, j int) bool {
		if rules[i].Leader != rules[j].Leader {
			return rules[i].Leader < rules[j].Leader
		}
		return rules[i].Follower < rules[j].Follower
	})
	return rules
}

// unpackPair splits a packed (leader, follower) ErrcodeID pair.
func unpackPair(p uint64) (lead, follow symtab.ErrcodeID) {
	return symtab.ErrcodeID(p >> 32), symtab.ErrcodeID(uint32(p))
}

// packPair packs a (leader, follower) ErrcodeID pair into one uint64.
func packPair(lead, follow symtab.ErrcodeID) uint64 {
	return uint64(uint32(lead))<<32 | uint64(uint32(follow))
}

// causality drops follower events that occur within the window after
// their leader, per the mined rules. Every event code and rule code is
// below nCodes.
func causality(window time.Duration, rules []rule, events []*Event, nCodes int) []*Event {
	leadersOf := make([][]symtab.ErrcodeID, nCodes)
	for _, r := range rules {
		leadersOf[r.Follower] = append(leadersOf[r.Follower], r.Leader)
	}
	lastAt := make([]int64, nCodes)
	seen := make([]bool, nCodes)
	out := make([]*Event, 0, len(events))
	for _, ev := range events {
		first := ev.First.UnixNano()
		drop := false
		for _, lead := range leadersOf[ev.Code] {
			if t := lastAt[lead]; seen[lead] && first > t && first-t <= int64(window) {
				drop = true
				break
			}
		}
		lastAt[ev.Code] = first
		seen[ev.Code] = true
		if !drop {
			out = append(out, ev)
		}
	}
	return out
}

func mergeInts(a, b []int) []int {
	seen := make(map[int]bool, len(a)+len(b))
	for _, x := range a {
		seen[x] = true
	}
	for _, x := range b {
		seen[x] = true
	}
	out := make([]int, 0, len(seen))
	for x := range seen {
		out = append(out, x)
	}
	sort.Ints(out)
	return out
}
