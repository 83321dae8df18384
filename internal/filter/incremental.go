package filter

// This file is the cascade itself: an Incremental accepts FATAL
// records one at a time, in the (EventTime, RecID) order raslog.Store
// presents, and maintains the temporal and spatial clustering plus the
// causality co-occurrence counts as running state, so a long-running
// service never re-scans the raw record stream. Pipeline is a loop
// that feeds one Incremental and takes its Snapshot; the independent,
// string-keyed reference cascade in reference_test.go pins the result.
// Symbols are interned per record in stream order (ERRCODE, then
// location), so the symtab numbering is first-seen order.
//
// Why streaming clustering is sound here: records arrive time-sorted,
// so once the watermark (the latest record time seen) has moved more
// than TemporalWindow past a temporal cluster's last record, no future
// record can extend it — the cluster is final and flows to the spatial
// stage in creation order. Creation order is First order, because
// First is nondecreasing along it, so the spatial stage sees temporal
// clusters exactly as a stable time sort would present them. A spatial
// cluster becomes immutable once the feed frontier — the First of the
// oldest still-queued temporal cluster, or the watermark when none is
// queued — has moved more than SpatialWindow past its Last: every event
// fed later has First at or past the frontier and so can never satisfy
// the merge test. Causality co-occurrence counts depend only on the
// First timestamps of spatial clusters in creation order, which never
// change after creation, so they are accumulated at creation time; only
// the rule derivation and the follower-drop pass — linear in the
// collapsed event count — run per Snapshot.
//
// Snapshot is a shadow finalization: still-open clusters are cloned and
// flushed through a copy of the downstream state, so the returned
// events are immutable (frontier-sealed clusters are shared across
// snapshots, the rest are private copies) and the live clustering state
// is untouched — publishing an epoch never blocks or perturbs
// ingestion.

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/raslog"
	"repro/internal/symtab"
)

// tempCluster is one temporal cluster plus the bookkeeping the
// streaming seal test needs.
type tempCluster struct {
	ev       Event
	key      uint64
	lastSeen int64
	// superseded marks clusters that are no longer the open cluster of
	// their key (a later gap started a fresh one); they are final
	// regardless of the watermark.
	superseded bool
}

// spatCluster is one spatial cluster, allocated together with its
// Event; sealed clusters are immutable and their Event is shared with
// every later Snapshot.
type spatCluster struct {
	ev     Event
	sealed bool
}

// Incremental is the cascade state, fed whole by Pipeline and record
// by record by the serving layer. It is not safe for concurrent use;
// the serving layer feeds it from a single ingest goroutine and
// publishes only Snapshot results.
type Incremental struct {
	cfg Config
	tab *symtab.Table

	// perLoc caches LocationID -> global midplane indices (nil for an
	// unparseable location). Each location is parsed once, when its ID
	// first appears; perLoc covers exactly the IDs below len(perLoc).
	perLoc [][]int

	input     int   // FATAL records fed (Stats.Input)
	watermark int64 // latest record time fed, unix ns
	lastRecID int64 // RecID of the latest record (order validation)
	started   bool

	// Temporal stage: the open cluster per packed (LocationID,
	// ErrcodeID) key, plus every not-yet-flushed cluster in creation
	// order.
	tOpen  map[uint64]*tempCluster
	tQueue []*tempCluster
	tCount int // clusters ever created (Stats.AfterTemporal)

	// Spatial stage: the most recent cluster per ErrcodeID (dense) and
	// all clusters in creation order.
	sLast   []*spatCluster
	spatial []*spatCluster
	// firstUnsealed is a low-water mark: every cluster before it is
	// sealed. Clusters at or past it may or may not still be mutable;
	// Snapshot clones them all, which is cheap because the unsealed
	// suffix is bounded by recent activity, not stream length.
	firstUnsealed int

	// Causality counts over spatial clusters, accumulated at creation
	// (First timestamps are immutable). seen/stamp dedup each event's
	// leader codes without per-event allocation.
	co    map[uint64]int
	total []int
	seen  []int
	stamp int
}

// NewIncremental returns an empty streaming cascade interning into tab.
func NewIncremental(cfg Config, tab *symtab.Table) *Incremental {
	return &Incremental{
		cfg:   cfg,
		tab:   tab,
		tOpen: make(map[uint64]*tempCluster),
		co:    make(map[uint64]int),
	}
}

// Watermark returns the event time of the latest record fed, in unix
// nanoseconds (0 before the first record).
func (inc *Incremental) Watermark() int64 { return inc.watermark }

// Input returns the number of FATAL records fed so far.
func (inc *Incremental) Input() int { return inc.input }

// Feed ingests one FATAL record. Records must arrive in
// (EventTime, RecID) order; a record behind the stream is rejected with
// an error and leaves the state untouched.
func (inc *Incremental) Feed(rec *raslog.Record) error {
	t := rec.EventTime.UnixNano()
	if inc.started && (t < inc.watermark || (t == inc.watermark && rec.RecID < inc.lastRecID)) {
		return fmt.Errorf("filter: record %d at %s behind the stream watermark",
			rec.RecID, rec.EventTime.Format(time.RFC3339Nano))
	}
	inc.started = true
	inc.input++

	// Intern code, then location: every path into the cascade (and the
	// serving layer's segment rows) uses this order, so the numbering is
	// the same for the same stream.
	code := inc.tab.Errcodes.Intern(rec.ErrCode)
	loc := inc.tab.Locations.Intern(rec.Location)
	for int(loc) >= len(inc.perLoc) {
		id := symtab.LocationID(len(inc.perLoc))
		inc.perLoc = append(inc.perLoc, raslog.LocationMidplanes(inc.tab.Locations.Name(id)))
	}

	k := packKey(loc, code)
	w := int64(inc.cfg.TemporalWindow)
	if c, ok := inc.tOpen[k]; ok && t-c.lastSeen <= w {
		c.ev.Last = rec.EventTime
		c.ev.Size++
		c.lastSeen = t
	} else {
		if ok {
			c.superseded = true
		}
		nc := &tempCluster{
			ev: Event{
				Code:      code,
				Component: rec.Component,
				First:     rec.EventTime,
				Last:      rec.EventTime,
				Midplanes: inc.perLoc[loc],
				Size:      1,
			},
			key:      k,
			lastSeen: t,
		}
		inc.tOpen[k] = nc
		inc.tQueue = append(inc.tQueue, nc)
		inc.tCount++
	}

	inc.watermark = t
	inc.lastRecID = rec.RecID
	inc.advance()
	return nil
}

// advance flushes what the watermark allows: final temporal clusters
// flow to the spatial stage in creation order, and spatial clusters
// behind the feed frontier seal.
func (inc *Incremental) advance() {
	w := int64(inc.cfg.TemporalWindow)
	n := 0
	for _, c := range inc.tQueue {
		if !c.superseded && inc.watermark-c.lastSeen <= w {
			break // may still grow; later clusters wait to preserve order
		}
		if !c.superseded {
			delete(inc.tOpen, c.key)
			c.superseded = true
		}
		inc.feedSpatial(&c.ev)
		n++
	}
	// Compact in place: re-slicing from the front would shrink the
	// capacity and make the next append reallocate.
	inc.tQueue = slices.Delete(inc.tQueue, 0, n)

	frontier := inc.frontier()
	sw := int64(inc.cfg.SpatialWindow)
	for inc.firstUnsealed < len(inc.spatial) {
		c := inc.spatial[inc.firstUnsealed]
		if frontier-c.ev.Last.UnixNano() <= sw {
			break
		}
		c.sealed = true
		inc.firstUnsealed++
	}
}

// frontier returns the lower bound on the First of any event the
// spatial stage will see after this point: the oldest still-queued
// temporal cluster's First, or the watermark when nothing is queued.
func (inc *Incremental) frontier() int64 {
	if len(inc.tQueue) > 0 {
		return inc.tQueue[0].ev.First.UnixNano()
	}
	return inc.watermark
}

// feedSpatial merges one final temporal event into the live spatial
// stage: into the code's latest cluster when the gap from its Last is
// at most SpatialWindow, else into a new cluster.
func (inc *Incremental) feedSpatial(ev *Event) {
	inc.growCode(ev.Code)
	cur := inc.sLast[ev.Code]
	// The !sealed guard never changes the outcome — a sealed cluster's
	// Last is more than SpatialWindow behind every future First by
	// construction — but keeps the immutability of sealed clusters a
	// local invariant instead of a cross-stage proof.
	if cur != nil && !cur.sealed && ev.First.Sub(cur.ev.Last) <= inc.cfg.SpatialWindow {
		if ev.Last.After(cur.ev.Last) {
			cur.ev.Last = ev.Last
		}
		cur.ev.Size += ev.Size
		cur.ev.Midplanes = mergeInts(cur.ev.Midplanes, ev.Midplanes)
		return
	}
	merged := &spatCluster{ev: Event{
		Code:      ev.Code,
		Component: ev.Component,
		First:     ev.First,
		Last:      ev.Last,
		Midplanes: append([]int(nil), ev.Midplanes...),
		Size:      ev.Size,
	}}
	inc.sLast[ev.Code] = merged
	inc.spatial = append(inc.spatial, merged)
	inc.countCausality(&merged.ev, inc.co, inc.total,
		spatialFirsts{live: inc.spatial, n: len(inc.spatial) - 1})
}

// growCode sizes the dense per-code state to admit code.
func (inc *Incremental) growCode(code symtab.ErrcodeID) {
	for int(code) >= len(inc.sLast) {
		inc.sLast = append(inc.sLast, nil)
		inc.total = append(inc.total, 0)
		inc.seen = append(inc.seen, 0)
	}
}

// spatialFirsts is the lookback view countCausality walks: the live
// spatial clusters (their First fields are immutable) optionally
// extended by a shadow tail during Snapshot.
type spatialFirsts struct {
	live []*spatCluster
	n    int // live prefix length to consider
	tail []*Event
}

func (s spatialFirsts) len() int { return s.n + len(s.tail) }

func (s spatialFirsts) at(i int) *Event {
	if i < s.n {
		return &s.live[i].ev
	}
	return s.tail[i-s.n]
}

// countCausality adds one new spatial cluster's contribution to the
// co-occurrence counts: total of its code, plus one co-occurrence per
// distinct earlier leader code within the causality window. The lookback reads only First fields,
// which are immutable, so counting at creation time equals mining the
// final list.
func (inc *Incremental) countCausality(ev *Event, co map[uint64]int, total []int, prev spatialFirsts) {
	total[ev.Code]++
	first := ev.First.UnixNano()
	inc.stamp++
	for j := prev.len() - 1; j >= 0; j-- {
		lead := prev.at(j)
		if first-lead.First.UnixNano() > int64(inc.cfg.CausalityWindow) {
			break
		}
		if lead.Code == ev.Code || inc.seen[lead.Code] == inc.stamp {
			continue
		}
		inc.seen[lead.Code] = inc.stamp
		co[packPair(lead.Code, ev.Code)]++
	}
}

// Snapshot finalizes the stream as if it ended now and returns the
// surviving events (time-ordered, immutable) and the cascade stats. The
// live clustering state is not modified: sealed spatial clusters are
// shared between snapshots, everything still mutable is cloned and the
// still-queued temporal clusters are flushed through shadow copies of
// the spatial and causality state.
func (inc *Incremental) Snapshot() ([]*Event, Stats) {
	// Clone every not-provably-sealed spatial cluster; the published
	// list swaps clones in for the live pointers.
	clones := make(map[*spatCluster]*Event)
	out := make([]*Event, len(inc.spatial), len(inc.spatial)+len(inc.tQueue))
	for i, c := range inc.spatial {
		if c.sealed {
			out[i] = &c.ev
			continue
		}
		cp := c.ev
		clones[c] = &cp
		out[i] = &cp
	}

	co := inc.co
	total := inc.total
	if len(inc.tQueue) > 0 {
		// Shadow-flush the still-queued temporal clusters, in creation
		// order, through the spatial merge — resolving each code's last
		// cluster through the clone map so merges land in the published
		// copies, never the live state. Causality counts for
		// shadow-created clusters accumulate into private copies.
		co = make(map[uint64]int, len(inc.co))
		for k, v := range inc.co {
			co[k] = v
		}
		total = append([]int(nil), inc.total...)
		shadowLast := make(map[symtab.ErrcodeID]*Event)
		last := func(code symtab.ErrcodeID) *Event {
			if ev, ok := shadowLast[code]; ok {
				return ev
			}
			if int(code) < len(inc.sLast) && inc.sLast[code] != nil {
				c := inc.sLast[code]
				if cl := clones[c]; cl != nil {
					return cl
				}
				// Sealed: immutable and more than a window behind every
				// queued First, so the merge test below always fails.
				return &c.ev
			}
			return nil
		}
		tail := make([]*Event, 0, len(inc.tQueue))
		for _, tc := range inc.tQueue {
			ev := tc.ev // struct copy; the live cluster may still grow
			if cur := last(ev.Code); cur != nil && ev.First.Sub(cur.Last) <= inc.cfg.SpatialWindow {
				if ev.Last.After(cur.Last) {
					cur.Last = ev.Last
				}
				cur.Size += ev.Size
				cur.Midplanes = mergeInts(cur.Midplanes, ev.Midplanes)
				continue
			}
			nc := &Event{
				Code:      ev.Code,
				Component: ev.Component,
				First:     ev.First,
				Last:      ev.Last,
				Midplanes: append([]int(nil), ev.Midplanes...),
				Size:      ev.Size,
			}
			for int(nc.Code) >= len(total) {
				total = append(total, 0)
				inc.seen = append(inc.seen, 0)
			}
			inc.countCausality(nc, co, total,
				spatialFirsts{live: inc.spatial, n: len(inc.spatial), tail: tail})
			shadowLast[nc.Code] = nc
			tail = append(tail, nc)
			out = append(out, nc)
		}
	}

	rules := rulesFromCounts(inc.cfg, co, total)
	events := causality(inc.cfg.CausalityWindow, rules, out, len(total))
	return events, Stats{
		Input:          inc.input,
		AfterTemporal:  inc.tCount,
		AfterSpatial:   len(out),
		AfterCausality: len(events),
	}
}
