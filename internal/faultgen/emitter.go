package faultgen

import (
	"math/rand"
	"slices"
	"time"

	"repro/internal/bgp"
	"repro/internal/errcat"
	"repro/internal/raslog"
)

// GroundFault is one ground-truth fatal occurrence: the oracle record
// tests score the analysis pipeline against. It never enters the
// pipeline itself.
type GroundFault struct {
	// Time is when the fault occurred.
	Time time.Time
	// Code is the ERRCODE type.
	Code errcat.Code
	// Midplane is the global midplane the fault struck (for shared-
	// file-system application errors it is the midplane of the job that
	// triggered it).
	Midplane int
	// InterruptedJobs lists the IDs of jobs this occurrence killed.
	InterruptedJobs []int64
	// Idle reports that no job was running at the fault location.
	Idle bool
	// Redundant marks occurrences that are ground-truth job-related
	// redundancy: the same underlying sticky failure or the same latent
	// bug re-reported through a later job.
	Redundant bool
}

// EmitterConfig controls the redundancy volume of the RAS stream.
type EmitterConfig struct {
	// DupMin and DupMax bound the temporal duplicates emitted per
	// reporting location (uniform draw).
	DupMin, DupMax int
	// StormSpread is the time window over which duplicates scatter.
	StormSpread time.Duration
	// LocationsPerMidplane is how many distinct sub-locations of an
	// affected midplane report the event (parallel jobs report from all
	// allocated nodes; we sample).
	LocationsPerMidplane int
	// MaxMidplanes caps how many midplanes of a wide job's partition
	// report (the rest are dropped by the control system's own
	// throttling).
	MaxMidplanes int
	// NoisePerFatal is the number of non-fatal background records
	// emitted per fatal record, reproducing the raw log's
	// 2,084,392-to-33,370 ratio (~62) at full scale.
	NoisePerFatal float64
}

// DefaultEmitterConfig mirrors the Intrepid record-volume ratios.
func DefaultEmitterConfig() EmitterConfig {
	return EmitterConfig{
		DupMin:               2,
		DupMax:               8,
		StormSpread:          4 * time.Minute,
		LocationsPerMidplane: 3,
		MaxMidplanes:         8,
		NoisePerFatal:        62,
	}
}

// Emitter generates RAS records. It assigns RecIDs sequentially in
// emission order; callers should sort the final stream by time and
// renumber via Renumber if they interleave sources.
type Emitter struct {
	cfg  EmitterConfig
	rng  *rand.Rand
	recs []raslog.Record
}

// NewEmitter returns an emitter with its own deterministic rng.
func NewEmitter(cfg EmitterConfig, seed int64) *Emitter {
	return &Emitter{cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// Records returns the emitted records (shared slice).
func (e *Emitter) Records() []raslog.Record { return e.recs }

// location picks a reporting location of the right hierarchy level for
// the code's component within midplane mp.
func (e *Emitter) location(code errcat.Code, mp int) bgp.Location {
	switch code.Component {
	case raslog.CompCard:
		switch e.rng.Intn(3) {
		case 0:
			return bgp.ServiceCardLocation(mp)
		case 1:
			return bgp.LinkCardLocation(mp, e.rng.Intn(bgp.LinkCardsPerMidplane))
		default:
			return bgp.NodeCardLocation(mp, e.rng.Intn(bgp.NodeCardsPerMidplane))
		}
	case raslog.CompKernel, raslog.CompDiags:
		return bgp.ComputeNodeLocation(mp, e.rng.Intn(bgp.NodeCardsPerMidplane), e.rng.Intn(bgp.NodesPerNodeCard))
	case raslog.CompMC, raslog.CompBareMetal:
		return bgp.ServiceCardLocation(mp)
	default: // MMCS and anything else reports at midplane granularity
		return bgp.MidplaneLocation(mp)
	}
}

// EmitFault emits the redundant record storm for one fatal occurrence
// across the affected midplanes (the faulty midplane plus, when a
// parallel job was interrupted, the job's whole partition). The first
// midplane is treated as the fault's origin and always reports; when
// the list exceeds MaxMidplanes (control-system throttling), the
// remainder is sampled uniformly rather than truncated, so wide-job
// storms are not biased toward partition starts.
func (e *Emitter) EmitFault(at time.Time, code errcat.Code, midplanes []int) {
	if len(midplanes) == 0 {
		return
	}
	mps := midplanes
	if len(mps) > e.cfg.MaxMidplanes {
		sampled := make([]int, 0, e.cfg.MaxMidplanes)
		sampled = append(sampled, mps[0])
		rest := append([]int(nil), mps[1:]...)
		e.rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
		sampled = append(sampled, rest[:e.cfg.MaxMidplanes-1]...)
		mps = sampled
	}
	for _, mp := range mps {
		nLoc := 1 + e.rng.Intn(e.cfg.LocationsPerMidplane)
		for l := 0; l < nLoc; l++ {
			loc := e.location(code, mp)
			dups := e.cfg.DupMin
			if e.cfg.DupMax > e.cfg.DupMin {
				dups += e.rng.Intn(e.cfg.DupMax - e.cfg.DupMin + 1)
			}
			for d := 0; d < dups; d++ {
				off := time.Duration(e.rng.Float64() * float64(e.cfg.StormSpread))
				if d == 0 {
					off = 0
				}
				e.append(raslog.Record{
					MsgID:        code.MsgID,
					Component:    code.Component,
					SubComponent: code.SubComponent,
					ErrCode:      code.Name,
					Severity:     raslog.SevFatal,
					EventTime:    at.Add(off),
					Flags:        "DefaultControlEventListener",
					Location:     loc.String(),
					Serial:       e.serial(),
					Message:      code.Message,
				})
			}
		}
	}
}

// EmitNoise emits the non-fatal background volume for a campaign
// spanning [start, end): INFO/WARNING/ERROR records at random
// locations, volume NoisePerFatal × nFatal.
func (e *Emitter) EmitNoise(start, end time.Time, nFatal int) {
	n := int(e.cfg.NoisePerFatal * float64(nFatal))
	span := end.Sub(start)
	if n <= 0 || span <= 0 {
		return
	}
	e.recs = slices.Grow(e.recs, n)
	sevs := []raslog.Severity{raslog.SevInfo, raslog.SevWarning, raslog.SevError}
	sevW := []float64{0.62, 0.30, 0.08}
	kinds := []struct {
		comp  raslog.Component
		msgID string
		code  string
		sub   string
		msg   string
	}{
		{raslog.CompMMCS, "MMCS_INFO_01", "boot_progress", "BOOT", "partition boot progress"},
		{raslog.CompKernel, "KERN_INFO_02", "ecc_corrected", "DDR", "correctable ECC single-symbol error"},
		{raslog.CompCard, "CARD_INFO_03", "env_reading", "ENV", "environmental reading out of nominal band"},
		{raslog.CompMC, "MC_INFO_04", "pgood_transition", "PGOOD", "power-good transition"},
		{raslog.CompKernel, "KERN_WARN_05", "torus_retransmit", "TORUS", "torus link retransmit"},
		{raslog.CompBareMetal, "BM_INFO_06", "svc_action", "SVC", "service action logged"},
	}
	for i := 0; i < n; i++ {
		u := e.rng.Float64()
		sev := sevs[2]
		switch {
		case u < sevW[0]:
			sev = sevs[0]
		case u < sevW[0]+sevW[1]:
			sev = sevs[1]
		}
		k := kinds[e.rng.Intn(len(kinds))]
		mp := e.rng.Intn(bgp.NumMidplanes)
		var loc bgp.Location
		if e.rng.Intn(2) == 0 {
			loc = bgp.ComputeNodeLocation(mp, e.rng.Intn(bgp.NodeCardsPerMidplane), e.rng.Intn(bgp.NodesPerNodeCard))
		} else {
			loc = bgp.NodeCardLocation(mp, e.rng.Intn(bgp.NodeCardsPerMidplane))
		}
		e.append(raslog.Record{
			MsgID:        k.msgID,
			Component:    k.comp,
			SubComponent: k.sub,
			ErrCode:      k.code,
			Severity:     sev,
			EventTime:    start.Add(time.Duration(e.rng.Float64() * float64(span))),
			Flags:        "DefaultControlEventListener",
			Location:     loc.String(),
			Serial:       e.serial(),
			Message:      k.msg,
		})
	}
}

func (e *Emitter) append(r raslog.Record) {
	r.RecID = int64(len(e.recs) + 1)
	e.recs = append(e.recs, r)
}

// serial draws a hardware serial number, 44V<7 digits>K<4 digits>.
func (e *Emitter) serial() string {
	return formatSerial(e.rng.Intn(1e7), e.rng.Intn(1e4))
}

// formatSerial is fmt.Sprintf("44V%07dK%04d", hi, lo) for hi in
// [0, 1e7) and lo in [0, 1e4), written into a fixed array so the two
// ints are not boxed.
func formatSerial(hi, lo int) string {
	b := [15]byte{'4', '4', 'V', 10: 'K'}
	for i := 9; i >= 3; i-- {
		b[i] = byte('0' + hi%10)
		hi /= 10
	}
	for i := 14; i >= 11; i-- {
		b[i] = byte('0' + lo%10)
		lo /= 10
	}
	return string(b[:])
}

// Renumber sorts recs into (EventTime, RecID) order, input order among
// full ties, and reassigns sequential RecIDs, matching the append-order
// semantics of the real log. It takes ownership of recs: it sorts and
// renumbers them in place and returns the same slice, so the caller
// must not read recs through another reference afterwards. The result
// is already in the order raslog.NewStore keeps, so a store over it
// neither sorts nor copies it.
func Renumber(recs []raslog.Record) []raslog.Record {
	raslog.SortStable(recs)
	for i := range recs {
		recs[i].RecID = int64(i + 1)
	}
	return recs
}
