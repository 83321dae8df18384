package store

// Spool is the bounded-memory run writer behind coanalyze -mem-budget:
// an external merge sort whose runs are segment files. Rows arrive in
// file order (not time order); the spool buffers them, and whenever the
// buffered payload exceeds the budget it stable-sorts the larger class
// buffer by (time, RecID) and commits it as one segment-file run. The
// catalog of runs then merges back into one time-ordered stream.
// coanalyze counts the noise records at decode and spools only the
// FATAL rows the cascade reads, so its budget bounds the FATAL payload
// and every one of its runs is a fatal run.
//
// Rows are partitioned into two class buffers — fatal and non-fatal —
// so each run is pure-class, for callers that do spool noise. That is
// what gives the zone maps something to refute: the filter cascade's
// query carries the FATAL severity mask, so every noise run is skipped
// from its header alone, and only fatal runs are reopened and merged.
//
// Determinism: within a class, rows flush in arrival order and each run
// is stable-sorted, so rows with equal (time, RecID) keys appear in
// arrival order within a run and runs are cataloged in flush order —
// the merge's tie-break by catalog position therefore reproduces the
// exact order a single stable sort of the whole input would give.
// Across classes the order of equal keys is not preserved, which is
// invisible to the cascade: its query admits one class only.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/symtab"
)

// SpoolStats describes what a spool did, for the -mem-budget summary
// line (and the CI assertion that a budgeted run actually spilled).
type SpoolStats struct {
	// Rows is the total rows added.
	Rows int64
	// Runs is the number of run files committed.
	Runs int
	// Flushes is how many runs were forced out by the budget (Finish's
	// final flushes are not counted).
	Flushes int
	// SpilledBytes is the total size of the committed run files.
	SpilledBytes int64
}

// spoolBuf buffers one class of rows in arrival order. Code and
// location names are interned on arrival into per-buffer dictionaries
// (so the buffer holds integers, not strings) and remapped to the
// sorted first-seen numbering at flush time.
type spoolBuf struct {
	recID, timeNS []int64
	code          []symtab.ErrcodeID
	loc           []symtab.LocationID
	comp, sev     []int32
	codes         symtab.Dict[symtab.ErrcodeID]
	locs          symtab.Dict[symtab.LocationID]
	weight        int64
}

func (b *spoolBuf) add(recID, timeNS int64, code, loc string, comp, sev int32, weight int64) {
	b.recID = append(b.recID, recID)
	b.timeNS = append(b.timeNS, timeNS)
	b.code = append(b.code, b.codes.Intern(code))
	b.loc = append(b.loc, b.locs.Intern(loc))
	b.comp = append(b.comp, comp)
	b.sev = append(b.sev, sev)
	b.weight += weight
}

func (b *spoolBuf) reset() {
	b.recID = b.recID[:0]
	b.timeNS = b.timeNS[:0]
	b.code = b.code[:0]
	b.loc = b.loc[:0]
	b.comp = b.comp[:0]
	b.sev = b.sev[:0]
	b.codes = symtab.Dict[symtab.ErrcodeID]{}
	b.locs = symtab.Dict[symtab.LocationID]{}
	b.weight = 0
}

// Spool accumulates rows and spills sorted runs once the buffered
// payload exceeds Budget. Create with NewSpool, Add every row, then
// Finish to flush the tails and open the catalog of runs.
type Spool struct {
	dir    string
	budget int64

	fatal spoolBuf
	noise spoolBuf

	seq   int
	stats SpoolStats
	done  bool
}

// NewSpool returns a spool writing its runs under dir. A budget <= 0
// means unbounded buffering: Finish writes at most one run per class.
func NewSpool(dir string, budget int64) *Spool {
	return &Spool{dir: dir, budget: budget}
}

// Add buffers one row. fatal selects the class buffer; weight is the
// row's contribution to the budget (the caller's currency — coanalyze
// uses the record's encoded line length). When the buffered weight
// exceeds the budget, the larger buffer is flushed to a run.
func (sp *Spool) Add(recID, timeNS int64, code, loc string, comp, sev int32, fatal bool, weight int64) error {
	if sp.done {
		return fmt.Errorf("store: Add after Finish")
	}
	b := &sp.noise
	if fatal {
		b = &sp.fatal
	}
	b.add(recID, timeNS, code, loc, comp, sev, weight)
	sp.stats.Rows++
	if sp.budget > 0 && sp.fatal.weight+sp.noise.weight > sp.budget {
		big := &sp.fatal
		if sp.noise.weight > sp.fatal.weight {
			big = &sp.noise
		}
		sp.stats.Flushes++
		if err := sp.flush(big); err != nil {
			return err
		}
	}
	return nil
}

// flush stable-sorts b by (time, RecID), remaps its arrival-order local
// IDs to the sorted first-seen numbering the segment format requires,
// and commits the run.
func (sp *Spool) flush(b *spoolBuf) error {
	n := len(b.recID)
	if n == 0 {
		return nil
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		i, j := order[x], order[y]
		if b.timeNS[i] != b.timeNS[j] {
			return b.timeNS[i] < b.timeNS[j]
		}
		return b.recID[i] < b.recID[j]
	})
	d := &SegmentData{Seq: sp.seq, Events: *NewEvents(n)}
	codeMap := make([]symtab.ErrcodeID, b.codes.Len())
	locMap := make([]symtab.LocationID, b.locs.Len())
	for i := range codeMap {
		codeMap[i] = symtab.NoErrcode
	}
	for i := range locMap {
		locMap[i] = symtab.NoLocation
	}
	for k, i := range order {
		t := b.timeNS[i]
		if k == 0 || t < d.MinTime {
			d.MinTime = t
		}
		if k == 0 || t > d.MaxTime {
			d.MaxTime = t
		}
		if c := b.comp[i]; c >= 0 && c < 64 {
			d.CompBits |= 1 << uint(c)
		}
		if s := b.sev[i]; s >= 0 && s < 64 {
			d.SevBits |= 1 << uint(s)
		}
		lc := codeMap[b.code[i]]
		if lc == symtab.NoErrcode {
			lc = symtab.ErrcodeID(len(d.Codes))
			codeMap[b.code[i]] = lc
			d.Codes = append(d.Codes, b.codes.Name(b.code[i]))
		}
		ll := locMap[b.loc[i]]
		if ll == symtab.NoLocation {
			ll = symtab.LocationID(len(d.Locs))
			locMap[b.loc[i]] = ll
			d.Locs = append(d.Locs, b.locs.Name(b.loc[i]))
		}
		d.Events.Append(b.recID[i], t, lc, ll, b.comp[i], b.sev[i])
	}
	path := filepath.Join(sp.dir, SegmentFileName(sp.seq))
	if err := CommitSegment(path, d); err != nil {
		return err
	}
	sp.seq++
	sp.stats.Runs++
	if st, err := os.Stat(path); err == nil {
		sp.stats.SpilledBytes += st.Size()
	}
	b.reset()
	return nil
}

// Finish flushes the remaining class buffers and opens the catalog of
// committed runs. The spool cannot be used afterwards.
func (sp *Spool) Finish() (*Catalog, SpoolStats, error) {
	if sp.done {
		return nil, sp.stats, fmt.Errorf("store: Finish called twice")
	}
	sp.done = true
	if err := sp.flush(&sp.fatal); err != nil {
		return nil, sp.stats, err
	}
	if err := sp.flush(&sp.noise); err != nil {
		return nil, sp.stats, err
	}
	cat, err := OpenCatalog(sp.dir)
	if err != nil {
		return nil, sp.stats, err
	}
	return cat, sp.stats, nil
}

// Stats returns the spool's counters so far.
func (sp *Spool) Stats() SpoolStats { return sp.stats }
