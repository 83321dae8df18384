// Package symtab provides per-kind interning dictionaries that map the
// analysis stack's small closed vocabularies — ERRCODEs, location
// codes, job executables, scheduler job IDs — to dense typed integer
// IDs. Every layer above the codec groups, joins and filters by these
// fields; interning them once turns every hot grouping path from
// string-hashed to integer-keyed (see DESIGN.md "Symbol dictionaries
// and the columnar store").
//
// Determinism is load-bearing: IDs are assigned in first-seen order, so
// any two runs that intern the same names in the same sequence produce
// the same numbering. The pipeline guarantees that sequence regardless
// of the -parallelism knob: the filter cascade interns each record's
// ERRCODE, then its location, in time-sorted record order
// (filter.Incremental.Feed), and the analysis interns jobs in byEnd
// order (core.AnalyzeStream).
//
// The distinct ID types exist so the idkind analyzer (and the compiler)
// can reject cross-kind mixups like indexing an ErrcodeID-keyed column
// with a LocationID.
package symtab

// ErrcodeID identifies an interned ERRCODE (the paper's 82-entry event
// vocabulary).
type ErrcodeID int32

// LocationID identifies an interned location code string.
type LocationID int32

// ExecID identifies an interned job executable path (the distinct-job
// key).
type ExecID int32

// JobID identifies an interned scheduler job sequence number. The
// analyzer interns jobs in joblog.Log.All() (byEnd) order, so a JobID
// doubles as the job's index into that slice.
type JobID int32

// The No* sentinels mean "no symbol of this kind"; dictionaries only
// ever issue non-negative IDs.
const (
	NoErrcode  ErrcodeID  = -1
	NoLocation LocationID = -1
	NoExec     ExecID     = -1
	NoJob      JobID      = -1
)

// Dict is a string-interning dictionary producing dense IDs of type T:
// the first distinct name interned gets ID 0, the next 1, and so on.
// Intern, Lookup and Name are O(1). The zero value is ready to use.
// A Dict is not safe for concurrent mutation; Freeze the enclosing
// Table for a concurrently readable view.
type Dict[T ~int32] struct {
	ids   map[string]T
	names []string
}

// dictHint is the size a Dict starts at on its first Intern.
const dictHint = 64

// Intern returns the ID for name, assigning the next dense ID on first
// sight.
func (d *Dict[T]) Intern(name string) T {
	if id, ok := d.ids[name]; ok {
		return id
	}
	if d.ids == nil {
		// The name slice starts at the map's size hint too, so the first
		// 64 names cost no regrowth.
		d.ids = make(map[string]T, dictHint)
		d.names = make([]string, 0, dictHint)
	}
	id := T(len(d.names))
	d.ids[name] = id
	d.names = append(d.names, name)
	return id
}

// Lookup returns the ID for name without interning it.
func (d *Dict[T]) Lookup(name string) (T, bool) {
	id, ok := d.ids[name]
	return id, ok
}

// Name resolves an ID back to its name; it panics on an ID this Dict
// never issued (IDs are dense, so that is always a cross-table bug).
func (d *Dict[T]) Name(id T) string { return d.names[id] }

// Len returns the number of distinct names interned. Issued IDs are
// exactly 0..Len()-1.
func (d *Dict[T]) Len() int { return len(d.names) }

// Names returns the interned names in ID order (Names()[id] ==
// Name(id)). The slice is clipped (cap == len), so an append by the
// caller reallocates instead of aliasing the dictionary's backing
// array; the strings themselves are shared. The segmented store uses
// this to emit a segment's local vocabulary as its symtab delta.
func (d *Dict[T]) Names() []string { return d.names[:len(d.names):len(d.names)] }

// Int64Dict is Dict for int64-keyed vocabularies (scheduler job
// sequence numbers).
type Int64Dict[T ~int32] struct {
	ids  map[int64]T
	keys []int64
}

// Intern returns the ID for key, assigning the next dense ID on first
// sight.
func (d *Int64Dict[T]) Intern(key int64) T {
	if id, ok := d.ids[key]; ok {
		return id
	}
	if d.ids == nil {
		d.ids = make(map[int64]T, 64)
	}
	id := T(len(d.keys))
	d.ids[key] = id
	d.keys = append(d.keys, key)
	return id
}

// Grow sizes an empty dictionary for n keys, so that many first
// sightings intern without regrowing its map or key slice. On a
// dictionary that already holds keys it does nothing; Intern grows it
// as needed.
func (d *Int64Dict[T]) Grow(n int) {
	if d.ids == nil && n > 0 {
		d.ids = make(map[int64]T, n)
		d.keys = make([]int64, 0, n)
	}
}

// Lookup returns the ID for key without interning it.
func (d *Int64Dict[T]) Lookup(key int64) (T, bool) {
	id, ok := d.ids[key]
	return id, ok
}

// Key resolves an ID back to its int64 key; it panics on an ID this
// dictionary never issued.
func (d *Int64Dict[T]) Key(id T) int64 { return d.keys[id] }

// Len returns the number of distinct keys interned.
func (d *Int64Dict[T]) Len() int { return len(d.keys) }

// Table groups the four dictionaries one analysis run shares. Create
// one per run with NewTable, intern while building, then Freeze for
// the report boundary.
type Table struct {
	Errcodes  Dict[ErrcodeID]
	Locations Dict[LocationID]
	Execs     Dict[ExecID]
	Jobs      Int64Dict[JobID]
}

// NewTable returns an empty table.
func NewTable() *Table { return &Table{} }

// Clone returns an independent deep copy of the table. The serving
// layer clones the live ingest table at epoch publication so a
// published analysis can keep resolving names and lengths while the
// live table goes on interning: the clone never changes again, which
// makes it safe for the epoch's concurrent readers.
func (t *Table) Clone() *Table {
	c := NewTable()
	cloneDict(&c.Errcodes, &t.Errcodes)
	cloneDict(&c.Locations, &t.Locations)
	cloneDict(&c.Execs, &t.Execs)
	c.Jobs.keys = append([]int64(nil), t.Jobs.keys...)
	if t.Jobs.ids != nil {
		c.Jobs.ids = make(map[int64]JobID, len(t.Jobs.ids))
		for k, v := range t.Jobs.ids {
			c.Jobs.ids[k] = v
		}
	}
	return c
}

func cloneDict[T ~int32](dst, src *Dict[T]) {
	dst.names = append([]string(nil), src.names...)
	if src.ids != nil {
		dst.ids = make(map[string]T, len(src.ids))
		for k, v := range src.ids {
			dst.ids[k] = v
		}
	}
}

// Freeze returns an immutable snapshot of the table, safe for any
// number of concurrent readers even while the live table keeps
// interning. It reflects exactly the IDs issued before the call. The
// code and location views copy their dictionaries, since readers look
// names up in them. The executable and job views only resolve IDs, so
// they keep the live dictionaries' name and key slices clipped to their
// current length (s[:n:n]) and copy no map: interning later appends
// past n, where the view never reads, or into a new backing array.
func (t *Table) Freeze() *Snapshot {
	return &Snapshot{
		Errcodes:  freezeDict(&t.Errcodes),
		Locations: freezeDict(&t.Locations),
		Execs:     NameView[ExecID]{names: t.Execs.Names()},
		Jobs:      Int64View[JobID]{keys: t.Jobs.keys[:len(t.Jobs.keys):len(t.Jobs.keys)]},
	}
}

// Snapshot is a frozen, read-only view of a Table. All methods are safe
// for concurrent use.
type Snapshot struct {
	Errcodes  View[ErrcodeID]
	Locations View[LocationID]
	Execs     NameView[ExecID]
	Jobs      Int64View[JobID]
}

// View is the read-only form of a Dict.
type View[T ~int32] struct {
	ids   map[string]T
	names []string
}

func freezeDict[T ~int32](d *Dict[T]) View[T] {
	ids := make(map[string]T, len(d.ids))
	for k, v := range d.ids {
		ids[k] = v
	}
	return View[T]{ids: ids, names: append([]string(nil), d.names...)}
}

// Lookup returns the ID for name.
func (v View[T]) Lookup(name string) (T, bool) {
	id, ok := v.ids[name]
	return id, ok
}

// Name resolves an ID back to its name; it panics on an ID the frozen
// table never issued.
func (v View[T]) Name(id T) string { return v.names[id] }

// Len returns the number of names in the view.
func (v View[T]) Len() int { return len(v.names) }

// All returns the names in ID order (All()[id] == Name(id)). The slice
// is owned by the view; callers must not mutate it.
func (v View[T]) All() []string { return v.names }

// NameView is the ID-to-name half of a frozen Dict: it resolves IDs to
// names but cannot look a name up.
type NameView[T ~int32] struct {
	names []string
}

// Name resolves an ID back to its name; it panics on an ID the frozen
// table never issued.
func (v NameView[T]) Name(id T) string { return v.names[id] }

// Len returns the number of names in the view.
func (v NameView[T]) Len() int { return len(v.names) }

// All returns the names in ID order. The slice is shared with the live
// dictionary's prefix; callers must not mutate it.
func (v NameView[T]) All() []string { return v.names }

// Int64View is the ID-to-key half of a frozen Int64Dict: it resolves
// IDs to keys but cannot look a key up.
type Int64View[T ~int32] struct {
	keys []int64
}

// Key resolves an ID back to its int64 key.
func (v Int64View[T]) Key(id T) int64 { return v.keys[id] }

// Len returns the number of keys in the view.
func (v Int64View[T]) Len() int { return len(v.keys) }

// All returns the keys in ID order. The slice is shared with the live
// dictionary's prefix; callers must not mutate it.
func (v Int64View[T]) All() []int64 { return v.keys }
