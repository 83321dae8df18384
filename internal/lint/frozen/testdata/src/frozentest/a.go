// Positive and negative cases for frozen: post-freeze mutation,
// mutating-method calls on frozen values, freezer-body alias escapes,
// and constructor parameter leaks.
package frozentest

// Table freezes into Snap; names/index are its mutable internals.
type Table struct {
	names []string
	index map[string]int
}

// Snap is the frozen form.
type Snap struct {
	Names []string
	Index map[string]int
}

// Freeze copies its internals: a clean freezer.
func (t *Table) Freeze() *Snap {
	return &Snap{
		Names: append([]string(nil), t.names...),
		Index: cloneMap(t.index),
	}
}

// Sealed hands out the raw names slice: the classic alias escape.
func (t *Table) Sealed() []string {
	return t.names // want `freezer Sealed: mutable field names returned without a copy`
}

// Snapshot stores the raw index map in the result literal.
func (t *Table) Snapshot() *Snap {
	return &Snap{
		Names: append([]string(nil), t.names...),
		Index: t.index, // want `freezer Snapshot: mutable field index stored in a composite literal without a copy`
	}
}

func cloneMap(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Bad mutates a frozen value: field/element writes and delete.
func Bad(t *Table) *Snap {
	s := t.Freeze()
	s.Names[0] = "x"     // want `write through frozen value of s, frozen by Freeze`
	s.Index["k"] = 1     // want `write through frozen value of s, frozen by Freeze`
	delete(s.Index, "k") // want `delete from frozen value of s, frozen by Freeze`
	return s
}

// Rebind shows that re-binding the variable itself is allowed: only
// writes *through* the frozen value are mutations.
func Rebind(t *Table) *Snap {
	s := t.Freeze()
	s = t.Freeze()
	return s
}

// ReadOnly uses of a frozen value are fine.
func ReadOnly(t *Table) int {
	s := t.Freeze()
	return len(s.Names) + s.Index["k"]
}

// Seg/Set model a segment store: Append mutates the
// receiver, Seal is a freezer, so Append-after-Seal is flagged via
// MutatesFact.
type Seg struct {
	rows []int
}

func (s *Seg) Append(v int) { s.rows = append(s.rows, v) }

func (s *Seg) Len() int { return len(s.rows) }

// Set owns segments; Seal freezes the active one.
type Set struct {
	segs   []*Seg
	active *Seg
}

func (ss *Set) Seal() *Seg {
	s := ss.active
	if s == nil {
		return nil
	}
	ss.segs = append(ss.segs, s)
	ss.active = nil
	return s
}

func BadAppend(ss *Set) {
	s := ss.Seal()
	s.Append(1) // want `call of mutating method Append on frozen value of s, frozen by Seal`
}

func OKLen(ss *Set) int {
	s := ss.Seal()
	return s.Len()
}

// NewTable leaks its caller-owned slice into the freezable Table;
// NewSafeTable copies it.
func NewTable(names []string) *Table {
	return &Table{names: names} // want `constructor NewTable stores caller-owned parameter names in to-be-frozen Table`
}

func NewSafeTable(names []string) *Table {
	return &Table{names: append([]string(nil), names...)}
}
