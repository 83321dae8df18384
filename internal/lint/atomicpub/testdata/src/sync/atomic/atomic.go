// Stub of the standard sync/atomic package for the atomicpub
// fixtures: the analyzer matches types and methods by package path
// only, so these shells keep fixture type-checking hermetic and fast.
package atomic

// Pointer is a stub of atomic.Pointer[T].
type Pointer[T any] struct{ p *T }

func (x *Pointer[T]) Load() *T     { return x.p }
func (x *Pointer[T]) Store(v *T)   { x.p = v }
func (x *Pointer[T]) Swap(v *T) *T { old := x.p; x.p = v; return old }
func (x *Pointer[T]) CompareAndSwap(old, new *T) bool {
	if x.p == old {
		x.p = new
		return true
	}
	return false
}

// Value is a stub of atomic.Value.
type Value struct{ v any }

func (v *Value) Load() any   { return v.v }
func (v *Value) Store(x any) { v.v = x }

// Int64 is a stub of atomic.Int64.
type Int64 struct{ v int64 }

func (x *Int64) Load() int64       { return x.v }
func (x *Int64) Store(v int64)     { x.v = v }
func (x *Int64) Add(d int64) int64 { x.v += d; return x.v }
