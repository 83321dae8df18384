package symtab

import (
	"sync"
	"testing"
)

func TestDictFirstSeenOrder(t *testing.T) {
	var d Dict[ErrcodeID]
	names := []string{"b", "a", "c", "a", "b", "d"}
	want := []ErrcodeID{0, 1, 2, 1, 0, 3}
	for i, n := range names {
		if got := d.Intern(n); got != want[i] {
			t.Fatalf("Intern(%q) #%d = %d, want %d", n, i, got, want[i])
		}
	}
	if d.Len() != 4 {
		t.Fatalf("Len = %d, want 4", d.Len())
	}
	for _, n := range []string{"b", "a", "c", "d"} {
		id, ok := d.Lookup(n)
		if !ok {
			t.Fatalf("Lookup(%q) missing", n)
		}
		if d.Name(id) != n {
			t.Fatalf("Name(Lookup(%q)) = %q", n, d.Name(id))
		}
	}
	if _, ok := d.Lookup("nope"); ok {
		t.Fatal("Lookup of uninterned name succeeded")
	}
}

func TestInt64DictRoundTrip(t *testing.T) {
	var d Int64Dict[JobID]
	keys := []int64{42, 7, 42, -1, 7}
	want := []JobID{0, 1, 0, 2, 1}
	for i, k := range keys {
		if got := d.Intern(k); got != want[i] {
			t.Fatalf("Intern(%d) #%d = %d, want %d", k, i, got, want[i])
		}
	}
	if d.Len() != 3 {
		t.Fatalf("Len = %d, want 3", d.Len())
	}
	for id := JobID(0); int(id) < d.Len(); id++ {
		back, ok := d.Lookup(d.Key(id))
		if !ok || back != id {
			t.Fatalf("Lookup(Key(%d)) = %d, %v", id, back, ok)
		}
	}
}

// TestFreezeIsImmutable pins the snapshot contract: interning into the
// live table after Freeze must not change what the snapshot sees.
func TestFreezeIsImmutable(t *testing.T) {
	tab := NewTable()
	tab.Errcodes.Intern("x")
	tab.Jobs.Grow(4)
	tab.Jobs.Intern(9)
	tab.Execs.Intern("/bin/a")
	snap := tab.Freeze()

	// The job view shares its dictionary's backing array, and Grow left
	// room past the snapshot's length: this intern writes there without
	// reallocating.
	tab.Errcodes.Intern("y")
	tab.Jobs.Intern(10)
	tab.Execs.Intern("/bin/b")

	if snap.Errcodes.Len() != 1 {
		t.Fatalf("snapshot Errcodes.Len = %d, want 1", snap.Errcodes.Len())
	}
	if _, ok := snap.Errcodes.Lookup("y"); ok {
		t.Fatal("snapshot sees post-freeze intern")
	}
	if snap.Jobs.Len() != 1 {
		t.Fatalf("snapshot Jobs.Len = %d, want 1", snap.Jobs.Len())
	}
	if got := snap.Errcodes.All(); len(got) != 1 || got[0] != "x" {
		t.Fatalf("snapshot All = %v, want [x]", got)
	}
	if got := snap.Jobs.All(); len(got) != 1 || cap(got) != 1 || got[0] != 9 || snap.Jobs.Key(0) != 9 {
		t.Fatalf("snapshot Jobs.All = %v (cap %d), want [9] clipped", got, cap(got))
	}
	if got := snap.Execs.All(); len(got) != 1 || cap(got) != 1 || snap.Execs.Name(0) != "/bin/a" || snap.Execs.Len() != 1 {
		t.Fatalf("snapshot Execs.All = %v (cap %d), want [/bin/a] clipped", got, cap(got))
	}
	// An append through a view must not reach the live dictionary.
	_ = append(snap.Execs.All(), "/bin/c")
	if tab.Execs.Name(1) != "/bin/b" {
		t.Fatalf("live Execs.Name(1) = %q after an append to the snapshot's slice", tab.Execs.Name(1))
	}
}

// TestFreezeConcurrentReaders exercises the race the snapshot exists to
// prevent: readers on the frozen view while the live table keeps
// interning. Run under -race this is a hard check, not just a smoke
// test.
func TestFreezeConcurrentReaders(t *testing.T) {
	tab := NewTable()
	tab.Jobs.Grow(20000)
	for i := 0; i < 64; i++ {
		tab.Errcodes.Intern(string(rune('a' + i%26)))
		tab.Execs.Intern(string(rune('a' + i%26)))
		tab.Jobs.Intern(int64(-i))
	}
	snap := tab.Freeze()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				for id := ErrcodeID(0); int(id) < snap.Errcodes.Len(); id++ {
					if got, ok := snap.Errcodes.Lookup(snap.Errcodes.Name(id)); !ok || got != id {
						t.Errorf("round trip failed for id %d", id)
						return
					}
				}
				// The job and executable views read the live
				// dictionaries' backing arrays, which the writer below
				// appends to in place until they reallocate.
				for id := ExecID(0); int(id) < snap.Execs.Len(); id++ {
					if snap.Execs.Name(id) != string(rune('a'+int(id)%26)) {
						t.Errorf("Execs.Name(%d) = %q", id, snap.Execs.Name(id))
						return
					}
				}
				for id := JobID(0); int(id) < snap.Jobs.Len(); id++ {
					if snap.Jobs.Key(id) != int64(-id) {
						t.Errorf("Jobs.Key(%d) = %d", id, snap.Jobs.Key(id))
						return
					}
				}
			}
		}()
	}
	// Keep growing the live table while the readers run.
	for i := 0; i < 10000; i++ {
		tab.Errcodes.Intern(string(rune('A' + i%26)))
		tab.Locations.Intern("R00-M0")
		tab.Execs.Intern(string(rune('A' + i%26)))
		tab.Jobs.Intern(int64(i + 1))
	}
	wg.Wait()
}
