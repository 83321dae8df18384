// Fixture for the sharedfold analyzer: tasks must write index-keyed
// slots, never captured shared state.
package sharedfoldtest

import "parallel"

func goodIndexedSlots(n int) ([]int, error) {
	out := make([]int, n)
	err := parallel.ForEach(0, n, func(i int) error {
		out[i] = i * i // ok: index-keyed slot
		return nil
	})
	return out, err
}

func goodTaskLocal(n int) error {
	return parallel.ForEach(0, n, func(i int) error {
		acc := 0
		for j := 0; j < i; j++ {
			acc += j // ok: task-local accumulator
		}
		_ = acc
		return nil
	})
}

func badAppend(n int) []int {
	var out []int
	_ = parallel.ForEach(0, n, func(i int) error {
		out = append(out, i) // want `assignment to captured variable out`
		return nil
	})
	return out
}

func badFold(n int) int {
	sum := 0
	_ = parallel.ForEach(0, n, func(i int) error {
		sum += i // want `assignment to captured variable sum`
		return nil
	})
	return sum
}

func badIncrement(n int) int {
	count := 0
	_ = parallel.ForEach(0, n, func(i int) error {
		count++ // want `increment of captured variable count`
		return nil
	})
	return count
}

func badMapWrite(n int) map[int]int {
	m := make(map[int]int)
	_ = parallel.ForEach(0, n, func(i int) error {
		m[i] = i // want `concurrent map write`
		return nil
	})
	return m
}

func badNestedClosure(n int) int {
	total := 0
	_ = parallel.ForEach(0, n, func(i int) error {
		add := func(v int) {
			total += v // want `assignment to captured variable total`
		}
		add(i)
		return nil
	})
	return total
}

func goodMapHelper(n int) ([]int, error) {
	return parallel.Map(0, n, func(i int) (int, error) {
		return 2 * i, nil // ok: results merge through return values
	})
}
