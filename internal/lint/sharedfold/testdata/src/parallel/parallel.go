// Fixture stub of the repo's internal/parallel pool: sharedfold
// matches pool entry points by package name + function name, so this
// stub triggers it exactly like the real package.
package parallel

func ForEach(workers, n int, fn func(i int) error) error {
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}

func Map(workers, n int, fn func(i int) (int, error)) ([]int, error) {
	out := make([]int, n)
	err := ForEach(workers, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v // index-keyed slot: the sanctioned write
		return nil
	})
	return out, err
}
