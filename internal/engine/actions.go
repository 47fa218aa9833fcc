package engine

import "errors"

// ErrEmpty is returned by Reduce on an empty dataset.
var ErrEmpty = errors.New("engine: empty dataset")

// Collect launches a job and returns all elements (driver-side).
func Collect[T any](d Dataset[T]) ([]T, error) {
	parts, err := d.s.runJob(d.n)
	if err != nil {
		return nil, err
	}
	var total int
	for _, p := range parts {
		total += batchLen(p)
	}
	out := make([]T, 0, total)
	for _, p := range parts {
		out = append(out, elems[T](p)...)
	}
	return out, nil
}

// Count launches a job and returns the number of elements.
func Count[T any](d Dataset[T]) (int64, error) {
	parts, err := d.s.runJob(d.n)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, p := range parts {
		n += int64(batchLen(p))
	}
	return n, nil
}

// Reduce launches a job and folds all elements with f. The fold runs on
// the driver, outside any task; a panic in f is the action's error.
func Reduce[T any](d Dataset[T], f func(T, T) T) (res T, err error) {
	var zero T
	parts, err := d.s.runJob(d.n)
	if err != nil {
		return zero, err
	}
	defer func() {
		if r := recover(); r != nil {
			res, err = zero, panicError("the reduce function", r)
		}
	}()
	acc := zero
	have := false
	for _, p := range parts {
		for _, e := range elems[T](p) {
			if !have {
				acc = e
				have = true
				continue
			}
			acc = f(acc, e)
		}
	}
	if !have {
		return zero, ErrEmpty
	}
	return acc, nil
}

// CollectMap collects a pair dataset into a map, assuming unique keys.
func CollectMap[K comparable, V any](d Dataset[Pair[K, V]]) (map[K]V, error) {
	kvs, err := Collect(d)
	if err != nil {
		return nil, err
	}
	m := make(map[K]V, len(kvs))
	for _, kv := range kvs {
		m[kv.Key] = kv.Val
	}
	return m, nil
}
