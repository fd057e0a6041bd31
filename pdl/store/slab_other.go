//go:build !linux

package store

// mapSlab has no off-heap slab here: NewMemDisk allocates on the heap.
func mapSlab(int64) ([]byte, func() error) { return nil, nil }
