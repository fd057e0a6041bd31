package store_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/pdl/store"
)

// TestConcurrentHammer is the concurrency property test of the ISSUE:
// N goroutines hammer random reads and writes on disjoint slices of the
// logical space (stripes are still shared, so parity read-modify-writes
// contend), healthy first, then with a disk down, then across an online
// rebuild. Afterward VerifyParity must pass and every unit must equal
// the sequentially-maintained per-goroutine model. Run under -race in CI.
func TestConcurrentHammer(t *testing.T) {
	const (
		unitSize   = 32
		goroutines = 8
		opsPerGo   = 1500
	)
	s := mustStore(t, 13, 4, 2, unitSize)

	// models[g][l] is goroutine g's expected payload for logical l (only
	// addresses with l % goroutines == g are touched by g).
	models := make([]map[int][]byte, goroutines)
	for g := range models {
		models[g] = make(map[int][]byte)
	}

	hammer := func(phase int) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(phase*goroutines + g)))
				buf := make([]byte, unitSize)
				got := make([]byte, unitSize)
				for i := 0; i < opsPerGo; i++ {
					logical := g + goroutines*rng.Intn(s.Capacity()/goroutines)
					if rng.Intn(3) == 0 {
						if err := s.Read(logical, got); err != nil {
							errs <- err
							return
						}
						want, written := models[g][logical]
						if !written {
							want = make([]byte, unitSize)
						}
						if !bytes.Equal(got, want) {
							errs <- fmt.Errorf("goroutine %d phase %d: logical %d: got %x want %x", g, phase, logical, got, want)
							return
						}
						continue
					}
					rng.Read(buf)
					if err := s.Write(logical, buf); err != nil {
						errs <- err
						return
					}
					models[g][logical] = append([]byte(nil), buf...)
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}

	sweep := func(tag string) {
		t.Helper()
		got := make([]byte, unitSize)
		zero := make([]byte, unitSize)
		for logical := 0; logical < s.Capacity(); logical++ {
			if err := s.Read(logical, got); err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			want, written := models[logical%goroutines][logical]
			if !written {
				want = zero
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: logical %d: got %x want %x", tag, logical, got, want)
			}
		}
	}

	hammer(1)
	if err := s.VerifyParity(); err != nil {
		t.Fatal(err)
	}
	sweep("healthy")

	// Degraded phase: a disk is down, reads of its units go through the
	// survivor XOR path, writes through the degraded plans.
	if err := s.Fail(5); err != nil {
		t.Fatal(err)
	}
	hammer(2)
	sweep("degraded")

	// Rebuild while the hammer keeps running: foreground traffic and the
	// rebuilder interleave on the same stripe locks.
	var wg sync.WaitGroup
	wg.Add(1)
	rebuildErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		rebuildErr <- s.Rebuild(store.NewMemDisk(int64(s.Mapper().DiskUnits()) * unitSize))
	}()
	hammer(3)
	wg.Wait()
	if err := <-rebuildErr; err != nil {
		t.Fatal(err)
	}
	if got := s.FailedDisks(); len(got) != 0 {
		t.Fatalf("after rebuild: FailedDisks = %v", got)
	}
	if err := s.VerifyParity(); err != nil {
		t.Fatal(err)
	}
	sweep("rebuilt")
}

// TestConcurrentReadAtWriteAt exercises the byte-offset API concurrently
// on disjoint byte ranges, including spans that cross stripes and hit
// the full-stripe path.
func TestConcurrentReadAtWriteAt(t *testing.T) {
	const (
		unitSize   = 64
		goroutines = 6
	)
	s := mustStore(t, 9, 3, 2, unitSize)
	slice := s.Size() / goroutines

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	finals := make([][]byte, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			base := int64(g) * slice
			mirror := make([]byte, slice)
			for i := 0; i < 400; i++ {
				off := int64(rng.Intn(int(slice)))
				n := rng.Intn(5*unitSize) + 1
				if off+int64(n) > slice {
					n = int(slice - off)
				}
				p := make([]byte, n)
				rng.Read(p)
				if _, err := s.WriteAt(p, base+off); err != nil {
					errs <- err
					return
				}
				copy(mirror[off:], p)
				got := make([]byte, n)
				if _, err := s.ReadAt(got, base+off); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, mirror[off:off+int64(n)]) {
					errs <- fmt.Errorf("goroutine %d: ReadAt(%d,%d) diverges", g, base+off, n)
					return
				}
			}
			finals[g] = mirror
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := s.VerifyParity(); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < goroutines; g++ {
		got := make([]byte, slice)
		if _, err := s.ReadAt(got, int64(g)*slice); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, finals[g]) {
			t.Fatalf("slice %d diverged from its writer's mirror", g)
		}
	}
}
