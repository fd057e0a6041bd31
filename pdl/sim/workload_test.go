package sim

import "testing"

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestRNGZeroSeedWorks(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Error("zero-seed RNG stuck at zero")
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 1000; i++ {
		x := r.Intn(7)
		if x < 0 || x >= 7 {
			t.Fatalf("Intn out of range: %d", x)
		}
	}
}

func TestRNGIntnPanicsNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(2)
	for i := 0; i < 1000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestUniformAddressesInRange(t *testing.T) {
	g := NewUniform(100, 0.5, 3)
	reads, writes := 0, 0
	for i := 0; i < 2000; i++ {
		op := g.Next()
		if op.Logical < 0 || op.Logical >= 100 {
			t.Fatalf("address out of range: %d", op.Logical)
		}
		if op.Kind == Read {
			reads++
		} else {
			writes++
		}
	}
	// 50/50 split within generous tolerance.
	if reads < 800 || writes < 800 {
		t.Errorf("reads=%d writes=%d: expected roughly even split", reads, writes)
	}
}

func TestUniformExtremes(t *testing.T) {
	ro := NewUniform(10, 0, 1)
	for i := 0; i < 100; i++ {
		if ro.Next().Kind != Read {
			t.Fatal("read-only generator produced a write")
		}
	}
	wo := NewUniform(10, 1, 1)
	for i := 0; i < 100; i++ {
		if wo.Next().Kind != Write {
			t.Fatal("write-only generator produced a read")
		}
	}
}

func TestSequentialWraps(t *testing.T) {
	g := NewSequential(3, Write)
	want := []int{0, 1, 2, 0, 1}
	for i, w := range want {
		op := g.Next()
		if op.Logical != w || op.Kind != Write {
			t.Fatalf("op %d = %+v, want logical %d", i, op, w)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	g := NewZipf(1000, 1.0, 0, 5)
	counts := make([]int, 1000)
	n := 50000
	for i := 0; i < n; i++ {
		op := g.Next()
		if op.Logical < 0 || op.Logical >= 1000 {
			t.Fatalf("address out of range: %d", op.Logical)
		}
		counts[op.Logical]++
	}
	// Hot unit 0 should dominate the tail unit by a large factor.
	if counts[0] < 20*counts[900]+1 {
		t.Errorf("zipf skew too weak: head %d vs tail %d", counts[0], counts[900])
	}
	// Head should cover a material share of traffic.
	if counts[0] < n/100 {
		t.Errorf("head count %d too small", counts[0])
	}
}

func TestZipfThetaZeroIsUniformish(t *testing.T) {
	g := NewZipf(10, 0, 0, 7)
	counts := make([]int, 10)
	for i := 0; i < 10000; i++ {
		counts[g.Next().Logical]++
	}
	for i, c := range counts {
		if c < 500 || c > 1500 {
			t.Errorf("bucket %d count %d outside uniform band", i, c)
		}
	}
}

func TestGeneratorNames(t *testing.T) {
	if NewUniform(10, 0.3, 1).Name() == "" || NewSequential(10, Read).Name() == "" || NewZipf(10, 1, 0, 1).Name() == "" {
		t.Error("empty generator name")
	}
}

func TestPanicsOnBadParams(t *testing.T) {
	cases := []func(){
		func() { NewUniform(0, 0.5, 1) },
		func() { NewUniform(10, -0.1, 1) },
		func() { NewUniform(10, 1.1, 1) },
		func() { NewSequential(0, Read) },
		func() { NewZipf(0, 1, 0, 1) },
		func() { NewZipf(10, -1, 0, 1) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			fn()
		}()
	}
}
