package sim

import (
	"strings"
	"testing"
)

func TestMixProportions(t *testing.T) {
	seq := NewSequential(1000, Read)
	uni := NewUniform(1000, 1, 3) // write-only: distinguishes source
	m := NewMix(9, []Generator{seq, uni}, []float64{3, 1})
	reads, writes := 0, 0
	for i := 0; i < 8000; i++ {
		if m.Next().Kind == Read {
			reads++
		} else {
			writes++
		}
	}
	// Expect ~75/25 split.
	if reads < 5200 || reads > 6800 {
		t.Errorf("reads = %d of 8000, want ~6000", reads)
	}
	_ = writes
}

func TestMixDeterministic(t *testing.T) {
	mk := func() *Mix {
		return NewMix(5, []Generator{NewUniform(100, 0.5, 1), NewZipf(100, 1, 0, 2)}, []float64{1, 1})
	}
	a, b := mk(), mk()
	for i := 0; i < 200; i++ {
		if a.Next() != b.Next() {
			t.Fatal("mix diverged for identical seeds")
		}
	}
}

func TestMixName(t *testing.T) {
	m := NewMix(1, []Generator{NewSequential(10, Read)}, []float64{1})
	if !strings.HasPrefix(m.Name(), "mix(") {
		t.Errorf("name = %q", m.Name())
	}
}

func TestMixValidation(t *testing.T) {
	cases := []func(){
		func() { NewMix(1, nil, nil) },
		func() { NewMix(1, []Generator{NewSequential(5, Read)}, []float64{1, 2}) },
		func() { NewMix(1, []Generator{NewSequential(5, Read)}, []float64{0}) },
		func() { NewMix(1, []Generator{NewSequential(5, Read)}, []float64{-1}) },
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
