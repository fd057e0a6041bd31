package algebra

import "fmt"

// Ring is a finite commutative ring with a multiplicative unit 1 != 0.
// Elements are integer codes in [0, Order()). Implementations must satisfy
// the usual ring axioms; RingAxioms (exported for tests) checks them
// exhaustively on small rings and by sampling on large ones.
type Ring interface {
	// Order returns the number of elements in the ring.
	Order() int
	// Zero returns the code of the additive identity.
	Zero() int
	// One returns the code of the multiplicative identity.
	One() int
	// Add returns the code of a + b.
	Add(a, b int) int
	// Neg returns the code of -a.
	Neg(a int) int
	// Mul returns the code of a * b.
	Mul(a, b int) int
	// Inv returns the code of a^-1 and true if a is a unit, or 0 and
	// false otherwise.
	Inv(a int) (int, bool)
	// Name returns a short description such as "GF(8)" or "Z_6".
	Name() string
}

// Sub returns a - b in r.
func Sub(r Ring, a, b int) int {
	return r.Add(a, r.Neg(b))
}

// Pow returns a^n in r for n >= 0 (a^0 = 1).
func Pow(r Ring, a, n int) int {
	if n < 0 {
		panic("algebra: Pow: negative exponent")
	}
	res := r.One()
	base := a
	for n > 0 {
		if n&1 == 1 {
			res = r.Mul(res, base)
		}
		base = r.Mul(base, base)
		n >>= 1
	}
	return res
}

// Repeat returns n*a, i.e. a added to itself n times (n >= 0).
func Repeat(r Ring, n, a int) int {
	if n < 0 {
		panic("algebra: Repeat: negative count")
	}
	res := r.Zero()
	base := a
	for n > 0 {
		if n&1 == 1 {
			res = r.Add(res, base)
		}
		base = r.Add(base, base)
		n >>= 1
	}
	return res
}

// AdditiveOrder returns the additive order of a: the smallest m >= 1 with
// m*a = 0. It always divides the ring order.
func AdditiveOrder(r Ring, a int) int {
	zero := r.Zero()
	// The order divides Order(); test divisors in increasing order.
	for _, d := range Divisors(r.Order()) {
		if Repeat(r, d, a) == zero {
			return d
		}
	}
	panic(fmt.Sprintf("algebra: AdditiveOrder: no order found for %d in %s", a, r.Name()))
}

// MultiplicativeOrder returns the multiplicative order of a unit a: the
// smallest m >= 1 with a^m = 1. It returns 0 if a is not a unit.
func MultiplicativeOrder(r Ring, a int) int {
	if _, ok := r.Inv(a); !ok {
		return 0
	}
	one := r.One()
	// For a field of order q the unit group has order q-1; in general the
	// multiplicative order divides the exponent of the unit group, which we
	// don't know cheaply, so walk powers directly (unit groups here are
	// small: <= order of the ring).
	x := a
	for m := 1; m <= r.Order(); m++ {
		if x == one {
			return m
		}
		x = r.Mul(x, a)
	}
	panic(fmt.Sprintf("algebra: MultiplicativeOrder: power walk of %d in %s did not return to 1", a, r.Name()))
}

// IsGeneratorSet reports whether gs is a valid generator set for ring-based
// block designs: all elements distinct and every pairwise difference a unit.
func IsGeneratorSet(r Ring, gs []int) bool {
	for i := 0; i < len(gs); i++ {
		for j := i + 1; j < len(gs); j++ {
			if gs[i] == gs[j] {
				return false
			}
			if _, ok := r.Inv(Sub(r, gs[i], gs[j])); !ok {
				return false
			}
		}
	}
	return true
}

// FindGenerators returns a generator set of size k for r, preferring g_0 = 0,
// or nil if the greedy search fails. For fields any k distinct elements work;
// for cross products of fields the greedy search finds the diagonal-style
// sets of Lemma 3 whenever k <= M(order).
func FindGenerators(r Ring, k int) []int {
	if k < 1 || k > r.Order() {
		return nil
	}
	gs := make([]int, 0, k)
	gs = append(gs, r.Zero())
	for cand := 0; cand < r.Order() && len(gs) < k; cand++ {
		ok := true
		for _, g := range gs {
			if cand == g {
				ok = false
				break
			}
			if _, unit := r.Inv(Sub(r, cand, g)); !unit {
				ok = false
				break
			}
		}
		if ok {
			gs = append(gs, cand)
		}
	}
	if len(gs) < k {
		return nil
	}
	return gs
}

// RingAxioms checks the ring axioms on r. For rings of order <= exhaustiveMax
// the check is exhaustive over all element pairs/triples; otherwise a
// deterministic sample is used. It returns the first violation found.
func RingAxioms(r Ring, exhaustiveMax int) error {
	n := r.Order()
	if n < 2 {
		return fmt.Errorf("%s: order %d < 2", r.Name(), n)
	}
	if r.Zero() == r.One() {
		return fmt.Errorf("%s: 0 == 1", r.Name())
	}
	var elems []int
	if n <= exhaustiveMax {
		elems = make([]int, n)
		for i := range elems {
			elems[i] = i
		}
	} else {
		// Deterministic sample: small codes, large codes, and a stride.
		seen := map[int]bool{}
		add := func(x int) {
			if x >= 0 && x < n && !seen[x] {
				seen[x] = true
				elems = append(elems, x)
			}
		}
		for i := 0; i < 8; i++ {
			add(i)
			add(n - 1 - i)
		}
		for i := 0; i < 16; i++ {
			add(int((uint64(i)*2654435761 + 12345) % uint64(n)))
		}
	}
	zero, one := r.Zero(), r.One()
	for _, a := range elems {
		if got := r.Add(a, zero); got != a {
			return fmt.Errorf("%s: %d + 0 = %d", r.Name(), a, got)
		}
		if got := r.Mul(a, one); got != a {
			return fmt.Errorf("%s: %d * 1 = %d", r.Name(), a, got)
		}
		if got := r.Add(a, r.Neg(a)); got != zero {
			return fmt.Errorf("%s: %d + (-%d) = %d", r.Name(), a, a, got)
		}
		if inv, ok := r.Inv(a); ok {
			if got := r.Mul(a, inv); got != one {
				return fmt.Errorf("%s: %d * %d = %d, want 1", r.Name(), a, inv, got)
			}
		}
		for _, b := range elems {
			if r.Add(a, b) != r.Add(b, a) {
				return fmt.Errorf("%s: addition not commutative at (%d,%d)", r.Name(), a, b)
			}
			if r.Mul(a, b) != r.Mul(b, a) {
				return fmt.Errorf("%s: multiplication not commutative at (%d,%d)", r.Name(), a, b)
			}
			for _, c := range elems {
				if r.Add(r.Add(a, b), c) != r.Add(a, r.Add(b, c)) {
					return fmt.Errorf("%s: addition not associative at (%d,%d,%d)", r.Name(), a, b, c)
				}
				if r.Mul(r.Mul(a, b), c) != r.Mul(a, r.Mul(b, c)) {
					return fmt.Errorf("%s: multiplication not associative at (%d,%d,%d)", r.Name(), a, b, c)
				}
				if r.Mul(a, r.Add(b, c)) != r.Add(r.Mul(a, b), r.Mul(a, c)) {
					return fmt.Errorf("%s: distributivity fails at (%d,%d,%d)", r.Name(), a, b, c)
				}
			}
		}
	}
	return nil
}
