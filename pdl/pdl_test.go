package pdl

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/pdl/layout"
)

// TestBuildGrid drives Build over a (v, k) grid spanning the prime-power
// (ring), stairway, and catalog-BIBD regimes, asserting the method that
// fires and the four Holland–Gibson conditions on every result.
func TestBuildGrid(t *testing.T) {
	cases := []struct {
		v, k         int
		methodPrefix string
		maxSpread    int // parity-count spread bound
	}{
		// Prime powers: direct ring layouts, perfect balance.
		{7, 3, "ring", 0},
		{8, 4, "ring", 0},
		{13, 4, "ring", 0},
		{16, 5, "ring", 0},
		{25, 6, "ring", 0},
		// Non-prime-powers with a stairway base.
		{18, 4, "stairway", 1},
		{24, 5, "stairway", 1},
		{12, 3, "stairway", 1},
		// No stairway base (all prime powers < k): catalog BIBD fallback.
		{6, 6, "balanced-bibd", 1},
	}
	for _, c := range cases {
		res, err := Build(c.v, c.k)
		if err != nil {
			t.Errorf("Build(%d,%d): %v", c.v, c.k, err)
			continue
		}
		if !strings.HasPrefix(res.Method, c.methodPrefix) {
			t.Errorf("Build(%d,%d): method %q, want prefix %q", c.v, c.k, res.Method, c.methodPrefix)
		}
		l := res.Layout
		if l.V != c.v {
			t.Errorf("Build(%d,%d): layout has v=%d", c.v, c.k, l.V)
		}
		// Condition 1: reconstructability + structural invariants.
		if err := l.Check(); err != nil {
			t.Errorf("Build(%d,%d): condition 1: %v", c.v, c.k, err)
		}
		// Condition 2: parity assigned and balanced within the bound.
		if !l.ParityAssigned() {
			t.Errorf("Build(%d,%d): parity unassigned", c.v, c.k)
		} else if got := l.ParitySpread(); got > c.maxSpread {
			t.Errorf("Build(%d,%d): parity spread %d > %d", c.v, c.k, got, c.maxSpread)
		}
		// Condition 3: reconstruction workload bounded (every survivor
		// reads at most its whole disk, and some stripe crosses).
		wmin, wmax := l.ReconstructionWorkloadRange()
		if wmax.Num > wmax.Den || wmin.Num < 0 {
			t.Errorf("Build(%d,%d): workload range [%v,%v] out of bounds", c.v, c.k, wmin, wmax)
		}
		// Condition 4: the facade's default constructions stay feasible.
		if !l.Feasible() {
			t.Errorf("Build(%d,%d): infeasible size %d", c.v, c.k, l.Size)
		}
	}
}

// TestBuildMethodRegistry exercises explicit method selection for every
// built-in construction.
func TestBuildMethodRegistry(t *testing.T) {
	for _, name := range []string{"ring", "balanced-bibd", "holland-gibson"} {
		res, err := Build(9, 3, WithMethod(name))
		if err != nil {
			t.Errorf("Build(9,3,%s): %v", name, err)
			continue
		}
		if !strings.HasPrefix(res.Method, name) {
			t.Errorf("Build(9,3,%s): method %q", name, res.Method)
		}
	}
	if res, err := Build(18, 4, WithMethod("stairway"), WithBase(16)); err != nil {
		t.Errorf("stairway base 16: %v", err)
	} else if res.Method != "stairway(q=16)" {
		t.Errorf("stairway base 16: method %q", res.Method)
	}
	if res, err := Build(18, 4, WithMethod("removal")); err != nil {
		t.Errorf("removal: %v", err)
	} else {
		if !strings.HasPrefix(res.Method, "removal(q=19") {
			t.Errorf("removal: method %q", res.Method)
		}
		if res.Layout.V != 18 {
			t.Errorf("removal: v=%d", res.Layout.V)
		}
		if err := res.Layout.Check(); err != nil {
			t.Errorf("removal: %v", err)
		}
	}
	if res, err := Build(8, 4, WithMethod("raid5"), WithRows(14)); err != nil {
		t.Errorf("Build(8,4,raid5): %v", err)
	} else if err := res.Layout.Check(); err != nil {
		t.Errorf("Build(8,4,raid5): %v", err)
	}
	if res, err := Build(8, 4, WithMethod("random"), WithSeed(7)); err != nil {
		t.Errorf("Build(8,4,random): %v", err)
	} else if err := res.Layout.Check(); err != nil {
		t.Errorf("Build(8,4,random): %v", err)
	}
}

func TestRegisterMethod(t *testing.T) {
	if err := RegisterMethod("", nil); err == nil {
		t.Error("empty name accepted")
	}
	if err := RegisterMethod("ring", nil); err == nil {
		t.Error("nil constructor accepted")
	}
	called := false
	if err := RegisterMethod("test-trivial", func(v, k int, o *Options) (*layout.Layout, string, error) {
		called = true
		return buildRing(v, k, o)
	}); err != nil {
		t.Fatal(err)
	}
	if err := RegisterMethod("test-trivial", func(v, k int, o *Options) (*layout.Layout, string, error) {
		return nil, "", nil
	}); err == nil {
		t.Error("duplicate registration accepted")
	}
	res, err := Build(7, 3, WithMethod("test-trivial"))
	if err != nil || !called {
		t.Fatalf("registered method not used: %v (called=%v)", err, called)
	}
	if res.Method != "ring" {
		t.Errorf("method %q", res.Method)
	}
	found := false
	for _, name := range Methods() {
		if name == "test-trivial" {
			found = true
		}
	}
	if !found {
		t.Errorf("Methods() missing registration: %v", Methods())
	}
}

func TestBuildStructuredErrors(t *testing.T) {
	if _, err := Build(5, 9); !errors.Is(err, ErrBadParams) {
		t.Errorf("k > v: got %v", err)
	}
	if _, err := Build(1, 1); !errors.Is(err, ErrBadParams) {
		t.Errorf("degenerate: got %v", err)
	}
	if _, err := Build(9, 3, WithMethod("no-such-method")); !errors.Is(err, ErrNoConstruction) {
		t.Errorf("unknown method: got %v", err)
	}
	// Tuning options a built-in method would ignore are rejected; silently
	// dropping them would hand back a different layout than requested.
	if _, err := Build(18, 4, WithBase(16)); !errors.Is(err, ErrBadParams) {
		t.Errorf("auto + WithBase: got %v", err)
	}
	if _, err := Build(13, 4, WithMethod("ring"), WithBase(16)); !errors.Is(err, ErrBadParams) {
		t.Errorf("ring + WithBase: got %v", err)
	}
	if _, err := Build(8, 4, WithMethod("raid5"), WithSeed(7)); !errors.Is(err, ErrBadParams) {
		t.Errorf("raid5 + WithSeed: got %v", err)
	}
	// Explicit zero values count as passed, too.
	if _, err := Build(8, 4, WithMethod("raid5"), WithSeed(0)); !errors.Is(err, ErrBadParams) {
		t.Errorf("raid5 + WithSeed(0): got %v", err)
	}
	// ...but methods that consume an option accept its zero value.
	if _, err := Build(8, 4, WithMethod("random"), WithSeed(0), WithRows(0)); err != nil {
		t.Errorf("random + WithSeed(0)/WithRows(0): %v", err)
	}
	if _, err := Build(9, 3, WithMethod("balanced-bibd"), WithRows(5)); !errors.Is(err, ErrBadParams) {
		t.Errorf("balanced-bibd + WithRows: got %v", err)
	}
	// M(6)=2, so a ring layout with k=3 cannot exist.
	if _, err := Build(6, 3, WithMethod("ring")); !errors.Is(err, ErrNoConstruction) {
		t.Errorf("ring M(v) violation: got %v", err)
	}
	// The (13,4) ring layout has size 48; a bound of 10 is infeasible.
	if _, err := Build(13, 4, WithMaxSize(10)); !errors.Is(err, ErrInfeasible) {
		t.Errorf("max size: got %v", err)
	}
	if _, err := Build(13, 4, WithMaxSize(48)); err != nil {
		t.Errorf("exact max size rejected: %v", err)
	}
}

func TestBuildParityPolicies(t *testing.T) {
	none, err := Build(13, 4, WithParityPolicy(ParityNone))
	if err != nil {
		t.Fatal(err)
	}
	if none.Layout.ParityAssigned() {
		t.Error("ParityNone left parity assigned")
	}
	flow, err := Build(9, 3, WithMethod("holland-gibson"), WithParityPolicy(ParityFlow))
	if err != nil {
		t.Fatal(err)
	}
	if !flow.Layout.ParityAssigned() || flow.Layout.ParitySpread() > 1 {
		t.Errorf("ParityFlow spread %d", flow.Layout.ParitySpread())
	}
	perfect, err := Build(9, 3, WithMethod("balanced-bibd"), WithParityPolicy(ParityPerfect))
	if err != nil {
		t.Fatal(err)
	}
	if !perfect.Layout.ParityPerfectlyBalanced() {
		t.Error("ParityPerfect not perfectly balanced")
	}
	// (9,3): b=12, lcm(12,9)/12 = 3 copies.
	if perfect.Copies != 3 {
		t.Errorf("copies %d, want 3", perfect.Copies)
	}
}

func TestBuildSparing(t *testing.T) {
	res, err := Build(13, 4, WithSparing())
	if err != nil {
		t.Fatal(err)
	}
	if res.Sparing == nil {
		t.Fatal("no sparing on result")
	}
	if res.Sparing.SpareSpread() > 1 {
		t.Errorf("spare spread %d", res.Sparing.SpareSpread())
	}
	plain, err := Build(13, 4)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Sparing != nil {
		t.Error("sparing present without WithSparing")
	}
}

// TestJSONRoundTrip asserts WriteJSON/ReadJSON equality for every regime
// the facade produces.
func TestJSONRoundTrip(t *testing.T) {
	for _, c := range []struct{ v, k int }{{13, 4}, {18, 4}, {6, 6}} {
		res, err := Build(c.v, c.k)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.Layout.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), "\"version\": 1") {
			t.Errorf("(%d,%d): serialized layout missing version field", c.v, c.k)
		}
		got, err := layout.ReadJSON(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, res.Layout) {
			t.Errorf("(%d,%d): JSON round trip not equal", c.v, c.k)
		}
	}
}

func TestJSONVersioning(t *testing.T) {
	// Version 0 (legacy, field absent) still loads.
	legacy := `{"v":2,"size":1,"stripes":[{"units":[[0,0],[1,0]],"parity":0}]}`
	if _, err := layout.ReadJSON(strings.NewReader(legacy)); err != nil {
		t.Errorf("legacy schema rejected: %v", err)
	}
	// A future version is rejected with a descriptive error.
	future := `{"version":99,"v":2,"size":1,"stripes":[{"units":[[0,0],[1,0]],"parity":0}]}`
	if _, err := layout.ReadJSON(strings.NewReader(future)); err == nil || !strings.Contains(err.Error(), "version 99") {
		t.Errorf("future schema: got %v", err)
	}
}

func TestMapperRoundTrip(t *testing.T) {
	res, err := Build(13, 4)
	if err != nil {
		t.Fatal(err)
	}
	diskUnits := res.Layout.Size * 3 // three vertical copies
	m, err := res.NewMapper(diskUnits)
	if err != nil {
		t.Fatal(err)
	}
	if m.DiskUnits() != diskUnits {
		t.Errorf("DiskUnits %d", m.DiskUnits())
	}
	seen := map[layout.Unit]bool{}
	for i := 0; i < m.DataUnits(); i++ {
		u, err := m.Map(i)
		if err != nil {
			t.Fatal(err)
		}
		if seen[u] {
			t.Fatalf("logical %d: unit %v already used", i, u)
		}
		seen[u] = true
		back, ok := m.Logical(u)
		if !ok || back != i {
			t.Fatalf("logical %d -> %v -> %d (ok=%v)", i, u, back, ok)
		}
	}
	if _, err := m.Map(-1); err == nil {
		t.Error("negative logical accepted")
	}
	if _, err := m.Map(m.DataUnits()); err == nil {
		t.Error("out-of-range logical accepted")
	}
	// Parity units have no logical address.
	for i := range res.Layout.Stripes {
		pu, ok := res.Layout.Stripes[i].ParityUnit()
		if !ok {
			t.Fatalf("stripe %d missing parity", i)
		}
		if _, ok := m.Logical(pu); ok {
			t.Errorf("parity unit %v has a logical address", pu)
		}
	}
}

// TestMapperDegraded exercises the degraded-mode lookup: for every
// logical unit and every failed disk, the surviving set must XOR back to
// the lost payload, verified against the byte-accurate Data engine.
func TestMapperDegraded(t *testing.T) {
	res, err := Build(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	l := res.Layout
	m, err := res.NewMapper(l.Size)
	if err != nil {
		t.Fatal(err)
	}
	data, err := layout.NewData(l, 8)
	if err != nil {
		t.Fatal(err)
	}
	n := m.DataUnits()
	if n != data.Mapping().DataUnits() {
		t.Fatalf("mapper has %d data units, data engine %d", n, data.Mapping().DataUnits())
	}
	for i := 0; i < n; i++ {
		payload := make([]byte, 8)
		for j := range payload {
			payload[j] = byte(i*3 + j*17)
		}
		if err := data.WriteLogical(i, payload); err != nil {
			t.Fatal(err)
		}
	}
	read := func(u layout.Unit) []byte {
		if logical, ok := m.Logical(u); ok {
			b, err := data.ReadLogical(logical)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		// Parity unit: reconstruct its bytes from the rest of the stripe.
		for si := range l.Stripes {
			s := &l.Stripes[si]
			pu, _ := s.ParityUnit()
			if pu != u {
				continue
			}
			acc := make([]byte, 8)
			for _, du := range s.Units {
				if du == pu {
					continue
				}
				logical, ok := m.Logical(du)
				if !ok {
					t.Fatalf("data unit %v has no logical address", du)
				}
				b, err := data.ReadLogical(logical)
				if err != nil {
					t.Fatal(err)
				}
				for j := range acc {
					acc[j] ^= b[j]
				}
			}
			return acc
		}
		t.Fatalf("unit %v is neither data nor parity", u)
		return nil
	}
	for failed := 0; failed < l.V; failed++ {
		for i := 0; i < n; i++ {
			dr, err := m.DegradedMap(i, failed)
			if err != nil {
				t.Fatal(err)
			}
			want, err := data.ReadLogical(i)
			if err != nil {
				t.Fatal(err)
			}
			if !dr.Degraded {
				if dr.Unit.Disk == failed {
					t.Fatalf("logical %d on failed disk %d but not degraded", i, failed)
				}
				got := read(dr.Unit)
				if !bytes.Equal(got, want) {
					t.Fatalf("failed=%d logical=%d: direct read mismatch", failed, i)
				}
				continue
			}
			if dr.Unit.Disk != failed {
				t.Fatalf("logical %d marked degraded but lives on disk %d != %d", i, dr.Unit.Disk, failed)
			}
			acc := make([]byte, 8)
			for _, su := range dr.Survivors {
				if su.Disk == failed {
					t.Fatalf("survivor %v on failed disk", su)
				}
				b := read(su)
				for j := range acc {
					acc[j] ^= b[j]
				}
			}
			if !bytes.Equal(acc, want) {
				t.Fatalf("failed=%d logical=%d: degraded XOR mismatch", failed, i)
			}
		}
	}
	if _, err := m.DegradedMap(0, -1); err == nil {
		t.Error("bad failed disk accepted")
	}
	if _, err := m.DegradedMap(-1, 0); err == nil {
		t.Error("bad logical accepted")
	}
}

func TestMapperRequiresParity(t *testing.T) {
	res, err := Build(9, 3, WithParityPolicy(ParityNone))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMapper(res.Layout, res.Layout.Size); err == nil {
		t.Error("mapper built without parity")
	}
	full, err := Build(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMapper(full.Layout, full.Layout.Size+1); err == nil {
		t.Error("non-multiple disk size accepted")
	}
}

func TestReportContents(t *testing.T) {
	res, err := Build(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	rep := Report(res.Layout)
	for _, want := range []string{"condition 1", "condition 2", "condition 3", "condition 4", "feasible"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestReportUnassignedParity(t *testing.T) {
	l := &layout.Layout{V: 2, Size: 1, Stripes: []layout.Stripe{
		{Units: []layout.Unit{{Disk: 0, Offset: 0}, {Disk: 1, Offset: 0}}, Parity: -1},
	}}
	rep := Report(l)
	if !strings.Contains(rep, "parity unassigned") {
		t.Errorf("report: %s", rep)
	}
}

func TestCoverage(t *testing.T) {
	for _, r := range Coverage(100) {
		if r.V >= 3 && !r.Covered {
			t.Errorf("v=%d not covered", r.V)
		}
	}
}

func TestMapperZeroSizeLayout(t *testing.T) {
	// Size-0 layouts are constructible through public paths; NewMapper
	// must reject them instead of dividing by zero.
	if _, err := NewMapper(&layout.Layout{V: 2}, 4); err == nil {
		t.Error("zero-size layout accepted")
	}
	empty, err := layout.Assemble(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMapper(empty, 4); err == nil {
		t.Error("empty assembled layout accepted")
	}
}

// TestBuiltinOptionUseInSync guards the pairing between the registry's
// built-in registrations and the option-consumption table: a new built-in
// added to one but not the other would silently skip option validation.
func TestBuiltinOptionUseInSync(t *testing.T) {
	table := map[string]bool{}
	for name := range builtinOptionUse {
		if name == "" {
			continue // automatic selection, not a registry entry
		}
		table[name] = true
	}
	registered := map[string]bool{}
	for _, name := range builtinMethods {
		registered[name] = true
	}
	for name := range table {
		if !registered[name] {
			t.Errorf("builtinOptionUse lists %q, which is not a built-in registration", name)
		}
	}
	for name := range registered {
		if !table[name] {
			t.Errorf("built-in method %q missing from builtinOptionUse", name)
		}
	}
}

func TestBuildBaseDomainErrors(t *testing.T) {
	// A base outside the method's domain is a parameter error (retry with
	// a different base), not mathematical unconstructibility.
	if _, err := Build(18, 4, WithMethod("stairway"), WithBase(18)); !errors.Is(err, ErrBadParams) {
		t.Errorf("stairway base >= v: got %v", err)
	} else if errors.Is(err, ErrNoConstruction) {
		t.Errorf("stairway base >= v double-classified: %v", err)
	}
	if _, err := Build(18, 4, WithMethod("removal"), WithBase(17)); !errors.Is(err, ErrBadParams) {
		t.Errorf("removal base <= v: got %v", err)
	}
	// A valid-domain base that cannot build remains ErrNoConstruction.
	if _, err := Build(18, 4, WithMethod("stairway"), WithBase(15)); !errors.Is(err, ErrNoConstruction) {
		t.Errorf("non-prime-power base: got %v", err)
	}
}

func TestRAID5IgnoresK(t *testing.T) {
	// raid5 stripes always span the whole array; k only sizes the default
	// row count, so k > v is valid there (matching the historical CLI)
	// while stripe-size methods still reject it.
	res, err := Build(8, 16, WithMethod("raid5"))
	if err != nil {
		t.Fatalf("raid5 k>v: %v", err)
	}
	if res.Layout.V != 8 || res.Layout.Size != 16*7 {
		t.Errorf("raid5 k>v: v=%d size=%d", res.Layout.V, res.Layout.Size)
	}
	if _, err := Build(8, 16, WithMethod("ring")); !errors.Is(err, ErrBadParams) {
		t.Errorf("ring k>v: got %v", err)
	}
	if _, err := Build(8, 16); !errors.Is(err, ErrBadParams) {
		t.Errorf("auto k>v: got %v", err)
	}
}

func TestSparingConflictsWithParityNone(t *testing.T) {
	if _, err := Build(13, 4, WithSparing(), WithParityPolicy(ParityNone)); !errors.Is(err, ErrBadParams) {
		t.Errorf("sparing + ParityNone: got %v", err)
	}
}

func TestThirdPartyMethodOwnsKDomain(t *testing.T) {
	// Third-party registrations decide their own (v, k) domain; Build
	// only pre-rejects k > v for the stripe-size built-ins.
	if err := RegisterMethod("test-wide", func(v, k int, o *Options) (*layout.Layout, string, error) {
		return buildRAID5(v, k, o)
	}); err != nil {
		t.Fatal(err)
	}
	res, err := Build(8, 16, WithMethod("test-wide"))
	if err != nil {
		t.Fatalf("third-party k>v: %v", err)
	}
	if res.Layout.V != 8 {
		t.Errorf("v=%d", res.Layout.V)
	}
}
