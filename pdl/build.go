package pdl

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/pdl/code"
	"repro/pdl/layout"
)

// Result is what Build produces: the layout plus how it was made.
type Result struct {
	// Layout is the constructed parity-declustered layout.
	Layout *layout.Layout

	// Method names the construction that fired, including parameters
	// (e.g. "ring", "stairway(q=16)", "balanced-bibd").
	Method string

	// V and K echo the requested array and stripe size.
	V, K int

	// Copies is the replication factor applied by ParityPerfect (1
	// otherwise).
	Copies int

	// Sparing carries the distributed-sparing assignment when
	// WithSparing was requested, nil otherwise.
	Sparing *Sparing
}

// NewMapper builds the O(1) address translator for the result's layout on
// disks of diskUnits units (a positive multiple of Layout.Size).
func (r *Result) NewMapper(diskUnits int) (*Mapper, error) {
	return NewMapper(r.Layout, diskUnits)
}

// Build constructs a parity-declustered layout for an array of v disks
// with parity stripe size k.
//
// With no WithMethod option, Build picks the best construction the paper
// offers: a ring-based layout when v is a prime power, otherwise a
// stairway transformation from the largest prime-power base, falling back
// to a flow-balanced layout over a catalog BIBD. WithMethod pins any
// registered construction (see Methods).
//
// Errors are structured: ErrBadParams for out-of-domain (v, k),
// ErrNoConstruction when no method can realize the parameters, and
// ErrInfeasible when the layout exceeds WithMaxSize. All support
// errors.Is.
func Build(v, k int, opts ...Option) (*Result, error) {
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	if v < 2 || k < 2 {
		return nil, fmt.Errorf("pdl: Build(v=%d, k=%d): %w: need v >= 2 and k >= 2", v, k, ErrBadParams)
	}
	// k <= v is the domain of the stripe-size built-ins; whole-array
	// built-ins (anyK) and third-party registrations own their own
	// domain, so the constructor decides there.
	if use, builtin := builtinOptionUse[o.Method]; builtin && !use.anyK && k > v {
		return nil, fmt.Errorf("pdl: Build(v=%d, k=%d): %w: need k <= v", v, k, ErrBadParams)
	}
	if o.Sparing && o.ParityPolicy == ParityNone {
		return nil, fmt.Errorf("pdl: Build(v=%d, k=%d): %w: WithSparing needs assigned parity, which ParityNone strips", v, k, ErrBadParams)
	}
	if o.ParityShards < 0 || o.ParityShards > code.MaxParityShards {
		return nil, fmt.Errorf("pdl: Build(v=%d, k=%d): %w: parity shards %d outside [0,%d]", v, k, ErrBadParams, o.ParityShards, code.MaxParityShards)
	}
	if o.ParityShards > 1 {
		if o.ParityShards >= k {
			return nil, fmt.Errorf("pdl: Build(v=%d, k=%d): %w: %d parity shards leave no data units in a stripe of %d", v, k, ErrBadParams, o.ParityShards, k)
		}
		if o.Sparing {
			return nil, fmt.Errorf("pdl: Build(v=%d, k=%d): %w: WithSparing assumes single parity; combine it with WithParityShards(1) only", v, k, ErrBadParams)
		}
		if o.ParityPolicy == ParityNone {
			return nil, fmt.Errorf("pdl: Build(v=%d, k=%d): %w: WithParityShards needs assigned parity, which ParityNone strips", v, k, ErrBadParams)
		}
	}
	if err := checkOptionUse(v, k, &o); err != nil {
		return nil, err
	}

	var (
		l      *layout.Layout
		method string
		err    error
	)
	if o.Method == "" {
		l, method, err = buildAuto(v, k, &o)
	} else {
		ctor, ok := lookupMethod(o.Method)
		if !ok {
			return nil, fmt.Errorf("pdl: Build(v=%d, k=%d): %w: unknown method %q (registered: %v)",
				v, k, ErrNoConstruction, o.Method, Methods())
		}
		l, method, err = ctor(v, k, &o)
	}
	if err != nil {
		// Constructor errors that are already classified (e.g. a base
		// value out of domain) keep their classification; the rest mean
		// the method cannot realize (v, k).
		if errors.Is(err, ErrBadParams) || errors.Is(err, ErrInfeasible) {
			return nil, fmt.Errorf("pdl: Build(v=%d, k=%d): %w", v, k, err)
		}
		return nil, fmt.Errorf("pdl: Build(v=%d, k=%d): %w: %w", v, k, ErrNoConstruction, err)
	}

	copies := 1
	switch o.ParityPolicy {
	case ParityDefault:
	case ParityNone:
		for i := range l.Stripes {
			l.Stripes[i].Parity = -1
		}
	case ParityFlow:
		if err := core.BalanceParity(l); err != nil {
			return nil, fmt.Errorf("pdl: Build(v=%d, k=%d): parity flow: %w", v, k, err)
		}
	case ParityPerfect:
		if n := core.MinCopiesForPerfectParity(len(l.Stripes), l.V); n > 1 {
			l = layout.Copies(l, n)
			copies = n
		}
		if err := core.BalanceParity(l); err != nil {
			return nil, fmt.Errorf("pdl: Build(v=%d, k=%d): parity flow: %w", v, k, err)
		}
		if !l.ParityPerfectlyBalanced() {
			return nil, fmt.Errorf("pdl: Build(v=%d, k=%d): perfect parity balance not reached with %d copies", v, k, copies)
		}
	default:
		return nil, fmt.Errorf("pdl: Build(v=%d, k=%d): %w: unknown parity policy %d", v, k, ErrBadParams, o.ParityPolicy)
	}

	if o.MaxSize > 0 && l.Size > o.MaxSize {
		return nil, fmt.Errorf("pdl: Build(v=%d, k=%d): %w: method %s produced size %d > %d",
			v, k, ErrInfeasible, method, l.Size, o.MaxSize)
	}

	if o.ParityShards > 1 {
		l.ParityUnits = o.ParityShards
		if err := l.Check(); err != nil {
			return nil, fmt.Errorf("pdl: Build(v=%d, k=%d): %w: method %s cannot carry %d parity units: %w",
				v, k, ErrBadParams, method, o.ParityShards, err)
		}
	}

	res := &Result{Layout: l, Method: method, V: v, K: k, Copies: copies}
	if o.Sparing {
		sp, err := core.DistributedSparing(l)
		if err != nil {
			return nil, fmt.Errorf("pdl: Build(v=%d, k=%d): sparing: %w", v, k, err)
		}
		res.Sparing = (*Sparing)(sp)
	}
	return res, nil
}

// checkOptionUse rejects tuning options the selected built-in method (or
// automatic selection) would ignore.
func checkOptionUse(v, k int, o *Options) error {
	use, builtin := builtinOptionUse[o.Method]
	if !builtin {
		return nil
	}
	methodDesc := fmt.Sprintf("method %q", o.Method)
	if o.Method == "" {
		methodDesc = "automatic selection"
	}
	reject := func(opt, users string) error {
		return fmt.Errorf("pdl: Build(v=%d, k=%d): %w: %s is not used by %s (use %s)",
			v, k, ErrBadParams, opt, methodDesc, users)
	}
	if o.baseSet && !use.base {
		return reject("WithBase", `WithMethod("stairway") or WithMethod("removal")`)
	}
	if o.rowsSet && !use.rows {
		return reject("WithRows", `WithMethod("raid5") or WithMethod("random")`)
	}
	if o.seedSet && !use.seed {
		return reject("WithSeed", `WithMethod("random")`)
	}
	return nil
}

// buildAuto is the default method selection: ring/stairway via the paper's
// coverage result, then the catalog-BIBD flow-balanced fallback.
func buildAuto(v, k int, o *Options) (*layout.Layout, string, error) {
	l, method, err := core.LayoutForAnyV(v, k)
	if err == nil {
		return l, method, nil
	}
	if l, tag, berr := buildBalancedBIBD(v, k, o); berr == nil {
		return l, tag, nil
	}
	return nil, "", err
}
