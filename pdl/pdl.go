// Package pdl is the public API of the parity-declustered layout library,
// a reproduction of Schwabe & Sutherland, "Improved Parity-Declustered
// Layouts for Disk Arrays" (SPAA 1994 / JCSS 1996).
//
// The package tree under repro/pdl is the supported surface; everything
// under repro/internal is implementation detail and not importable by
// other modules:
//
//   - pdl: the Build facade (functional options over a construction-method
//     registry), the Mapper hot path for logical→physical address
//     translation and the stripe lookups pdl/plan compiles against,
//     structured errors, and the condition report;
//   - pdl/layout: the Layout/Stripe/Unit value types, the four
//     Holland–Gibson condition metrics, address mapping, the XOR data
//     engine, and the versioned JSON interchange format;
//   - pdl/design: balanced incomplete block designs — catalog lookup and
//     the paper's constructions (Theorems 1, 4, 5, 6), resolution, and
//     the size lower bound (Theorem 7);
//   - pdl/plan: the I/O-plan compiler — degraded reads over survivor XOR
//     sets, read-modify-write parity updates, full-stripe writes, and
//     per-stripe rebuild schedules, compiled against a Mapper with zero
//     allocations per request;
//   - pdl/sim: the event-driven disk-array simulator (an execution engine
//     for pdl/plan) and workload generators used for the paper's rebuild
//     and service studies;
//   - pdl/store: the concurrent byte-storage engine — a Store executing
//     plans against per-disk backends (in-memory slabs or files) with
//     degraded serving, online rebuild, and a zero-allocation hot path;
//     store.Open wires a Build result straight into a serving array;
//   - pdl/exp: the paper's full evaluation (figures, tables, simulator
//     studies) as runnable experiments.
//
// Quick start:
//
//	res, err := pdl.Build(24, 5)                // best construction for any v, k
//	fmt.Println(res.Method)                     // e.g. "stairway(q=23)"
//	fmt.Print(pdl.Report(res.Layout))           // the paper's four conditions
//
//	m, err := res.NewMapper(res.Layout.Size)    // O(1) address translation
//	u, err := m.Map(42)                         // logical -> (disk, offset)
//	var p plan.Plan                             // pdl/plan: read 42 with u.Disk down
//	err = plan.NewPlanner(m).ReadM(42, []int{u.Disk}, &p)
//
// Construction can be pinned and tuned with options:
//
//	pdl.Build(18, 4, pdl.WithMethod("stairway"), pdl.WithBase(16))
//	pdl.Build(9, 3, pdl.WithMethod("balanced-bibd"), pdl.WithParityPolicy(pdl.ParityPerfect))
//	pdl.Build(13, 4, pdl.WithSparing())
//	pdl.Build(64, 8, pdl.WithMaxSize(10000))
//
// Failures are structured: errors.Is(err, pdl.ErrNoConstruction) reports
// that no registered method can realize (v, k), and errors.Is(err,
// pdl.ErrInfeasible) reports that the layout exceeded WithMaxSize.
package pdl

import "errors"

var (
	// ErrBadParams reports parameters outside the valid domain
	// (need v >= 2 and 2 <= k <= v).
	ErrBadParams = errors.New("pdl: invalid parameters")

	// ErrNoConstruction reports that no registered construction method can
	// realize the requested (v, k), or that a requested method is unknown
	// or failed.
	ErrNoConstruction = errors.New("pdl: no construction for the requested parameters")

	// ErrInfeasible reports that a constructed layout exceeds the size
	// bound configured with WithMaxSize (Condition 4 feasibility).
	ErrInfeasible = errors.New("pdl: layout exceeds the configured size bound")
)
