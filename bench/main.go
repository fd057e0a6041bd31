// Command bench is the repository's benchmark: one reference geometry
// pushed through every layer, four named workloads, every metric printed
// by name with its unit, every byte read checked.
//
//	go run ./bench                       # all four workloads, end to end
//	go run ./bench -trace 1              # the traced run: per-layer cost table
//	go run ./bench -check-noise          # two interleaved sets against the bounds
//	go run ./bench -workload <name> -seed <n> -seconds <s> -trace <0|1>
//
// The last form is what BENCHMARK.json's command runs (through
// bench/run.sh, which builds inside the checkout first); its last line
// of standard output is one JSON object with the run's metrics. See
// README.md for the workloads, the metric glossary and how to read a
// trace file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	var cfg config
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	name := fs.String("workload", "", "run one workload (default: all four, in order)")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same op streams and payloads")
	fs.Float64Var(&cfg.seconds, "seconds", 15, "timed window of an end-to-end run; the same for every workload")
	trace := fs.Int("trace", 0, "1: traced run (per-layer metrics, span files); 0: end-to-end metrics")
	noise := fs.Bool("check-noise", false, "run every workload twice, interleaved, and compare against the bounds")
	fs.StringVar(&cfg.out, "out", filepath.Join("bench", "out"), "directory for result files, traces and array files")
	fs.Parse(os.Args[1:])
	if fs.NArg() > 0 || cfg.seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments; see -h")
		os.Exit(2)
	}
	ws := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		ws = []*workload{w}
	}
	var ok bool
	var err error
	if *noise {
		ok, err = checkNoise(&cfg, ws)
	} else {
		ok, err = runAll(&cfg, ws, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// runOne runs one workload, prints its metrics, and ends with the JSON
// line the driver reads.
func runOne(cfg *config, w *workload, trace bool) (*result, error) {
	fmt.Printf("== %s (seed %d, %.4gs, trace %v)\n   %s\n", w.Name, cfg.seed, cfg.seconds, trace, w.Why)
	run, defs := runEndToEnd, endToEnd
	if trace {
		run, defs = runTraced, perLayer
	}
	res, err := run(cfg, w)
	if err != nil {
		return nil, err
	}
	printMetrics(os.Stdout, res, defs)
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, bare(res.Metrics)})
	if err != nil {
		return nil, err
	}
	fmt.Println(string(line))
	return res, nil
}

// bare strips the fields the driver's contract does not name.
func bare(ms map[string]value) map[string]value {
	out := make(map[string]value, len(ms))
	for k, v := range ms {
		out[k] = value{Value: v.Value, Unit: v.Unit}
	}
	return out
}

func printMetrics(w io.Writer, res *result, defs []metricDef) {
	for _, d := range defs {
		v := res.Metrics[d.Name]
		fmt.Fprintf(w, "  %-38s %14.4f %-6s n=%-9d %s\n", d.Name, v.Value, v.Unit, v.N, v.Note)
	}
	fmt.Fprintf(w, "  %-38s %14.6f %-6s n=%-9d failed %d\n", "error_rate", res.ErrorRate, "ratio", res.Attempted, res.Failed)
	if res.FirstErr != "" {
		fmt.Fprintf(w, "  first error: %s\n", res.FirstErr)
	}
}

// resultFile is what an untraced invocation leaves in <out>/.
type resultFile struct {
	Env     environment `json:"env"`
	Results []*result   `json:"results"`
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runAll runs the workloads in order and reports whether every op of
// every one was correct.
func runAll(cfg *config, ws []*workload, trace bool) (bool, error) {
	ok := true
	var results []*result
	for _, w := range ws {
		res, err := runOne(cfg, w, trace)
		if err != nil {
			return false, err
		}
		ok = ok && res.Correct
		results = append(results, res)
	}
	if trace { // each traced run wrote its own trace-<workload>.json
		return ok, nil
	}
	file := "result.json"
	if len(ws) == 1 {
		file = "result-" + ws[0].Name + ".json"
	}
	return ok, writeJSON(filepath.Join(cfg.out, file), resultFile{newEnvironment(cfg, ws), results})
}

// noiseRow is one metric of one workload compared across the two sets.
type noiseRow struct {
	Workload, Metric string
	A, B             float64
	Worse            float64 // share by which B is worse than A; negative = better
	Bound            float64
	Breach           bool
}

// checkNoise runs the workloads twice, interleaved (C S R F C S R F),
// and holds the second set to the first within each metric's bound — the
// test a later change's numbers will face, applied to identical code.
// peak_rss_mb is left out: all eight runs share this process, and a
// high-water mark cannot tell them apart; the driver's separate
// processes are what measure it.
func checkNoise(cfg *config, ws []*workload) (bool, error) {
	sets := [2][]*result{}
	for i := range sets {
		for _, w := range ws {
			res, err := runOne(cfg, w, false)
			if err != nil {
				return false, err
			}
			sets[i] = append(sets[i], res)
		}
	}
	ok := true
	var rows []noiseRow
	for i, w := range ws {
		a, b := sets[0][i], sets[1][i]
		ok = ok && a.Correct && b.Correct
		for _, d := range endToEnd {
			if d.Name == "peak_rss_mb" {
				continue
			}
			va, vb := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
			worse := ratio(vb-va, va)
			if d.Higher {
				worse = -worse
			}
			row := noiseRow{w.Name, d.Name, va, vb, worse, d.Bound, worse > d.Bound}
			ok = ok && !row.Breach
			rows = append(rows, row)
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Breach && !rows[j].Breach })
	fmt.Println("== check-noise: second set against the first")
	for _, r := range rows {
		mark := "ok"
		if r.Breach {
			mark = "BREACH"
		}
		fmt.Printf("  %-30s %-14s %12.4f %12.4f  worse by %+6.1f%% (bound %2.0f%%) %s\n",
			r.Workload, r.Metric, r.A, r.B, 100*r.Worse, 100*r.Bound, mark)
	}
	err := writeJSON(filepath.Join(cfg.out, "noise.json"), struct {
		Env  environment `json:"env"`
		OK   bool        `json:"ok"`
		Rows []noiseRow  `json:"rows"`
	}{newEnvironment(cfg, ws), ok, rows})
	return ok, err
}
