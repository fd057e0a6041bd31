package main

import (
	"math"
	"slices"
	"time"
)

// Op kinds index the recorder's sample arrays.
const (
	kindRead = iota
	kindWrite
	numKinds
)

var kindName = [numKinds]string{"read", "write"}

// sampleChunk is how many samples one preallocated array holds. A
// recorder takes a new chunk when the last is full — one 512 KiB
// allocation per 65 536 ops instead of a copy-and-double — so memory
// tracks the samples taken and peak_rss_mb stays the program's.
const sampleChunk = 1 << 16

// recorder is one caller's exact latency record for one timed window:
// every sample is kept as an int64 nanosecond count in preallocated
// arrays, cut into equal time slices so the report can take medians over
// slices. Reported percentiles never come from obs.Hist or
// sim.LatencyRecorder: their power-of-two buckets cannot resolve a 10 %
// bound. A recorder belongs to one goroutine.
type recorder struct {
	start    time.Time
	sliceLen time.Duration
	slices   int

	ns    [numKinds][][]int64 // chunks of sampleChunk samples
	n     [numKinds]int
	cuts  [numKinds][]int // cuts[k][s]: n[k] when slice s closed
	bytes []int64         // payload bytes completed, per slice
	cur   int
}

// newRecorder returns a recorder for a window of the given length
// starting at start, cut into nSlices slices.
func newRecorder(start time.Time, window time.Duration, nSlices int) *recorder {
	r := &recorder{
		start:    start,
		sliceLen: window / time.Duration(nSlices),
		slices:   nSlices,
		bytes:    make([]int64, nSlices),
	}
	for k := range r.ns {
		r.ns[k] = [][]int64{make([]int64, 0, sampleChunk)}
		r.cuts[k] = make([]int, 0, nSlices)
	}
	return r
}

// add records one completed op. Samples must arrive in completion order;
// an op that completes after the window's end lands in the last slice.
func (r *recorder) add(kind int, end time.Time, latency int64, payload int) {
	s := int(end.Sub(r.start) / r.sliceLen)
	if s >= r.slices {
		s = r.slices - 1
	}
	for r.cur < s {
		r.closeSlice()
	}
	last := len(r.ns[kind]) - 1
	if len(r.ns[kind][last]) == sampleChunk {
		r.ns[kind] = append(r.ns[kind], make([]int64, 0, sampleChunk))
		last++
	}
	r.ns[kind][last] = append(r.ns[kind][last], latency)
	r.n[kind]++
	r.bytes[s] += int64(payload)
}

func (r *recorder) closeSlice() {
	for k := range r.cuts {
		r.cuts[k] = append(r.cuts[k], r.n[k])
	}
	r.cur++
}

// bounds returns the sample index range of one kind in slice s.
func (r *recorder) bounds(kind, s int) (lo, hi int) {
	for r.cur < r.slices {
		r.closeSlice()
	}
	if s > 0 {
		lo = r.cuts[kind][s-1]
	}
	return lo, r.cuts[kind][s]
}

// appendSlice appends the samples of one kind that completed in slice s.
func (r *recorder) appendSlice(dst []int64, kind, s int) []int64 {
	lo, hi := r.bounds(kind, s)
	for lo < hi {
		c := r.ns[kind][lo/sampleChunk]
		n := min(hi-lo, sampleChunk-lo%sampleChunk)
		dst = append(dst, c[lo%sampleChunk:lo%sampleChunk+n]...)
		lo += n
	}
	return dst
}

// tailPercentile is the percentile rule for a reported tail: p99 when n
// samples support it (ten samples beyond it, so n >= 1000), else the
// highest percentile that still has ten samples beyond it. Below twenty
// samples no tail is meaningful and the median stands in.
func tailPercentile(n int) float64 {
	switch {
	case n >= 1000:
		return 99
	case n >= 20:
		return 100 * float64(n-10) / float64(n)
	default:
		return 50
	}
}

// percentile returns the p-th percentile of sorted by nearest rank.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median returns the middle of xs (mean of the two middles when even),
// or 0 for an empty slice.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs, 0 <= q <= 1, interpolating
// between neighbours, or 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = slices.Clone(xs)
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// quietShare picks the slice a report stands on. A run's slices are ranked
// from best to worst and the report is the value a quietShare of them
// beat: the lowest decile of latencies and times, the highest decile of
// throughputs. What disturbs a run on a shared host — a neighbour taking a
// core, a stolen vCPU, a cold cache after a pause — only ever makes a
// slice worse, for a stretch of it, so the good decile holds still while a
// median moves as soon as half the slices are touched. Ten-seed sweeps,
// undisturbed and beside a process that took one of the two vCPUs for a
// second at a time, had the decile steadier than the median and the
// quartile on nearly every metric (cluster read_p99_us spread 22 % / 6 % /
// 8 % undisturbed, 49 % / 39 % / 20 % disturbed), and steadier than the
// minimum, an extreme value that a single lucky slice sets, on the
// medians.
const quietShare = 0.10

// quiet returns the value a quietShare of xs are better than.
func quiet(xs []float64, higherIsBetter bool) float64 {
	if higherIsBetter {
		return quantile(xs, 1-quietShare)
	}
	return quantile(xs, quietShare)
}

// latencySummary is one op kind's report over a window: the quiet
// decile over slices of each slice's p50 and tail percentile.
type latencySummary struct {
	P50us  float64 `json:"p50_us"`
	TailUs float64 `json:"tail_us"`
	// Tail is the percentile TailUs holds: the lowest tailPercentile any
	// slice supported (99 on every full-length run).
	Tail float64 `json:"tail_percentile"`
	N    int     `json:"n"` // samples in the whole window

	// The per-slice values the deciles were taken over, in time order:
	// the record of how steady the window was.
	SliceP50us  []float64 `json:"slice_p50_us"`
	SliceTailUs []float64 `json:"slice_tail_us"`
}

// windowSummary is what the recorders of one window reduce to.
type windowSummary struct {
	Lat      [numKinds]latencySummary `json:"latency"` // read, write
	MBs      float64                  `json:"mb_s"`    // quiet decile over slices of decimal MB completed per second
	SliceMBs []float64                `json:"slice_mb_s"`
	Bytes    int64                    `json:"bytes"`
	Ops      int64                    `json:"ops"`
	Slices   int                      `json:"slices"`
}

// summarize reduces a window's recorders — segs[i] holds the callers'
// recorders of the window's i-th segment — slice by slice: it merges the
// callers' samples of a slice, sorts them, takes the slice's percentiles,
// and reports the quiet decile over all slices of all segments.
func summarize(segs [][]*recorder) windowSummary {
	var sum windowSummary
	// One percentile for every slice: the lowest any of them supports.
	tail := [numKinds]float64{99, 99}
	for _, recs := range segs {
		sum.Slices += recs[0].slices
		for k := 0; k < numKinds; k++ {
			for s := 0; s < recs[0].slices; s++ {
				n := 0
				for _, r := range recs {
					lo, hi := r.bounds(k, s)
					n += hi - lo
				}
				sum.Lat[k].N += n
				if n > 0 {
					tail[k] = math.Min(tail[k], tailPercentile(n))
				}
			}
		}
	}
	var merged []int64
	for _, recs := range segs {
		sliceSec := recs[0].sliceLen.Seconds()
		for s := 0; s < recs[0].slices; s++ {
			var b int64
			for _, r := range recs {
				b += r.bytes[s]
			}
			sum.Bytes += b
			sum.SliceMBs = append(sum.SliceMBs, float64(b)/1e6/sliceSec)
			for k := 0; k < numKinds; k++ {
				merged = merged[:0]
				for _, r := range recs {
					merged = r.appendSlice(merged, k, s)
				}
				if len(merged) == 0 {
					continue
				}
				slices.Sort(merged)
				l := &sum.Lat[k]
				l.SliceP50us = append(l.SliceP50us, float64(percentile(merged, 50))/1e3)
				l.SliceTailUs = append(l.SliceTailUs, float64(percentile(merged, tail[k]))/1e3)
			}
		}
	}
	for k := range sum.Lat {
		l := &sum.Lat[k]
		l.P50us, l.TailUs, l.Tail = quiet(l.SliceP50us, false), quiet(l.SliceTailUs, false), tail[k]
		sum.Ops += int64(l.N)
	}
	sum.MBs = quiet(sum.SliceMBs, true)
	return sum
}
