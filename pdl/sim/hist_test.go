package sim

import (
	"testing"
	"testing/quick"
)

func TestLatencyRecorderPercentiles(t *testing.T) {
	var r LatencyRecorder
	for i := int64(1); i <= 100; i++ {
		r.Record(i)
	}
	cases := []struct {
		p    float64
		want int64
	}{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {1, 1}}
	for _, c := range cases {
		if got := r.Percentile(c.p); got != c.want {
			t.Errorf("P%v = %d, want %d", c.p, got, c.want)
		}
	}
	if r.Mean() != 50.5 {
		t.Errorf("mean = %v, want 50.5", r.Mean())
	}
	if r.Count() != 100 {
		t.Errorf("count = %d", r.Count())
	}
}

func TestLatencyRecorderEmpty(t *testing.T) {
	var r LatencyRecorder
	if r.Percentile(50) != 0 || r.Mean() != 0 || r.Count() != 0 {
		t.Error("empty recorder should report zeros")
	}
}

func TestLatencyRecorderInvalidPercentile(t *testing.T) {
	var r LatencyRecorder
	r.Record(5)
	if r.Percentile(0) != 0 || r.Percentile(101) != 0 {
		t.Error("invalid percentiles should report 0")
	}
}

func TestLatencyRecorderMonotone(t *testing.T) {
	f := func(vals []uint16) bool {
		if len(vals) == 0 {
			return true
		}
		var r LatencyRecorder
		for _, v := range vals {
			r.Record(int64(v))
		}
		last := int64(0)
		for _, p := range []float64{10, 25, 50, 75, 90, 99, 100} {
			cur := r.Percentile(p)
			if cur < last {
				return false
			}
			last = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLatencyRecorderInterleavedRecordPercentile(t *testing.T) {
	var r LatencyRecorder
	r.Record(10)
	if r.Percentile(50) != 10 {
		t.Error("P50 of single sample")
	}
	r.Record(20) // after a Percentile call: must re-sort
	if got := r.Percentile(100); got != 20 {
		t.Errorf("P100 = %d after late record", got)
	}
}

func TestServeWorkloadRecordsLatencies(t *testing.T) {
	a := declusteredArray(t, 8, 4)
	gen := NewUniform(a.Mapping.DataUnits(), 0.5, 21)
	res, err := a.ServeWorkload(gen, 400, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latencies.Count() != 400 {
		t.Errorf("recorded %d latencies", res.Latencies.Count())
	}
	if res.Latencies.Percentile(100) != res.MaxLatency {
		t.Errorf("P100 %d != max %d", res.Latencies.Percentile(100), res.MaxLatency)
	}
	if res.Latencies.Mean() != res.AvgLatency() {
		t.Errorf("mean %v != avg %v", res.Latencies.Mean(), res.AvgLatency())
	}
}
