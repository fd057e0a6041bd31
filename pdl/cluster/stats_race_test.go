package cluster

import (
	"sync"
	"testing"
	"time"
)

// TestStatsHistRace pins the fix for the non-atomic histogram read in
// Client.Stats: percentiles used to walk the buckets while span legs
// recorded into them, and a rank computed from a newer count could run
// off the older bucket copy. On the shared obs.Hist the snapshot's
// ordering contract (count loaded before buckets) makes that impossible;
// this hammers Stats against concurrent recording under -race and checks
// the percentiles stay resolvable.
func TestStatsHistRace(t *testing.T) {
	c := testFanClient(t, 4096, []int64{64, 128}, ByCapacity)
	// No reachable shards: Stats probes fail fast (zero dial timeout) and
	// report ShardDown, which is fine — the histogram read is the point.
	c.man = &Manifest{Version: FormatVersion, UnitBytes: 4096,
		Shards: []ShardInfo{{Addr: "127.0.0.1:1"}, {Addr: "127.0.0.1:1"}}}
	c.opt.DialTimeout = time.Nanosecond

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for s := range c.shards {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sh := &c.shards[s]
			ns := int64(1)
			for {
				select {
				case <-stop:
					return
				default:
					sh.ops.Add(1)
					sh.hist.RecordNanos(ns)
					ns = ns<<1 | 1
					if ns > 1<<30 {
						ns = 1
					}
				}
			}
		}(s)
	}
	deadline := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadline) {
		for _, st := range c.Stats() {
			if st.Ops > 0 && st.P99 == 0 {
				t.Fatalf("shard %s: p99 = 0 with %d ops: rank ran off the buckets", st.Addr, st.Ops)
			}
		}
	}
	close(stop)
	wg.Wait()
}
