package store

import (
	"strconv"

	"repro/pdl/obs"
)

// RegisterMetrics registers the store's metric families with r under the
// pdl_store_* namespace. The registered series read the same atomics the
// hot paths already maintain, so scraping costs nothing on the I/O path.
// Call once per Store per Registry; registering the same Store twice on
// one Registry panics (duplicate series).
func (s *Store) RegisterMetrics(r *obs.Registry) {
	for d := range s.counters {
		c := &s.counters[d]
		lbl := obs.Label{Key: "disk", Value: strconv.Itoa(d)}
		r.CounterFunc("pdl_store_disk_reads_total",
			"Physical unit-range read operations issued to the disk.",
			c.reads.Load, lbl)
		r.CounterFunc("pdl_store_disk_writes_total",
			"Physical unit-range write operations issued to the disk.",
			c.writes.Load, lbl)
		r.CounterFunc("pdl_store_disk_read_bytes_total",
			"Bytes moved by physical reads from the disk.",
			c.readBytes.Load, lbl)
		r.CounterFunc("pdl_store_disk_write_bytes_total",
			"Bytes moved by physical writes to the disk.",
			c.writeBytes.Load, lbl)
		r.CounterFunc("pdl_store_disk_degraded_total",
			"Physical operations issued to the disk on behalf of degraded-mode work (survivor XOR reads, rebuild traffic).",
			c.degraded.Load, lbl)
	}
	r.GaugeFunc("pdl_store_failed_disk",
		"Index of the lowest failed disk, -1 when the array is healthy.",
		func() int64 { return int64(s.Failed()) })
	r.GaugeFunc("pdl_store_failed_disks",
		"Number of currently-failed disks (multi-parity codes tolerate up to the code's parity count).",
		func() int64 { return int64(len(s.fails.Load().disks)) })
	r.GaugeFunc("pdl_store_rebuilding",
		"1 while an online rebuild is running, else 0.",
		func() int64 {
			if s.rebuilding.Load() {
				return 1
			}
			return 0
		})
	r.GaugeFunc("pdl_store_rebuilt_stripes",
		"Stripes the in-progress rebuild has copied onto the replacement.",
		s.rebuiltStripes.Load)
	r.GaugeFunc("pdl_store_rebuild_workers",
		"Goroutines of the in-progress rebuild reconstructing stripes right now: 1 under foreground traffic, more on an idle store, 0 when no rebuild runs.",
		s.rebuildWorkers.Load)
	r.GaugeFunc("pdl_store_stripes",
		"Total parity stripes in the array layout.",
		func() int64 { return int64(s.mapper.Stripes()) })
	r.GaugeFunc("pdl_store_disks",
		"Disks in the array layout.",
		func() int64 { return int64(s.mapper.Disks()) })
	r.RegisterHist("pdl_store_op_duration_seconds",
		"Wall latency of public store I/O entry points.",
		&s.opHist[histRead], obs.Label{Key: "op", Value: "read"})
	r.RegisterHist("pdl_store_op_duration_seconds",
		"Wall latency of public store I/O entry points.",
		&s.opHist[histWrite], obs.Label{Key: "op", Value: "write"})
}
