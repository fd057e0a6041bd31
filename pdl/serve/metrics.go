package serve

import "repro/pdl/obs"

// RegisterMetrics registers the frontend's metric families with r under
// the pdl_serve_* namespace. The series read the atomics the submit,
// batch, and completion paths already maintain plus the two per-class
// latency histograms, so scraping costs nothing on those paths.
func (f *Frontend) RegisterMetrics(r *obs.Registry) {
	fg := obs.Label{Key: "class", Value: "foreground"}
	bg := obs.Label{Key: "class", Value: "background"}
	r.CounterFunc("pdl_serve_submitted_total",
		"Requests admitted to the frontend queues.",
		func() int64 { return f.submitted.Load() - f.background.Load() }, fg)
	r.CounterFunc("pdl_serve_submitted_total",
		"Requests admitted to the frontend queues.",
		f.background.Load, bg)
	r.CounterFunc("pdl_serve_completed_total",
		"Requests completed (both classes).",
		f.completed.Load)
	r.CounterFunc("pdl_serve_rejected_total",
		"Submissions refused at admission (validation, cancellation, closed).",
		f.rejected.Load)
	r.CounterFunc("pdl_serve_batches_total",
		"Batches dispatched to the store.",
		f.batches.Load)
	r.CounterFunc("pdl_serve_batched_ops_total",
		"Unit pieces (whole or partial units) carried by dispatched batches (ratio to batches is the mean pieces per store pass).",
		f.batchedOps.Load)
	r.CounterFunc("pdl_serve_flush_total",
		"Batch dispatches by flush reason.",
		f.flushFull.Load, obs.Label{Key: "reason", Value: "full"})
	r.CounterFunc("pdl_serve_flush_total",
		"Batch dispatches by flush reason.",
		f.flushDL.Load, obs.Label{Key: "reason", Value: "deadline"})
	r.GaugeFunc("pdl_serve_queue_depth",
		"Requests waiting in the class's submission queue.",
		func() int64 { return int64(len(f.fg)) }, fg)
	r.GaugeFunc("pdl_serve_queue_depth",
		"Requests waiting in the class's submission queue.",
		func() int64 { return int64(len(f.bg)) }, bg)
	r.RegisterHist("pdl_serve_latency_seconds",
		"End-to-end request latency, admission to completion.",
		&f.latHist[Foreground], fg)
	r.RegisterHist("pdl_serve_latency_seconds",
		"End-to-end request latency, admission to completion.",
		&f.latHist[Background], bg)
}

// RegisterMetrics registers the server's connection and wire v2 stream
// counters with r.
func (s *Server) RegisterMetrics(r *obs.Registry) {
	r.CounterFunc("pdl_serve_conns_accepted_total",
		"TCP connections accepted over the server's life.",
		s.connsAccepted.Load)
	r.GaugeFunc("pdl_serve_open_conns",
		"Currently open server connections.",
		func() int64 {
			s.mu.Lock()
			n := len(s.conns)
			s.mu.Unlock()
			return int64(n)
		})
	r.CounterFunc("pdl_serve_read_spans_total",
		"Wire v2 OpReadSpan streams started on the server.",
		s.readSpans.Load)
	r.CounterFunc("pdl_serve_write_streams_total",
		"Wire v2 OpWriteSpan streams opened on the server.",
		s.writeStreams.Load)
}

// RegisterMetrics registers the client's request and wire v2 stream
// counters with r. labels qualify every series — pass an endpoint label
// when one process holds clients to several servers so the series do not
// collide.
func (c *Client) RegisterMetrics(r *obs.Registry, labels ...obs.Label) {
	r.CounterFunc("pdl_serve_client_requests_total",
		"Non-span requests (handshake, stats, admin) started by the client.",
		c.requests.Load, labels...)
	r.CounterFunc("pdl_serve_client_read_spans_total",
		"Wire v2 OpReadSpan streams opened by the client.",
		c.readSpans.Load, labels...)
	r.CounterFunc("pdl_serve_client_write_streams_total",
		"Wire v2 OpWriteSpan streams opened by the client.",
		c.writeStreams.Load, labels...)
	r.GaugeFunc("pdl_serve_client_conns",
		"TCP connections the client striped its requests across at dial time.",
		func() int64 { return int64(len(c.conns)) }, labels...)
}
