package fedzkt

import (
	"github.com/fedzkt/fedzkt/internal/fed"
	"github.com/fedzkt/fedzkt/internal/obs"
)

// This file binds the federation runtime to the observability substrate.
// The coordinator owns a fedMetrics, registered into the process-wide
// registry at construction (last-wins, so the newest coordinator owns the
// names on the live endpoint), and every layer's phase spans go to the
// process-wide tracer. Nothing here feeds back into the round arithmetic:
// golden fingerprints are byte-identical with instrumentation enabled.

// tracer is the span sink for every fedzkt-layer phase span.
func tracer() *obs.Tracer { return obs.DefaultTracer() }

// fedMetrics is the coordinator's registry view: counters and histograms
// updated as each round finalises, plus scrape-time views over the
// server's live stats structs (which stay the source of truth — the
// legacy accessors keep returning them unchanged).
type fedMetrics struct {
	rounds         obs.Counter
	absorbed       obs.Counter
	lateAbsorbed   obs.Counter
	droppedUploads obs.Counter
	replicaFaults  obs.Counter
	bytesUp        obs.Counter
	bytesDown      obs.Counter

	localSeconds  obs.Histogram
	serverSeconds obs.Histogram
	roundSeconds  obs.Histogram

	globalAcc     obs.Gauge
	meanDeviceAcc obs.Gauge
}

// newFedMetrics registers a coordinator's instruments and its server's
// stats views into reg.
func newFedMetrics(reg *obs.Registry, srv *Server) *fedMetrics {
	fm := &fedMetrics{}
	reg.RegisterCounter("fedzkt_rounds_total", "communication rounds finalised", &fm.rounds)
	reg.RegisterCounter("fedzkt_uploads_absorbed_total", "fresh device uploads absorbed", &fm.absorbed)
	reg.RegisterCounter("fedzkt_uploads_late_total", "stale uploads absorbed into a later teacher window", &fm.lateAbsorbed)
	reg.RegisterCounter("fedzkt_uploads_dropped_total", "uploads discarded (stale, duplicate, or invalid)", &fm.droppedUploads)
	reg.RegisterCounter("fedzkt_replica_faults_total", "devices dropped from a round on replica load faults", &fm.replicaFaults)
	reg.RegisterCounter("fedzkt_wire_up_bytes_total", "payload bytes uploaded by devices", &fm.bytesUp)
	reg.RegisterCounter("fedzkt_wire_down_bytes_total", "payload bytes downloaded to devices", &fm.bytesDown)
	reg.RegisterHistogram("fedzkt_local_phase_seconds", "per-round on-device local phase wall time", &fm.localSeconds)
	reg.RegisterHistogram("fedzkt_server_phase_seconds", "per-round server distillation wall time", &fm.serverSeconds)
	reg.RegisterHistogram("fedzkt_round_seconds", "per-round wall time, local phase start to metrics finalised", &fm.roundSeconds)
	reg.RegisterGauge("fedzkt_global_accuracy", "server global model test accuracy at the last evaluated round", &fm.globalAcc)
	reg.RegisterGauge("fedzkt_mean_device_accuracy", "mean device test accuracy at the last evaluated round", &fm.meanDeviceAcc)

	// Scrape-time views over the server's live stats structs.
	reg.RegisterGaugeFunc("fedzkt_server_live_replicas", "replica modules resident across cohort pools",
		func() float64 { return float64(srv.LiveReplicas()) })
	reg.RegisterGaugeFunc("fedzkt_server_resident_state_bytes", "bytes resident in replica state slots",
		func() float64 { return float64(srv.ResidentStateBytes()) })
	reg.RegisterCounterFunc("fedzkt_store_hits_total", "replica-store hot-set hits",
		func() float64 { return float64(srv.ReplicaStoreStats().Hits) })
	reg.RegisterCounterFunc("fedzkt_store_misses_total", "replica-store cold loads",
		func() float64 { return float64(srv.ReplicaStoreStats().Misses) })
	reg.RegisterCounterFunc("fedzkt_store_prefetch_issued_total", "replica prefetches issued",
		func() float64 { return float64(srv.ReplicaStoreStats().PrefetchIssued) })
	reg.RegisterCounterFunc("fedzkt_store_prefetch_loaded_total", "replica prefetches loaded before use",
		func() float64 { return float64(srv.ReplicaStoreStats().PrefetchLoaded) })
	reg.RegisterCounterFunc("fedzkt_store_evictions_total", "hot-set evictions to the spill tier",
		func() float64 { return float64(srv.ReplicaStoreStats().Evictions) })
	reg.RegisterCounterFunc("fedzkt_store_spill_read_bytes_total", "bytes read back from spill files",
		func() float64 { return float64(srv.ReplicaStoreStats().SpillReadBytes) })
	reg.RegisterCounterFunc("fedzkt_store_spill_write_bytes_total", "bytes written to spill files",
		func() float64 { return float64(srv.ReplicaStoreStats().SpillWriteBytes) })
	reg.RegisterGaugeFunc("fedzkt_store_hot_entries", "replica slots resident in hot sets",
		func() float64 { return float64(srv.ReplicaStoreStats().HotEntries) })
	reg.RegisterGaugeFunc("fedzkt_store_spill_records", "replica records resident in spill files",
		func() float64 { return float64(srv.ReplicaStoreStats().SpillRecords) })
	return fm
}

// observeRound folds one finalised round's metrics into the registry.
// Called by the round engine as each round is finalised.
func (fm *fedMetrics) observeRound(m *fed.RoundMetrics) {
	if fm == nil {
		return
	}
	fm.rounds.Inc()
	fm.absorbed.Add(int64(m.Absorbed))
	fm.lateAbsorbed.Add(int64(m.LateAbsorbed))
	fm.droppedUploads.Add(int64(m.DroppedUploads))
	fm.replicaFaults.Add(int64(len(m.ReplicaFaults)))
	fm.bytesUp.Add(m.BytesUp)
	fm.bytesDown.Add(m.BytesDown)
	fm.localSeconds.ObserveDuration(m.LocalElapsed)
	fm.serverSeconds.ObserveDuration(m.ServerElapsed)
	fm.roundSeconds.ObserveDuration(m.Elapsed)
	if len(m.DeviceAcc) > 0 || m.GlobalAcc != 0 {
		fm.globalAcc.Set(m.GlobalAcc)
		fm.meanDeviceAcc.Set(m.MeanDeviceAcc)
	}
}
