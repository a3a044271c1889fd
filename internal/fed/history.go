package fed

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// RoundMetrics records what happened in one communication round.
type RoundMetrics struct {
	// Round is the 1-based round index.
	Round int
	// GlobalAcc is the server global model's test accuracy (0 for
	// algorithms without a global model).
	GlobalAcc float64
	// DeviceAcc holds each device's test accuracy.
	DeviceAcc []float64
	// MeanDeviceAcc is the mean of DeviceAcc.
	MeanDeviceAcc float64
	// Active lists the devices sampled for this round.
	Active []int
	// Dropped lists sampled devices that missed the round deadline
	// (stragglers excluded from aggregation but keeping local progress).
	Dropped []int
	// Injected lists sampled devices lost to scheduler failure injection
	// this round (their local phase never ran).
	Injected []int
	// Absorbed counts fresh current-round uploads the server absorbed.
	// (Not part of Fingerprint: it is derivable from Active minus
	// Dropped/Injected in the simulator, and the networked transport's
	// quorum rounds report it for observability.)
	Absorbed int
	// LateAbsorbed counts stale uploads — from earlier rounds, within the
	// transport's staleness bound — absorbed into the next teacher window
	// during this round. Always 0 in the in-process simulator.
	LateAbsorbed int
	// DroppedUploads counts uploads discarded during this round: staler
	// than the staleness bound, duplicates of rounds already absorbed, or
	// payloads that failed validation. Always 0 in the simulator.
	DroppedUploads int
	// BytesUp and BytesDown count payload bytes uploaded by and downloaded
	// to devices this round.
	BytesUp, BytesDown int64
	// InputGradNorm is the mean ‖∇ₓL‖ observed during server distillation
	// this round (Figure 2 instrumentation; 0 when not probed).
	InputGradNorm float64
	// Elapsed is the wall-clock duration of the round: from the start of
	// its local phase to its metrics being finalised after its downloads
	// are applied (the checkpoint write excluded). At PipelineDepth ≥ 1
	// consecutive rounds overlap, so per-round Elapsed values sum to more
	// than the run's wall time by design.
	Elapsed time.Duration
	// ServerElapsed is the wall-clock duration of the round's server
	// phase (Algorithm 3: adversarial distillation plus transfer-back) —
	// the component the cohort/teacher-sampling machinery targets.
	ServerElapsed time.Duration
	// LocalElapsed is the wall-clock duration of the round's on-device
	// local phase (Algorithm 2 across the sampled devices).
	LocalElapsed time.Duration
	// DownloadStall is how long the local stage sat blocked, before this
	// round's local phase, waiting for the downloads it is allowed to
	// train on — the bounded-staleness barrier. At PipelineDepth 0 it is
	// the barrier wait for the previous round's server phase; at depth ≥ 1
	// it is 0 when the server kept ahead of the devices.
	DownloadStall time.Duration
	// UploadStall is how long the server stage sat idle waiting for this
	// round's uploads to be handed over — the mirror-image idle measure.
	// At PipelineDepth 0 it spans the round's local phase; at depth ≥ 1
	// it is 0 when the devices kept ahead of the server.
	UploadStall time.Duration
	// ReplicaFaults lists devices the server dropped from this round's
	// distillation or evaluation because their stored replica bytes failed
	// to load or decode (e.g. a corrupt spill record) — the round degrades
	// instead of the process dying. (Not part of Fingerprint: faults are
	// an abnormal-operation signal, absent in healthy runs.)
	ReplicaFaults []int
	// StoreHits, StoreMisses and StorePrefetched count the server replica
	// store's hot-set lookups this round: hits, cold loads, and cold loads
	// the prefetcher absorbed. All zero for the in-memory store. (Not part
	// of Fingerprint: store traffic depends on hot-set sizing and prefetch
	// timing, which the arithmetic is independent of.)
	StoreHits, StoreMisses, StorePrefetched int64
	// SpillReadBytes and SpillWriteBytes count replica bytes moved between
	// the hot set and the spill tier this round. (Not fingerprinted, as
	// above.)
	SpillReadBytes, SpillWriteBytes int64
}

// History is the per-round metrics trace of a full run.
type History []RoundMetrics

// FinalGlobalAcc returns the last round's global accuracy (0 if empty).
func (h History) FinalGlobalAcc() float64 {
	if len(h) == 0 {
		return 0
	}
	return h[len(h)-1].GlobalAcc
}

// FinalMeanDeviceAcc returns the last round's mean device accuracy.
func (h History) FinalMeanDeviceAcc() float64 {
	if len(h) == 0 {
		return 0
	}
	return h[len(h)-1].MeanDeviceAcc
}

// GlobalAccSeries extracts the global-accuracy learning curve.
func (h History) GlobalAccSeries() []float64 {
	out := make([]float64, len(h))
	for i, m := range h {
		out[i] = m.GlobalAcc
	}
	return out
}

// MeanDeviceAccSeries extracts the mean-device-accuracy learning curve.
func (h History) MeanDeviceAccSeries() []float64 {
	out := make([]float64, len(h))
	for i, m := range h {
		out[i] = m.MeanDeviceAcc
	}
	return out
}

// Fingerprint renders the deterministic fields of every round — indices,
// participation sets, byte counts, accuracies and gradient norms, but not
// wall-clock durations — into a canonical string. Two runs of the same
// seeded configuration must produce byte-identical fingerprints whatever
// the scheduler's worker count; the determinism golden tests compare
// exactly this.
func (h History) Fingerprint() string {
	var b strings.Builder
	for _, m := range h {
		fmt.Fprintf(&b, "round=%d active=%v dropped=%v injected=%v up=%d down=%d",
			m.Round, m.Active, m.Dropped, m.Injected, m.BytesUp, m.BytesDown)
		fmt.Fprintf(&b, " global=%s mean=%s gradnorm=%s dev=[",
			canonFloat(m.GlobalAcc), canonFloat(m.MeanDeviceAcc), canonFloat(m.InputGradNorm))
		for i, a := range m.DeviceAcc {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(canonFloat(a))
		}
		b.WriteString("]\n")
	}
	return b.String()
}

// canonFloat formats a float with full round-trip precision so that any
// bit-level divergence shows up in the fingerprint.
func canonFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// MeanServerElapsed returns the mean per-round server-phase wall time
// (0 for an empty history).
func (h History) MeanServerElapsed() time.Duration {
	if len(h) == 0 {
		return 0
	}
	var total time.Duration
	for _, m := range h {
		total += m.ServerElapsed
	}
	return total / time.Duration(len(h))
}

// TotalStalls sums the stage idle time over the run: how long local
// phases waited on downloads and how long the server stage waited on
// uploads.
func (h History) TotalStalls() (download, upload time.Duration) {
	for _, m := range h {
		download += m.DownloadStall
		upload += m.UploadStall
	}
	return download, upload
}

// TotalBytes sums upload and download traffic over the run.
func (h History) TotalBytes() (up, down int64) {
	for _, m := range h {
		up += m.BytesUp
		down += m.BytesDown
	}
	return up, down
}
