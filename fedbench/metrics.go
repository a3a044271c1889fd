package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric and its unit. The lists mirror
// BENCHMARK.json; the self-test checks the two agree.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run: what a user of the
// federation pays in time, memory and traffic. The accuracies and
// failed_share are per-layer metrics instead (see README.md): accuracy
// swings with the seed by more than any bound a timing could use, and
// failed_share must read 0, which the result line's failed count carries.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"wire_mb", "MB"},
}

// perLayer are the metrics of a traced run, timed around the calls the
// replay makes into each layer. A layer a workload does not exercise
// reports 0.
var perLayer = []metricDef{
	{"data.synth_s", "s"},
	{"fedzkt.new_s", "s"},

	{"sched.round_wall_s", "s"},
	{"sched.busy_s", "s"},
	{"sched.utilization", "ratio"},
	{"sched.queue_wait_ms.p50", "ms"},
	{"sched.queue_wait_ms.tail", "ms"},
	{"sched.queue_wait_ms.n", "count"},

	{"fed.local_update_ms.p50", "ms"},
	{"fed.local_update_ms.tail", "ms"},
	{"fed.local_update_ms.n", "count"},
	{"fed.local_update_ms.tail_pct", "%"},
	{"fed.local_step_ms", "ms"},
	{"fed.upload_s", "s"},
	{"fed.download_apply_s", "s"},
	{"fed.eval_devices_s", "s"},
	{"fed.eval_ms_per_model", "ms"},

	{"fedzkt.distill_s", "s"},
	{"fedzkt.distill_iter_ms", "ms"},
	{"fedzkt.absorb_s", "s"},
	{"fedzkt.publish_s", "s"},
	{"fedzkt.eval_global_s", "s"},

	{"fedzkt.store.hit_rate", "ratio"},
	{"fedzkt.store.prefetch_overlap", "ratio"},
	{"fedzkt.store.spill_read_mb", "MB"},
	{"fedzkt.store.spill_write_mb", "MB"},
	{"fedzkt.resident_state_mb", "MB"},
	{"fedzkt.store.evictions", "count"},
	{"fedzkt.store.faults", "count"},

	{"fedzkt.checkpoint_encode_s", "s"},
	{"fedzkt.checkpoint_write_s", "s"},
	{"fedzkt.checkpoint_mb", "MB"},

	{"codec.encode_mb_per_s", "MB/s"},
	{"codec.decode_mb_per_s", "MB/s"},
	{"tensor.matmul_local_us", "us"},
	{"tensor.matmul_distill_us", "us"},

	{"transport.device_side_s", "s"},
	{"transport.server_side_s", "s"},
	{"transport.wire_up_mb", "MB"},
	{"transport.wire_down_mb", "MB"},
	{"transport.frame_write_ms", "ms"},
	{"transport.frame_read_ms", "ms"},
	{"transport.resumes", "count"},
	{"transport.dropped_uploads", "count"},

	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_count", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"host.steal_share", "ratio"},

	{"global_acc", "ratio"},
	{"mean_device_acc", "ratio"},
	{"failed_share", "ratio"},

	{"trace.other_s", "s"},
	{"trace.overhead", "ratio"},
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tailQuantile is the highest of the p50/p90/p99/p99.9 percentiles that
// has at least ten of n samples beyond it; the median when n < 20.
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.999, 0.99, 0.9} {
		if float64(n)*(1-q) >= 10 {
			return q
		}
	}
	return 0.5
}

// distribution reports a timed series as <name>.p50, <name>.tail and
// <name>.n (and <name>.tail_pct when withPct).
func distribution(out map[string]float64, name string, samples []float64, withPct bool) {
	q := tailQuantile(len(samples))
	out[name+".p50"] = median(samples)
	out[name+".tail"] = quantile(samples, q)
	out[name+".n"] = float64(len(samples))
	if withPct {
		out[name+".tail_pct"] = 100 * q
	}
}
