package main

// metricDef declares one metric the way BENCHMARK.json does.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: the share of the parent's median a change may lose
}

// endToEnd are the metrics a user of the store would see. Every
// workload reports all of them from its untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.20},
	{"get_p50_us", "us", "lower", 0.10},
	{"put_p50_us", "us", "lower", 0.10},
	{"allocs_per_op", "1", "lower", 0.03},
	{"resident_bytes_per_key", "B", "lower", 0.03},
	{"rejoin_s", "s", "lower", 0.25},
	{"rejoin_bytes_per_stale_key", "B", "lower", 0.03},
}

// perLayer are the metrics of single layers, reported by the traced
// run. They have no bound: they explain, they do not gate.
var perLayer = []metricDef{
	{"client.get_p99_us", "us", "lower", 0},
	{"client.put_p99_us", "us", "lower", 0},
	{"client.serial_ops_per_s", "1/s", "higher", 0},
	{"client.sat_get_p50_us", "us", "lower", 0},
	{"client.sat_put_p50_us", "us", "lower", 0},
	{"client.sat_put_p99_us", "us", "lower", 0},
	{"client.ops_per_s_median_slice", "1/s", "higher", 0},
	{"client.slice_spread_pct", "%", "lower", 0},
	{"client.conv_epochs", "count", "lower", 0},
	{"client.holders_per_partition", "count", "lower", 0},

	{"trace.msgs_per_op", "count", "lower", 0},
	{"trace.wire_bytes_per_op", "B", "lower", 0},
	{"trace.get_local_share", "ratio", "higher", 0},
	{"trace.get_hops", "count", "lower", 0},
	{"trace.put_sync_fanout", "count", "lower", 0},
	{"trace.client_hop_us", "us", "lower", 0},
	{"trace.forward_hop_us", "us", "lower", 0},
	{"trace.sync_hop_us", "us", "lower", 0},
	{"trace.entry_self_us", "us", "lower", 0},
	{"trace.primary_self_us", "us", "lower", 0},
	{"trace.holder_self_us", "us", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},

	{"transport.encode_64b_ns", "ns", "lower", 0},
	{"transport.decode_64b_ns", "ns", "lower", 0},
	{"transport.frame_overhead_bytes", "B", "lower", 0},
	{"transport.encode_1k_ns", "ns", "lower", 0},
	{"transport.decode_1k_ns", "ns", "lower", 0},
	{"transport.loopback_rtt_ns", "ns", "lower", 0},
	{"transport.tcp_rtt_us", "us", "lower", 0},
	{"transport.tcp_allocs_per_rtt", "count", "lower", 0},
	{"transport.tcp_rtt8_us", "us", "lower", 0},

	{"durable.append_nosync_us", "us", "lower", 0},
	{"durable.append_allocs", "count", "lower", 0},
	{"durable.append_fsync_us", "us", "lower", 0},
	{"durable.fsync_floor_us", "us", "lower", 0},
	{"durable.compact_ms", "ms", "lower", 0},
	{"durable.disk_bytes_per_user_byte", "B/B", "lower", 0},
	{"durable.recover_ms_per_100k", "ms", "lower", 0},

	{"node.put_1holder_us", "us", "lower", 0},
	{"node.put_2holder_us", "us", "lower", 0},
	{"node.put_allocs", "count", "lower", 0},
	{"node.local_get_ns", "ns", "lower", 0},
	{"node.get_r1_us", "us", "lower", 0},
	{"node.get_allocs", "count", "lower", 0},
	{"node.epoch_ms_3n", "ms", "lower", 0},
	{"node.get_r2_us", "us", "lower", 0},
	{"node.epoch_ms_9n", "ms", "lower", 0},
	{"node.aetree_apply_ns", "ns", "lower", 0},
	{"node.xfer_full_ms_per_10k", "ms", "lower", 0},
	{"node.xfer_delta_ratio_1pct", "ratio", "higher", 0},
	{"node.ae_repair_ratio_1key", "ratio", "higher", 0},

	{"ledger.get_residual_us", "us", "lower", 0},
	{"ledger.put_residual_us", "us", "lower", 0},
}

// unitOf returns the declared unit of a metric.
func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}
