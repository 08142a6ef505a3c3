//! What the benchmark declares: its workloads and its metrics.  The root
//! `BENCHMARK.json` restates these tables for the driver; `tests/smoke.rs`
//! holds the two in agreement.

/// Workload names and why each exists.  The suite runs all of them; the
/// driver's list in `BENCHMARK.json` leaves out [`SUITE_ONLY`].
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "oneshot_sys1",
        "kernel-bound: one thread solves the paper's 106,994-state system 1, so refill and masked SpMV over an 11 MB matrix do the work and wire, transport and server do none",
    ),
    (
        "fanout_sys0",
        "the paper's Table 2 on real sockets: an L2-resident 2,109-state model farmed to two worker processes, so chunk dispatch, codec, TCP round trips and per-worker exploration show; SpMV bandwidth does not",
    ),
    (
        "sharded_sys0",
        "communication-bound: the same model row-sharded over two processes, one halo exchange per iteration, so frame text, socket wake-ups and the slices' per-column gather dominate",
    ),
    (
        "served_mix",
        "resident service: 60 keys over 12 models (more than the 8-entry model cache) asked cold, then warm in a Zipf mix by two closed-loop clients, so admission, caches, query codec and inversion dominate",
    ),
];

/// The workload the driver does not run.  A sharded solve is some 2,800
/// rounds of socket wake-ups between three processes, and on a shared
/// 2-core host its wall time follows the host more than the code: identical
/// runs spread (interquartile distance over median) 8 to 37 %, beyond any
/// bound the driver would accept.  What repeats exactly is bounded instead:
/// its answers, bit for bit, and its evaluation, round and halo-byte counts,
/// which `--compare` holds equal.  Its timings are printed and stored all the same.
pub const SUITE_ONLY: &str = "sharded_sys0";

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Every end-to-end metric is measured on every workload and is never 0
/// (the driver's contract), with tracing off.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "solve_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.15,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    // Read by `tests/smoke.rs`, which holds `BENCHMARK.json` to this table.
    #[allow(dead_code)]
    pub higher_is_better: bool,
    /// The program computes it and it repeats exactly, so `--compare` treats
    /// any change as a change of behaviour, not as noise.
    pub exact: bool,
}

const fn layer(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: false,
        exact: false,
    }
}

const fn rate(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: true,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: false,
        exact: true,
    }
}

/// Every per-layer metric is measured on every workload, in the traced pass:
/// probes time public calls on the workload's own model, counts are read
/// from the `Provenance` of the workload's own run (and are 0 where the
/// workload does not use the layer).  Prefix = module.
pub const PER_LAYER: [PerLayer; 52] = [
    layer("dnamaca.parse_us", "us"),
    rate("smspn.explore_states_per_s", "1/s"),
    layer("transform.compile_ms", "ms"),
    layer("transform.fingerprint_us", "us"),
    layer("workspace.skeleton_build_ms", "ms"),
    layer("distributions.lst_ns_per_eval", "ns"),
    layer("workspace.refill_ns_per_nnz", "ns"),
    layer("sparse.spmv_masked_ns_per_nnz", "ns"),
    rate("sparse.spmv_masked_gbps_computed", "GB/s"),
    layer("sparse.spmv_range_ns_per_nnz", "ns"),
    layer("workspace.spoint_ms_p50", "ms"),
    layer("workspace.spoint_ms_p90", "ms"),
    layer("workspace.iters_per_spoint", "count"),
    exact("workspace.iters_total", "count"),
    layer("workspace.ms_per_iter", "ms"),
    layer("laplace.plan_us", "us"),
    exact("laplace.spoints", "count"),
    layer("laplace.euler_invert_us_per_t", "us"),
    layer("laplace.laguerre_invert_us_per_t", "us"),
    layer("wire.chunk_encode_ns_per_item", "ns"),
    layer("wire.chunk_decode_ns_per_item", "ns"),
    layer("wire.halo_encode_ns_per_entry", "ns"),
    layer("wire.halo_decode_ns_per_entry", "ns"),
    rate("wire.checksum_mb_per_s", "MB/s"),
    layer("wire.query_codec_us", "us"),
    layer("transport.tcp_rtt_us_small", "us"),
    layer("transport.tcp_rtt_us_halo", "us"),
    layer("transport.dispatch_us_per_chunk", "us"),
    layer("shard.skeleton_build_ms", "ms"),
    layer("shard.step_ns_per_nnz", "ns"),
    layer("shard.compute_ms_per_spoint", "ms"),
    layer("cache.result_get_ns", "ns"),
    layer("cache.result_insert_ns", "ns"),
    layer("checkpoint.record_us", "us"),
    rate("checkpoint.load_mb_per_s", "MB/s"),
    layer("checkpoint.bytes_per_record", "B"),
    layer("uniform.solve_ms", "ms"),
    layer("uniform.cdf_us_per_t", "us"),
    layer("master.messages", "count"),
    exact("master.evaluations", "count"),
    layer("master.shared_hits", "count"),
    layer("master.cache_hits", "count"),
    layer("wire.mb", "MB"),
    exact("shard.exchange_rounds", "count"),
    exact("shard.halo_bytes", "B"),
    rate("fanout.efficiency_w2", "ratio"),
    layer("shard.exchange_share", "ratio"),
    layer("shard.slowdown_vs_unsharded", "ratio"),
    rate("server.model_cache_hit_ratio", "ratio"),
    rate("server.result_cache_hit_ratio", "ratio"),
    layer("server.refused_share", "ratio"),
    layer("trace.overhead_share", "ratio"),
];
