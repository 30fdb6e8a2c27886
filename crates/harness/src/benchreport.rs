//! The `bench-report` path: wall-clock throughput of the simulation core.
//!
//! Criterion benchmarks (`crates/bench`) answer "did this commit get
//! slower"; this module answers "how fast is the core, in units a reader
//! can check" — nanoseconds per discrete event and events per second, per
//! scheme and per queue backend, plus the queue's high-water mark. The
//! `dup-experiments bench-report` command writes the result as
//! `BENCH_scheme_sim.json` so the numbers live in the repo next to the
//! code they measure.

use serde::Serialize;

use dup_core::{run_simulation_kind, run_simulation_sharded};
use dup_overlay::TopologyParams;
use dup_proto::{LoadProbe, ProbeSink, QueueBackendConfig, RunConfig, TopologySource};

use crate::experiment::{HarnessOpts, SchemeKind};

/// Sketch counter budget the observed A/B cells attach (matches the
/// `load-report` sweep).
const OBS_SKETCH_K: usize = 64;

/// Shard counts the multi-core curve sweeps.
const SHARD_SWEEP: [usize; 3] = [1, 2, 4];

/// Space-shard counts the space-parallel curve sweeps.
const SPACE_SWEEP: [usize; 3] = [1, 2, 4];

/// Node-count floor for the space-parallel curve: partitioning pays for its
/// cross-shard barriers only when each shard holds thousands of nodes, so
/// the curve is always recorded at ≥ 10k nodes regardless of scale preset.
const SPACE_CURVE_MIN_NODES: usize = 10_240;

/// Wall-clock measurement of one scheme × queue-backend cell.
#[derive(Debug, Clone, Serialize)]
pub struct SchemeBench {
    /// Scheme name ("PCX", "CUP", "DUP").
    pub scheme: String,
    /// Queue backend the run used ("heap" or "timer-wheel").
    pub backend: &'static str,
    /// Discrete events one run processes (identical across repetitions —
    /// the simulation is deterministic).
    pub events: u64,
    /// Queries served in the measured window.
    pub queries: u64,
    /// Event-queue high-water mark.
    pub peak_queue_depth: u64,
    /// Median wall-clock time of one run, nanoseconds.
    pub wall_ns_median: u64,
    /// Best (minimum) wall-clock time of one run, nanoseconds.
    pub wall_ns_min: u64,
    /// Median nanoseconds per discrete event.
    pub ns_per_event: f64,
    /// Median events per wall-clock second.
    pub events_per_sec: f64,
}

/// One point of the multi-core curve: the DUP ensemble at a fixed shard
/// count, timed with worker threads and again strictly sequentially. The
/// two runs produce bit-identical merged reports; only wall clock differs.
#[derive(Debug, Clone, Serialize)]
pub struct ShardBench {
    /// Scheme name (the curve runs DUP, the paper's headline scheme).
    pub scheme: String,
    /// Shard count of the ensemble (1 = the classic single-queue engine).
    pub shards: usize,
    /// Total discrete events across all shards.
    pub events: u64,
    /// Median wall-clock nanoseconds with one worker thread per shard.
    pub wall_ns_median_threaded: u64,
    /// Median wall-clock nanoseconds running the shards back-to-back on
    /// the calling thread.
    pub wall_ns_median_sequential: u64,
    /// Median events per wall-clock second (threaded).
    pub events_per_sec: f64,
    /// Sequential / threaded median wall clock — the parallel speedup at
    /// this shard count. Bounded above by the `cores` the host exposes:
    /// expect ≈ 1.0 on a single-core host regardless of shard count.
    pub speedup: f64,
}

/// One point of the space-parallel curve: a single ≥ 10k-node DUP run with
/// its node space partitioned across `space_shards` engine shards. Unlike
/// the ensemble curve (independent replications), every point simulates the
/// *same* run — the merged event logs are bit-identical across shard counts
/// — so wall-clock differences are the cost or gain of the partition
/// itself.
#[derive(Debug, Clone, Serialize)]
pub struct SpaceBench {
    /// Scheme name (the curve runs DUP, the paper's headline scheme).
    pub scheme: String,
    /// Space-shard count (1 = the classic single-queue engine).
    pub space_shards: usize,
    /// Network size of the partitioned run.
    pub nodes: usize,
    /// Discrete events of the run (driver replicas deduplicated; shrinks
    /// by nothing across shard counts — the simulated run is the same).
    pub events: u64,
    /// Median wall-clock nanoseconds (the shards share one thread).
    pub wall_ns_median: u64,
    /// Median events per wall-clock second.
    pub events_per_sec: f64,
    /// One-shard median / this median. The shards share one thread on any
    /// host, so this is the partition's own cost or gain (below 1 when the
    /// replicated drivers and window barriers cost more than they save).
    pub speedup_vs_one_shard: f64,
    /// Fraction of message deliveries that crossed a shard boundary.
    pub cross_shard_message_ratio: f64,
    /// Event-queue high-water mark per shard.
    pub peak_queue_depth_per_shard: Vec<u64>,
}

/// One interleaved A/B cell measuring the observability tax: the same
/// scheme × config timed plain (no probe, no profiling) and observed (full
/// per-node load accounting through a streaming [`LoadProbe`], engine
/// self-profiling, trace sampling effectively off). Repetitions interleave
/// plain/observed so thermal and cache drift hits both arms equally.
#[derive(Debug, Clone, Serialize)]
pub struct ObservabilityBench {
    /// Scheme name ("PCX", "CUP", "DUP").
    pub scheme: String,
    /// Median wall-clock nanoseconds of the plain runs.
    pub wall_ns_median_plain: u64,
    /// Median wall-clock nanoseconds with accounting + profiling enabled.
    pub wall_ns_median_observed: u64,
    /// Best (minimum) wall-clock nanoseconds of the plain runs.
    pub wall_ns_min_plain: u64,
    /// Best (minimum) wall-clock nanoseconds of the observed runs.
    pub wall_ns_min_observed: u64,
    /// Observed / plain median — 1.05 means the enabled path costs 5%.
    pub overhead_ratio: f64,
    /// Observed / plain minimum. On hosts with scheduler or cpu-quota
    /// interference (which inflates both arms' upper quantiles with a
    /// heavy one-sided tail), the minimum is the robust estimator of the
    /// true per-run cost; compare it against `overhead_ratio` to judge how
    /// noisy the measurement was.
    pub overhead_ratio_min: f64,
    /// Probe events the observed run folded into the load accounting.
    pub load_events: u64,
}

/// The full bench-report document serialized to `BENCH_scheme_sim.json`.
#[derive(Debug, Clone, Serialize)]
pub struct BenchReport {
    /// Scale preset the runs used.
    pub scale: String,
    /// Master seed.
    pub seed: u64,
    /// Timed repetitions per cell (median/min over these).
    pub reps: usize,
    /// Logical CPUs the measuring host exposed. Speedup claims in
    /// `shard_curve` are only meaningful relative to this: a curve
    /// recorded with `cores: 1` measures overhead, not scaling.
    pub cores: usize,
    /// One row per scheme × backend (single-shard engine).
    pub cells: Vec<SchemeBench>,
    /// Threaded-vs-sequential wall clock per shard count.
    pub shard_curve: Vec<ShardBench>,
    /// Space-parallel wall clock per shard count (one ≥ 10k-node run).
    pub space_curve: Vec<SpaceBench>,
    /// Interleaved plain-vs-observed wall clock per scheme.
    pub observability: Vec<ObservabilityBench>,
    /// Engine self-profile of the last observed DUP run (wall-clock phase
    /// breakdown + queue-depth window; nondeterministic by nature).
    pub dup_profile: Option<dup_sim::EngineProfiler>,
}

/// Times one configuration, returning (median, min) wall nanoseconds and
/// the report of the last run. One untimed warm-up run precedes the timed
/// repetitions so allocator and cache warm-up do not pollute the median.
fn time_cell(cfg: &RunConfig, kind: SchemeKind, reps: usize) -> (u64, u64, dup_proto::RunReport) {
    let _ = run_simulation_kind(cfg, kind, ProbeSink::disabled());
    let mut times: Vec<u64> = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let started = std::time::Instant::now();
        let report = run_simulation_kind(cfg, kind, ProbeSink::disabled());
        times.push(started.elapsed().as_nanos() as u64);
        last = Some(report);
    }
    times.sort_unstable();
    let median = times[times.len() / 2];
    let min = times[0];
    (median, min, last.expect("reps >= 1"))
}

/// Runs every scheme on both queue backends at `opts.scale` and collects
/// throughput numbers. `reps` timed repetitions per cell (clamped to ≥ 1).
pub fn bench_report(opts: &HarnessOpts, reps: usize) -> BenchReport {
    let reps = reps.max(1);
    let base = opts.scale.base_config(opts.seed);
    let mut cells = Vec::new();
    for kind in [SchemeKind::Pcx, SchemeKind::Cup, SchemeKind::Dup] {
        for (backend, label) in [
            (QueueBackendConfig::Heap, "heap"),
            (QueueBackendConfig::TimerWheel, "timer-wheel"),
        ] {
            let mut cfg = base.clone();
            cfg.queue.backend = backend;
            let (median, min, report) = time_cell(&cfg, kind, reps);
            cells.push(SchemeBench {
                scheme: report.scheme.clone(),
                backend: label,
                events: report.events,
                queries: report.queries,
                peak_queue_depth: report.peak_queue_depth,
                wall_ns_median: median,
                wall_ns_min: min,
                ns_per_event: median as f64 / report.events.max(1) as f64,
                events_per_sec: report.events as f64 * 1e9 / median.max(1) as f64,
            });
        }
    }
    let shard_curve = shard_curve(&base, reps);
    let space_curve = space_curve(&base, reps);
    let (observability, dup_profile) = observability_cells(&base, reps);
    BenchReport {
        scale: format!("{:?}", opts.scale),
        seed: opts.seed,
        reps,
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        cells,
        shard_curve,
        space_curve,
        observability,
        dup_profile,
    }
}

/// Times every scheme plain and observed, strictly interleaved, and
/// harvests the engine profile of the last observed DUP run. The observed
/// arm is the real scaled-observability path: streaming load accounting,
/// engine profiling, and trace sampling set so effectively no update is
/// traced (span allocation off the hot path).
fn observability_cells(
    base: &RunConfig,
    reps: usize,
) -> (Vec<ObservabilityBench>, Option<dup_sim::EngineProfiler>) {
    let nodes = base.topology.node_count();
    let mut observed_cfg = base.clone();
    observed_cfg.probe.profile_engine = true;
    observed_cfg.probe.trace_sampling.one_in = u64::MAX;
    let mut dup_profile = None;
    let cells = [SchemeKind::Pcx, SchemeKind::Cup, SchemeKind::Dup]
        .into_iter()
        .map(|kind| {
            // One warm-up per arm, then interleave plain/observed reps.
            let _ = run_simulation_kind(base, kind, ProbeSink::disabled());
            let _ = run_simulation_kind(
                &observed_cfg,
                kind,
                ProbeSink::attach(LoadProbe::new(nodes, OBS_SKETCH_K)),
            );
            let mut plain_ns: Vec<u64> = Vec::with_capacity(reps);
            let mut observed_ns: Vec<u64> = Vec::with_capacity(reps);
            let mut scheme = String::new();
            let mut load_events = 0;
            for _ in 0..reps {
                let started = std::time::Instant::now();
                let report = run_simulation_kind(base, kind, ProbeSink::disabled());
                plain_ns.push(started.elapsed().as_nanos() as u64);
                scheme = report.scheme;
                let probe = LoadProbe::new(nodes, OBS_SKETCH_K);
                let started = std::time::Instant::now();
                let report =
                    run_simulation_kind(&observed_cfg, kind, ProbeSink::attach(probe.clone()));
                observed_ns.push(started.elapsed().as_nanos() as u64);
                load_events = probe.snapshot().events();
                if kind == SchemeKind::Dup {
                    dup_profile = report.engine_profile;
                }
            }
            plain_ns.sort_unstable();
            observed_ns.sort_unstable();
            let plain = plain_ns[plain_ns.len() / 2];
            let observed = observed_ns[observed_ns.len() / 2];
            let plain_min = plain_ns[0];
            let observed_min = observed_ns[0];
            ObservabilityBench {
                scheme,
                wall_ns_median_plain: plain,
                wall_ns_median_observed: observed,
                wall_ns_min_plain: plain_min,
                wall_ns_min_observed: observed_min,
                overhead_ratio: observed as f64 / plain.max(1) as f64,
                overhead_ratio_min: observed_min as f64 / plain_min.max(1) as f64,
                load_events,
            }
        })
        .collect();
    (cells, dup_profile)
}

/// Times one sharded DUP ensemble `reps` times, returning the median wall
/// nanoseconds and the merged report. One untimed warm-up precedes the
/// timed repetitions, mirroring [`time_cell`].
fn time_shards(cfg: &RunConfig, threaded: bool, reps: usize) -> (u64, dup_proto::RunReport) {
    let _ = run_simulation_sharded(cfg, SchemeKind::Dup, threaded);
    let mut times: Vec<u64> = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let started = std::time::Instant::now();
        let report = run_simulation_sharded(cfg, SchemeKind::Dup, threaded);
        times.push(started.elapsed().as_nanos() as u64);
        last = Some(report);
    }
    times.sort_unstable();
    (times[times.len() / 2], last.expect("reps >= 1"))
}

/// Measures the DUP ensemble at each [`SHARD_SWEEP`] count, threaded and
/// sequential, asserting along the way that both orders merged to the same
/// report (the bit-identity contract of `run_simulation_sharded`).
fn shard_curve(base: &RunConfig, reps: usize) -> Vec<ShardBench> {
    SHARD_SWEEP
        .iter()
        .map(|&shards| {
            let mut cfg = base.clone();
            cfg.shards = shards;
            let (threaded_ns, report) = time_shards(&cfg, true, reps);
            let (sequential_ns, sequential_report) = time_shards(&cfg, false, reps);
            assert_eq!(
                serde_json::to_string(&report).unwrap(),
                serde_json::to_string(&sequential_report).unwrap(),
                "threaded and sequential ensembles diverged at {shards} shards"
            );
            ShardBench {
                scheme: report.scheme.clone(),
                shards,
                events: report.events,
                wall_ns_median_threaded: threaded_ns,
                wall_ns_median_sequential: sequential_ns,
                events_per_sec: report.events as f64 * 1e9 / threaded_ns.max(1) as f64,
                speedup: sequential_ns as f64 / threaded_ns.max(1) as f64,
            }
        })
        .collect()
}

/// Measures one space-parallel DUP run at each [`SPACE_SWEEP`] shard count,
/// on a network of at least [`SPACE_CURVE_MIN_NODES`] nodes, asserting that
/// every shard count simulated the same run (identical query and delivery
/// totals — the bit-identical-log contract is pinned by the test suite).
fn space_curve(base: &RunConfig, reps: usize) -> Vec<SpaceBench> {
    let mut cfg = base.clone();
    let nodes = match &cfg.topology {
        TopologySource::RandomTree(p) => p.nodes.max(SPACE_CURVE_MIN_NODES),
        _ => SPACE_CURVE_MIN_NODES,
    };
    cfg.topology = TopologySource::RandomTree(TopologyParams {
        nodes,
        max_degree: 4,
    });
    let mut baseline_ns = 0u64;
    let mut baseline_queries = 0u64;
    SPACE_SWEEP
        .iter()
        .map(|&shards| {
            cfg.space_shards = shards;
            let _ = run_simulation_kind(&cfg, SchemeKind::Dup, ProbeSink::disabled());
            let mut times: Vec<u64> = Vec::with_capacity(reps);
            let mut last = None;
            for _ in 0..reps {
                let started = std::time::Instant::now();
                let report = run_simulation_kind(&cfg, SchemeKind::Dup, ProbeSink::disabled());
                times.push(started.elapsed().as_nanos() as u64);
                last = Some(report);
            }
            times.sort_unstable();
            let median = times[times.len() / 2];
            let report = last.expect("reps >= 1");
            if shards == 1 {
                baseline_ns = median;
                baseline_queries = report.queries;
            } else {
                assert_eq!(
                    report.queries, baseline_queries,
                    "space partitioning changed the simulated run at {shards} shards"
                );
            }
            SpaceBench {
                scheme: report.scheme.clone(),
                space_shards: shards,
                nodes,
                events: report.events,
                wall_ns_median: median,
                events_per_sec: report.events as f64 * 1e9 / median.max(1) as f64,
                speedup_vs_one_shard: baseline_ns as f64 / median.max(1) as f64,
                cross_shard_message_ratio: report.cross_shard_message_ratio,
                peak_queue_depth_per_shard: report.peak_queue_depth_per_shard.clone(),
            }
        })
        .collect()
}

/// Renders the report as an aligned text table for the console.
pub fn render_text(report: &BenchReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "scheme_sim throughput (scale={}, seed={}, {} reps/cell)\n",
        report.scale, report.seed, report.reps
    ));
    out.push_str(&format!(
        "{:<8} {:<9} {:>12} {:>12} {:>14} {:>10}\n",
        "scheme", "backend", "events", "ns/event", "events/sec", "peak_q"
    ));
    for c in &report.cells {
        out.push_str(&format!(
            "{:<8} {:<9} {:>12} {:>12.1} {:>14.0} {:>10}\n",
            c.scheme, c.backend, c.events, c.ns_per_event, c.events_per_sec, c.peak_queue_depth
        ));
    }
    // A one-core host runs "threaded" shards back-to-back anyway, so the
    // speedup ratio is sequential-vs-sequential — 1.0 by construction, not
    // a measurement. Skip the column rather than print a hollow number.
    let show_speedup = report.cores > 1;
    if show_speedup {
        out.push_str(&format!(
            "\nshard curve ({} logical cores on this host)\n{:<8} {:>7} {:>12} {:>14} {:>9}\n",
            report.cores, "scheme", "shards", "events", "events/sec", "speedup"
        ));
    } else {
        out.push_str(&format!(
            "\nshard curve (1 logical core on this host; speedup omitted — \
             sequential by construction)\n{:<8} {:>7} {:>12} {:>14}\n",
            "scheme", "shards", "events", "events/sec"
        ));
    }
    for s in &report.shard_curve {
        if show_speedup {
            out.push_str(&format!(
                "{:<8} {:>7} {:>12} {:>14.0} {:>8.2}x\n",
                s.scheme, s.shards, s.events, s.events_per_sec, s.speedup
            ));
        } else {
            out.push_str(&format!(
                "{:<8} {:>7} {:>12} {:>14.0}\n",
                s.scheme, s.shards, s.events, s.events_per_sec
            ));
        }
    }
    if let Some(nodes) = report.space_curve.first().map(|s| s.nodes) {
        if show_speedup {
            out.push_str(&format!(
                "\nspace curve (one {nodes}-node DUP run, node space partitioned)\n\
                 {:<8} {:>7} {:>12} {:>14} {:>9} {:>12}\n",
                "scheme", "shards", "events", "events/sec", "speedup", "cross-ratio"
            ));
        } else {
            out.push_str(&format!(
                "\nspace curve (one {nodes}-node DUP run, node space partitioned; \
                 1 core — speedup omitted)\n{:<8} {:>7} {:>12} {:>14} {:>12}\n",
                "scheme", "shards", "events", "events/sec", "cross-ratio"
            ));
        }
        for s in &report.space_curve {
            if show_speedup {
                out.push_str(&format!(
                    "{:<8} {:>7} {:>12} {:>14.0} {:>8.2}x {:>12.4}\n",
                    s.scheme,
                    s.space_shards,
                    s.events,
                    s.events_per_sec,
                    s.speedup_vs_one_shard,
                    s.cross_shard_message_ratio
                ));
            } else {
                out.push_str(&format!(
                    "{:<8} {:>7} {:>12} {:>14.0} {:>12.4}\n",
                    s.scheme,
                    s.space_shards,
                    s.events,
                    s.events_per_sec,
                    s.cross_shard_message_ratio
                ));
            }
        }
    }
    if !report.observability.is_empty() {
        out.push_str(&format!(
            "\nobservability tax (interleaved plain vs load accounting + profiling)\n\
             {:<8} {:>14} {:>14} {:>9} {:>9} {:>12}\n",
            "scheme", "plain ns", "observed ns", "overhead", "(by min)", "load events"
        ));
        for o in &report.observability {
            out.push_str(&format!(
                "{:<8} {:>14} {:>14} {:>8.1}% {:>8.1}% {:>12}\n",
                o.scheme,
                o.wall_ns_median_plain,
                o.wall_ns_median_observed,
                (o.overhead_ratio - 1.0) * 100.0,
                (o.overhead_ratio_min - 1.0) * 100.0,
                o.load_events
            ));
        }
    }
    if let Some(p) = &report.dup_profile {
        let total = p.total_secs().max(f64::MIN_POSITIVE);
        out.push_str(&format!(
            "\nDUP engine profile ({} events): pop {:.1}% dispatch {:.1}% \
             (probe emit {:.3} ms inside dispatch); queue depth last {:.0} max {:.0}\n",
            p.events,
            p.pop_secs / total * 100.0,
            p.dispatch_secs / total * 100.0,
            p.probe_secs * 1e3,
            p.queue_depth.last().map(|s| s.value).unwrap_or(0.0),
            p.queue_depth.max().unwrap_or(0.0),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Scale;

    #[test]
    fn bench_report_covers_all_cells_and_is_consistent() {
        let opts = HarnessOpts {
            scale: Scale::Bench,
            seed: 7,
            ..HarnessOpts::default()
        };
        let report = bench_report(&opts, 1);
        assert_eq!(report.cells.len(), 6); // 3 schemes × 2 backends
        for cell in &report.cells {
            assert!(cell.events > 0, "{}: no events", cell.scheme);
            assert!(cell.ns_per_event > 0.0);
            assert!(cell.events_per_sec > 0.0);
            assert!(cell.peak_queue_depth > 0);
            assert!(cell.wall_ns_min <= cell.wall_ns_median);
        }
        // Determinism: both backends process identical event streams.
        for kind in ["PCX", "CUP", "DUP"] {
            let pair: Vec<_> = report.cells.iter().filter(|c| c.scheme == kind).collect();
            assert_eq!(pair[0].events, pair[1].events, "{kind} backends disagree");
            assert_eq!(pair[0].queries, pair[1].queries);
            assert_eq!(pair[0].peak_queue_depth, pair[1].peak_queue_depth);
        }
        // The multi-core curve covers the fixed shard sweep, and total
        // work grows with the ensemble size.
        let counts: Vec<usize> = report.shard_curve.iter().map(|s| s.shards).collect();
        assert_eq!(counts, vec![1, 2, 4]);
        for s in &report.shard_curve {
            assert_eq!(s.scheme, "DUP");
            assert!(s.events > 0);
            assert!(s.speedup > 0.0);
        }
        assert!(report.shard_curve[2].events > report.shard_curve[0].events);
        assert!(report.cores >= 1);
        // The space curve partitions ONE run: event totals are identical
        // across shard counts, and the curve always runs ≥ 10k nodes.
        let space_counts: Vec<usize> = report.space_curve.iter().map(|s| s.space_shards).collect();
        assert_eq!(space_counts, vec![1, 2, 4]);
        for s in &report.space_curve {
            assert_eq!(s.scheme, "DUP");
            assert!(s.nodes >= SPACE_CURVE_MIN_NODES);
            assert_eq!(s.events, report.space_curve[0].events);
            assert_eq!(s.peak_queue_depth_per_shard.len(), s.space_shards);
        }
        assert_eq!(report.space_curve[0].cross_shard_message_ratio, 0.0);
        assert!(report.space_curve[2].cross_shard_message_ratio > 0.0);
        // The observability A/B covers every scheme; the observed arm does
        // real accounting (nonzero load events) and both arms ran.
        assert_eq!(report.observability.len(), 3);
        for o in &report.observability {
            assert!(o.load_events > 0, "{}: observed arm saw no load", o.scheme);
            assert!(o.wall_ns_median_plain > 0 && o.wall_ns_median_observed > 0);
            assert!(o.overhead_ratio > 0.0);
            assert!(o.wall_ns_min_plain <= o.wall_ns_median_plain);
            assert!(o.wall_ns_min_observed <= o.wall_ns_median_observed);
            assert!(o.overhead_ratio_min > 0.0);
        }
        // The observed DUP run left its engine profile behind.
        let profile = report.dup_profile.as_ref().expect("DUP profile harvested");
        assert!(profile.events > 0);
        assert!(profile.dispatch_secs > 0.0);
        assert!(!profile.queue_depth.is_empty());
        let text = render_text(&report);
        assert!(text.contains("DUP") && text.contains("timer-wheel"));
        assert!(text.contains("shard curve"));
        assert!(text.contains("space curve"));
        assert!(text.contains("observability tax"));
        assert!(text.contains("DUP engine profile"));
        // Satellite of the space-parallel work: a 1-core host prints no
        // speedup column (the ratio would be sequential-by-construction).
        if report.cores == 1 {
            assert!(!text.contains("speedup\n") && text.contains("omitted"));
        }
    }
}
