//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A workload is one or more fixed-work parts. A run repeats rounds, one
//! rep of every part per round, for `--seconds` host seconds (at least
//! [`MIN_REPS`] rounds), checks every rep's outputs, and prints one JSON
//! object as the last line of standard output:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, measured with tracing off; with
//! `--trace 1` untraced and traced reps alternate and the metrics are the
//! per-layer ones, taken from the traced reps only, plus the tracing
//! overhead against the untraced reps. Each run also writes a result file
//! with a host fingerprint (and, when traced, every recorded span) under
//! `perfbench/results/`. See `perfbench/README.md` for the workloads.

mod host;
mod live;
mod probe;
mod sim;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use serde_json::{json, Value};

use trace::Tracer;

/// Rounds every run makes, however long they take.
const MIN_REPS: usize = 3;
/// Host seconds after which a run stops starting new rounds regardless,
/// keeping every run well inside its time limit.
const HARD_STOP_SECS: f64 = 120.0;
/// Tolerance of the layer accounting check: the time no layer's span
/// covers, as a share of the traced rep time.
const UNATTRIBUTED_TOLERANCE: f64 = 0.05;

/// One fixed-work rep as the harness sees it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rep {
    /// Host nanoseconds of set-up (topology build and `World` init, or
    /// cluster boot).
    pub setup_ns: u64,
    /// Host nanoseconds of the fixed work, set-up and checks excluded.
    pub run_ns: u64,
    /// Simulated events, or live host steps (frames handled plus timer
    /// advances).
    pub events: u64,
    /// Node-to-node messages: simulated message hops, or live frames.
    pub messages: u64,
    /// Operations attempted: simulation runs, or live restarts.
    pub ops: u64,
    /// Operations that failed their check.
    pub failed: u64,
}

impl Rep {
    fn add(&mut self, o: &Rep) {
        self.setup_ns += o.setup_ns;
        self.run_ns += o.run_ns;
        self.events += o.events;
        self.messages += o.messages;
        self.ops += o.ops;
        self.failed += o.failed;
    }
}

/// Per-layer metric values, by name (see [`PER_LAYER`]).
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.0.insert(name, value);
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// A benchmark workload.
pub trait Workload {
    /// Runs one fixed-work rep, tracing into `tr` when it is on.
    fn rep(&mut self, tr: &mut Tracer) -> Rep;
    /// The paper's metrics over the last rep's DUP queries: mean latency
    /// and mean cost, in hops per query.
    fn dup_hops(&self) -> (f64, f64);
    /// Fills the per-layer metrics from the traced reps.
    fn layers(&self, tr: &Tracer, traced: &[Rep], out: &mut Layers);
    /// The workload's sizes, for the result file.
    fn sizes(&self) -> Value;
    /// Descriptions of every failed check so far.
    fn failures(&self) -> &[String];
    /// False when an output contradicts a deterministic reference.
    fn correct(&self) -> bool;
}

/// End-to-end metrics and units, in output order.
const END_TO_END: [(&str, &str); 8] = [
    ("run_s", "s"),
    ("events_per_s", "1/s"),
    ("frames_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ok_share", "share"),
    ("dup_latency_hops", "hops"),
    ("dup_cost_hops", "hops"),
];

/// Per-layer metrics and units, in output order. A workload that bypasses
/// a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("sim.events", "count"),
    ("sim.peak_queue_depth", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.pop_share", "share"),
    ("sim.dispatch_share", "share"),
    ("space.cross_shard_ratio", "share"),
    ("space.cross_shard_messages", "count"),
    ("space.queue_depth_skew", "ratio"),
    ("space.overhead_ns_per_event", "ns"),
    ("overlay.build_s", "s"),
    ("overlay.churn_ops", "count"),
    ("proto.queries", "count"),
    ("proto.request_hops", "count"),
    ("proto.reply_hops", "count"),
    ("proto.local_hit_fraction", "share"),
    ("proto.cache_inserts", "count"),
    ("proto.cache_expires", "count"),
    ("reliable.retransmits", "count"),
    ("reliable.duplicates_suppressed", "count"),
    ("reliable.useful_ratio", "share"),
    ("faults.drops", "count"),
    ("probe.events", "count"),
    ("probe.record_ns", "ns"),
    ("probe.time_share", "share"),
    ("core.subscribes", "count"),
    ("core.unsubscribes", "count"),
    ("core.substitutes", "count"),
    ("core.push_hops", "count"),
    ("core.control_hops", "count"),
    ("core.oracle_s", "s"),
    ("live.frames", "count"),
    ("live.heartbeat_share", "share"),
    ("live.host_ns_per_frame", "ns"),
    ("live.on_frame_s", "s"),
    ("live.advance_s", "s"),
    ("live.queries_issued", "count"),
    ("live.codec_ns_per_frame", "ns"),
    ("live.frame_bytes_mean", "bytes"),
    ("rejoin_s", "virtual_s"),
    ("failed_share", "share"),
    ("trace.overhead", "share"),
    ("trace.unattributed_share", "share"),
];

/// The benchmark's workloads and their parts, in run order. A part's own
/// name runs it alone, for a closer look at one of them.
const WORKLOADS: [(&str, &[&str]); 2] = [
    (
        "simulator",
        &["paper_sweep", "churn_observed", "space_split"],
    ),
    ("live_cluster", &["live_cluster"]),
];

const PARTS: [&str; 4] = [
    "paper_sweep",
    "churn_observed",
    "space_split",
    "live_cluster",
];

fn parts_of(workload: &str) -> Option<Vec<&'static str>> {
    if let Some((_, parts)) = WORKLOADS.iter().find(|(w, _)| *w == workload) {
        return Some(parts.to_vec());
    }
    PARTS.iter().find(|p| **p == workload).map(|p| vec![*p])
}

/// The part of a multi-part workload a per-layer metric is read from: the
/// one that exercises that layer (the README's layer table).
fn owner(metric: &str) -> &'static str {
    let churn = ["reliable.", "faults.", "probe.", "core."];
    if metric.starts_with("space.") {
        "space_split"
    } else if churn.iter().any(|p| metric.starts_with(p)) || metric == "overlay.churn_ops" {
        "churn_observed"
    } else {
        "paper_sweep"
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if parts_of(&workload).is_none() {
        let names: Vec<&str> = WORKLOADS.iter().map(|(w, _)| *w).chain(PARTS).collect();
        return Err(format!(
            "unknown workload {workload} (expected one of {names:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(sim::DEFAULT_SEED),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn make(part: &str, seed: u64) -> Box<dyn Workload> {
    match part {
        "paper_sweep" => Box::new(sim::PaperSweep::new(seed)),
        "churn_observed" => Box::new(sim::ChurnObserved::new(seed)),
        "space_split" => Box::new(sim::SpaceSplit::new(seed)),
        "live_cluster" => Box::new(live::LiveCluster::new(seed)),
        other => unreachable!("part {other} was validated"),
    }
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    let n = values.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn median_of(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    let mut v: Vec<f64> = reps.iter().map(f).collect();
    median(&mut v)
}

/// Per-round sums over the parts of `reps(part)`.
fn rounds(parts: &[Part], reps: impl Fn(&Part) -> &[Rep]) -> Vec<Rep> {
    let n = parts.iter().map(|p| reps(p).len()).min().unwrap_or(0);
    (0..n)
        .map(|i| {
            let mut r = Rep::default();
            for p in parts {
                r.add(&reps(p)[i]);
            }
            r
        })
        .collect()
}

/// One part of the running workload, with its own tracer so that its
/// per-layer numbers come from its own spans only.
struct Part {
    name: &'static str,
    w: Box<dyn Workload>,
    tr: Tracer,
    plain: Vec<Rep>,
    traced: Vec<Rep>,
}

fn metric(value: f64, unit: &str) -> Value {
    json!({"value": value, "unit": unit})
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let mut parts: Vec<Part> = parts_of(&args.workload)
        .expect("workload was validated")
        .into_iter()
        .map(|name| Part {
            name,
            w: make(name, args.seed),
            tr: Tracer::new(true),
            plain: Vec::new(),
            traced: Vec::new(),
        })
        .collect();
    let mut quiet = Tracer::new(false);
    let measure_from = Instant::now();
    let mut n_rounds = 0;
    loop {
        let round = Instant::now();
        for p in &mut parts {
            p.plain.push(p.w.rep(&mut quiet));
            if args.trace {
                p.tr.enter("rep");
                let rep = p.w.rep(&mut p.tr);
                p.tr.exit();
                p.traced.push(rep);
            }
        }
        n_rounds += 1;
        // Stop when another round would end past `--seconds`, so a run
        // measures for about that long whatever the round length.
        let elapsed = measure_from.elapsed().as_secs_f64();
        let next_end = elapsed + round.elapsed().as_secs_f64();
        if (next_end > args.seconds && n_rounds >= MIN_REPS) || elapsed >= HARD_STOP_SECS {
            break;
        }
    }
    let plain = rounds(&parts, |p| &p.plain);
    let traced = rounds(&parts, |p| &p.traced);
    // Every round repeats the same work, and each part checks that its
    // later reps reproduce its first; so the operations counted are the
    // first round's, and a run of a seed counts the same ones however
    // many rounds fit in `--seconds`.
    let attempted = plain[0].ops;
    let failed = plain[0].failed;
    let failed_share = failed as f64 / attempted.max(1) as f64;
    let correct = parts.iter().all(|p| p.w.correct());

    let mut metrics: Vec<(String, Value)> = Vec::new();
    if args.trace {
        let filled: Vec<(&str, Layers)> = parts
            .iter()
            .map(|p| {
                let mut l = Layers::default();
                p.w.layers(&p.tr, &p.traced, &mut l);
                (p.name, l)
            })
            .collect();
        let mut layers = Layers::default();
        for (name, _) in PER_LAYER {
            let from = match filled.as_slice() {
                [(_, only)] => only,
                all => match all.iter().find(|(part, _)| *part == owner(name)) {
                    Some((_, l)) => l,
                    None => continue,
                },
            };
            if let Some(v) = from.get(name) {
                layers.set(name, v);
            }
        }
        let untraced = median_of(&plain, |r| r.run_ns as f64);
        let with = median_of(&traced, |r| r.run_ns as f64);
        layers.set("trace.overhead", with / untraced - 1.0);
        let (self_ns, total_ns) = parts.iter().fold((0, 0), |(s, t), p| {
            let rep = p.tr.layer("rep");
            (s + rep.self_ns, t + rep.total_ns)
        });
        let unattributed = self_ns as f64 / total_ns.max(1) as f64;
        layers.set("trace.unattributed_share", unattributed);
        if unattributed.abs() > UNATTRIBUTED_TOLERANCE {
            eprintln!(
                "perfbench: layer accounting off: {:.1}% of traced rep time is in no layer \
                 (tolerance {:.0}%)",
                unattributed * 100.0,
                UNATTRIBUTED_TOLERANCE * 100.0
            );
        }
        layers.set("failed_share", failed_share);
        for (name, unit) in PER_LAYER {
            let v = layers.get(name).unwrap_or(0.0);
            metrics.push((name.to_string(), metric(v, unit)));
        }
    } else {
        // The paper's metrics come from the first part: paper_sweep's DUP
        // runs in the simulator workload.
        let (lat, cost) = parts[0].w.dup_hops();
        let run_s = median_of(&plain, |r| r.run_ns as f64 / 1e9);
        let values = [
            run_s,
            median_of(&plain, |r| r.events as f64 / (r.run_ns as f64 / 1e9)),
            median_of(&plain, |r| r.messages as f64 / (r.run_ns as f64 / 1e9)),
            median_of(&plain, |r| r.setup_ns as f64 / 1e9),
            host::peak_rss_mib(),
            1.0 - failed_share,
            lat,
            cost,
        ];
        for ((name, unit), v) in END_TO_END.iter().zip(values) {
            metrics.push((name.to_string(), metric(v, unit)));
        }
    }

    let result = json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": Value::Map(metrics),
    });
    let by_part = |f: &dyn Fn(&Part) -> Value| {
        Value::Map(parts.iter().map(|p| (p.name.to_string(), f(p))).collect())
    };
    let secs = |reps: &[Rep], f: fn(&Rep) -> u64| -> Vec<f64> {
        reps.iter().map(|r| f(r) as f64 / 1e9).collect()
    };
    let failures: Vec<String> = parts
        .iter()
        .flat_map(|p| {
            p.w.failures()
                .iter()
                .map(move |f| format!("{}: {f}", p.name))
        })
        .collect();
    let file = json!({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host::fingerprint(),
        "sizes": by_part(&|p| p.w.sizes()),
        "rounds": plain.len(),
        "round_run_s": secs(&plain, |r| r.run_ns),
        "round_setup_s": secs(&plain, |r| r.setup_ns),
        "traced_round_run_s": secs(&traced, |r| r.run_ns),
        "part_rep_run_s": by_part(&|p| json!(secs(&p.plain, |r| r.run_ns))),
        "wall_s": started.elapsed().as_secs_f64(),
        "failures": failures.iter().take(50).cloned().collect::<Vec<_>>(),
        "result": result.clone(),
        "layers": by_part(&|p| layer_table(&p.tr)),
        "spans": by_part(&|p| span_table(&p.tr)),
    });
    if let Err(e) = host::write_result(&args.workload, args.seed, args.trace, &file) {
        eprintln!("perfbench: could not write the result file: {e}");
    }
    for f in failures.iter().take(10) {
        eprintln!("perfbench: check failed: {f}");
    }
    println!(
        "{}",
        serde_json::to_string(&result).expect("result serializes")
    );
    ExitCode::SUCCESS
}

fn layer_table(tr: &Tracer) -> Value {
    Value::Map(
        tr.layers()
            .iter()
            .map(|(name, l)| {
                let v = json!({"calls": l.calls, "total_ns": l.total_ns, "self_ns": l.self_ns});
                (name.to_string(), v)
            })
            .collect(),
    )
}

fn span_table(tr: &Tracer) -> Value {
    Value::Seq(
        tr.records()
            .iter()
            .map(|s| {
                json!({"id": s.id, "parent": s.parent, "name": s.name,
                       "start_ns": s.start_ns, "end_ns": s.end_ns})
            })
            .collect(),
    )
}
