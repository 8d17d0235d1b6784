//! Wall-clock benchmark of the HET-GMP training system.
//!
//! ```text
//! hetgmp-perfbench --workload <ctr-ssp|ctr-tiered|kg-transe> --seed <n>
//!                  --seconds <s> --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! Generates the workload's inputs from `--seed`, runs one untimed warm-up
//! training run, then repeats timed training runs ("reps") for `--seconds`
//! seconds (at least three) and checks every output. The last stdout line
//! is one JSON object `{"correct", "attempted", "failed", "metrics"}`:
//! with `--trace 0` the metrics are the end-to-end medians over the reps,
//! with `--trace 1` the per-layer figures. The line before it is a report
//! (run manifest, host cores, per-rep values, quality spread, checks),
//! also written with the span trace under `--out-dir`. See
//! `perfbench/README.md` for every metric's definition.

mod layers;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use hetgmp_core::trainer::StorageMode;
use hetgmp_core::CtrModel;
use hetgmp_data::{CtrDataset, KgDataset};
use hetgmp_partition::PartitionMetrics;
use hetgmp_telemetry::{names, Json};

use crate::stats::{median, nproc, peak_rss_mb, range};
use crate::trace::{traced, Tracer};
use crate::workloads::{Inputs, Rep, Workload};

/// Fewest timed reps a run reports, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// Seconds of further untimed warm-up reps after the first one.
const WARMUP_S: f64 = 2.0;
/// Seconds each layer replay runs for in a traced run.
const REPLAY_S: f64 = 0.5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        kv.insert(key.to_string(), value);
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("missing --{k}"));
    let workload = Workload::parse(get("workload")?)
        .ok_or_else(|| format!("unknown workload {:?}", kv["workload"]))?;
    let seed = get("seed")?
        .parse()
        .map_err(|e| format!("bad --seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("bad --seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let out_dir = kv.get("out-dir").map_or_else(
        || PathBuf::from(".bench_build/perfbench-out"),
        PathBuf::from,
    );
    if let Some(k) = kv
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace", "out-dir"].contains(&k.as_str()))
    {
        return Err(format!("unknown flag --{k}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        out_dir,
    })
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Runs one rep of the workload; `tracer` wraps its API calls in spans.
fn run_rep(args: &Args, inputs: &Inputs, rep: usize, tracer: Option<&Tracer>) -> Rep {
    let w = args.workload;
    match inputs {
        Inputs::Ctr(data) if w == Workload::CtrTiered => {
            let dir = workloads::spill_dir(&args.out_dir, rep);
            let r = workloads::ctr_rep(w, data, args.seed, workloads::tiered_storage(&dir), tracer);
            // Spill files never outlive the rep; a missing dir is fine.
            let _ = std::fs::remove_dir_all(&dir);
            r
        }
        Inputs::Ctr(data) => workloads::ctr_rep(w, data, args.seed, StorageMode::Memory, tracer),
        Inputs::Kg(kg) => workloads::kg_rep(kg, args.seed, tracer),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: hetgmp-perfbench --workload <ctr-ssp|ctr-tiered|kg-transe> --seed <n> \
                 --seconds <s> --trace <0|1> [--out-dir <dir>]"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.out_dir.display()))?;
    let tracer = args.trace.then(|| {
        Tracer::new(format!(
            "{}-seed{}-pid{}",
            w.name(),
            args.seed,
            std::process::id()
        ))
    });
    let t = tracer.as_ref();
    let inputs = workloads::generate_inputs(w, args.seed, t);
    let mut checks: Vec<String> = Vec::new();

    // Warm-up: caches fill and lazy set-up finishes outside the timing.
    // The process peak RSS is read after the first run: the inputs plus
    // one whole training call, however many reps follow.
    drop(run_rep(args, &inputs, 0, None));
    let peak_rss = peak_rss_mb()?;
    let warm_until = Instant::now() + Duration::from_secs_f64(WARMUP_S);
    while Instant::now() < warm_until {
        drop(run_rep(args, &inputs, 0, None));
    }

    // Timed reps. A traced run alternates untraced and traced reps so the
    // spans' own cost shows as `trace.overhead_share`.
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut reps: Vec<(Rep, bool)> = Vec::new();
    while reps.len() < MIN_REPS || Instant::now() < deadline {
        let traced_rep = t.is_some() && reps.len() % 2 == 1;
        if let Some(tr) = t {
            tr.next_run();
        }
        let rep = traced(t, "rep", || {
            run_rep(
                args,
                &inputs,
                reps.len() + 1,
                if traced_rep { t } else { None },
            )
        });
        reps.push((rep, traced_rep));
    }
    let ok: Vec<&Rep> = reps
        .iter()
        .map(|(r, _)| r)
        .filter(|r| r.failed == 0)
        .collect();
    let attempted: u64 = reps.iter().map(|(r, _)| r.batches).sum();
    let failed: u64 = reps.iter().map(|(r, _)| r.failed).sum();

    // ---- Checks on what the program produced -----------------------------
    if ok.len() < reps.len() {
        checks.push(format!(
            "{} of {} reps failed",
            reps.len() - ok.len(),
            reps.len()
        ));
    }
    for (i, r) in ok.iter().enumerate() {
        if r.quality.is_nan() || r.quality < w.quality_floor() {
            checks.push(format!(
                "rep {i}: quality {} below the floor {}",
                r.quality,
                w.quality_floor()
            ));
        }
        if !(r.samples > 0 && r.loop_s > 0.0 && r.setup_s > 0.0 && r.cpu_s > 0.0) {
            checks.push(format!(
                "rep {i}: implausible timing (samples {}, loop {} s, setup {} s, cpu {} s)",
                r.samples, r.loop_s, r.setup_s, r.cpu_s
            ));
        }
        if let Some(tel) = &r.telemetry {
            let growth = tel.gauge(names::DENSE_TAPE_GROWTH).unwrap_or(f64::NAN);
            if growth != 0.0 {
                checks.push(format!(
                    "rep {i}: dense.tape.post_warmup_growth = {growth}, want 0"
                ));
            }
        }
    }
    let mut reference_loop_s: Vec<f64> = Vec::new();
    if let (Workload::CtrTiered, Inputs::Ctr(data)) = (w, &inputs) {
        check_tiered(args, data, &ok, t, &mut reference_loop_s, &mut checks);
    }

    // ---- Result ----------------------------------------------------------
    let col = |f: &dyn Fn(&Rep) -> f64| -> Vec<f64> { ok.iter().map(|r| f(r)).collect() };
    let qualities = col(&|r| r.quality);
    let metrics: Vec<Metric> = if args.trace {
        layer_metrics(args, &inputs, &reps, &reference_loop_s, t)
    } else {
        vec![
            metric(
                "samples_per_s",
                median(&col(&|r| r.samples as f64 / r.loop_s)),
                "1/s",
            ),
            metric(
                "samples_per_cpu_s",
                median(&col(&|r| r.samples as f64 / r.cpu_s)),
                "1/s",
            ),
            metric("run_s", median(&col(&|r| r.run_s)), "s"),
            metric("setup_s", median(&col(&|r| r.setup_s)), "s"),
            metric("peak_rss_mb", peak_rss, "MiB"),
            metric("quality", median(&qualities), "score"),
            metric(
                "sim_samples_per_s",
                median(&col(&|r| r.sim_samples_per_s)),
                "1/s",
            ),
        ]
    };
    for m in &metrics {
        if !m.value.is_finite() {
            checks.push(format!("metric {} is not finite", m.name));
        }
    }
    let correct = checks.is_empty();

    let manifest = ok.first().map_or(Json::Null, |r| r.manifest.to_json());
    let report = Json::obj([
        ("workload", Json::from(w.name())),
        ("seed", Json::U64(args.seed)),
        ("trace", Json::Bool(args.trace)),
        ("nproc", Json::U64(nproc() as u64)),
        ("manifest", manifest),
        ("reps", Json::U64(reps.len() as u64)),
        (
            "quality_per_rep",
            Json::Arr(qualities.iter().map(|&q| Json::F64(q)).collect()),
        ),
        ("quality_spread", Json::F64(range(&qualities))),
        (
            "samples_per_s_per_rep",
            Json::Arr(
                col(&|r| r.samples as f64 / r.loop_s)
                    .into_iter()
                    .map(Json::F64)
                    .collect(),
            ),
        ),
        (
            "checks_failed",
            Json::Arr(checks.iter().map(|c| Json::from(c.as_str())).collect()),
        ),
    ]);
    let stem = format!(
        "{}-seed{}-trace{}",
        w.name(),
        args.seed,
        u8::from(args.trace)
    );
    let mut artifact = vec![("report".to_string(), report.clone())];
    if let Some(tr) = t {
        artifact.push(("trace".to_string(), tr.to_json()));
    }
    let path = args.out_dir.join(format!("{stem}.json"));
    std::fs::write(&path, Json::Obj(artifact).render() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    for c in &checks {
        eprintln!("check failed: {c}");
    }

    println!("{}", Json::obj([("report", report)]).render());
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::U64(attempted.max(1))),
        ("failed", Json::U64(failed)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.to_string(),
                            Json::obj([
                                ("value", Json::F64(m.value)),
                                ("unit", Json::from(m.unit)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", result.render());
    Ok(())
}

/// `ctr-tiered`'s contract: faults happen, repeat exactly, and the tiered
/// runs' quality is bit-equal to a 1-worker in-memory run on the same
/// inputs. The in-memory reference runs are untimed unless tracing, where
/// their loop wall gives the fault service time.
fn check_tiered(
    args: &Args,
    data: &CtrDataset,
    ok: &[&Rep],
    tracer: Option<&Tracer>,
    reference_loop_s: &mut Vec<f64>,
    checks: &mut Vec<String>,
) {
    let faults: Vec<u64> = ok.iter().map(|r| r.faults.unwrap_or(0)).collect();
    if faults.contains(&0) {
        checks.push("a tiered rep reported no page faults".into());
    }
    if faults.windows(2).any(|p| p[0] != p[1]) {
        checks.push(format!(
            "tiered fault counts differ across reps: {faults:?}"
        ));
    }
    let references = if tracer.is_some() { MIN_REPS } else { 1 };
    for _ in 0..references {
        let reference = traced(tracer, "reference.memory_run", || {
            workloads::ctr_rep(
                Workload::CtrTiered,
                data,
                args.seed,
                StorageMode::Memory,
                None,
            )
        });
        reference_loop_s.push(reference.loop_s);
        for (i, r) in ok.iter().enumerate() {
            if r.quality.to_bits() != reference.quality.to_bits() {
                checks.push(format!(
                    "rep {i}: tiered quality {} differs from the in-memory run's {}",
                    r.quality, reference.quality
                ));
            }
        }
    }
}

/// Layer figures from the benchmark's own calls: the timed set-up calls,
/// the partition they produce, and the layer replays.
struct OwnCalls {
    bigraph_s: f64,
    partition_s: f64,
    remote_fetches_per_sample: f64,
    /// Remote accesses over all accesses, from the partition.
    remote_share: f64,
    replicas: f64,
    replay: layers::TableReplay,
    tape_gflops: f64,
    /// Floats in one dense AllReduce of the workload's model.
    dense_len: usize,
}

fn ctr_own_calls(args: &Args, data: &CtrDataset, tracer: Option<&Tracer>) -> OwnCalls {
    let w = args.workload;
    let cfg = workloads::ctr_config(w, args.seed, StorageMode::Memory);
    let (mut bigraph_s, mut partition_s) = (Vec::new(), Vec::new());
    let mut metrics = None;
    for _ in 0..MIN_REPS {
        let setup = workloads::ctr_partition(w, data, args.seed, tracer);
        bigraph_s.push(setup.bigraph_s);
        partition_s.push(setup.partition_s);
        let m = PartitionMetrics::compute(&setup.graph, &setup.partition, None);
        metrics = Some((m, setup.graph.num_samples()));
    }
    let (m, train_samples) = metrics.expect("MIN_REPS > 0");
    let batches = layers::ctr_batches(data, cfg.test_fraction);
    let replay = traced(tracer, "replay.row_store", || {
        layers::table_replay(
            data.num_features,
            cfg.dim,
            cfg.seed,
            &batches,
            w.workers(),
            REPLAY_S,
        )
    });
    let train = data.split(cfg.test_fraction).train;
    let tape_gflops = traced(tracer, "replay.ctr_model_tape", || {
        layers::tape_replay(data, &train, cfg.dim, &cfg.hidden, cfg.seed, REPLAY_S)
    });
    let mut model = CtrModel::new(cfg.model, data.num_fields, cfg.dim, &cfg.hidden, cfg.seed);
    OwnCalls {
        bigraph_s: median(&bigraph_s),
        partition_s: median(&partition_s),
        remote_fetches_per_sample: m.remote_fetches as f64 / train_samples.max(1) as f64,
        remote_share: m.remote_fraction(),
        replicas: workloads::secondary_replicas(&m) as f64,
        replay,
        tape_gflops,
        dense_len: model.num_dense_params(),
    }
}

fn kg_own_calls(args: &Args, kg: &KgDataset, ok: &[&Rep], tracer: Option<&Tracer>) -> OwnCalls {
    let w = args.workload;
    let cfg = workloads::kg_config(args.seed);
    let setups: Vec<&workloads::KgSetup> = ok.iter().filter_map(|r| r.kg_setup.as_ref()).collect();
    let of = |f: &dyn Fn(&workloads::KgSetup) -> f64| {
        median(&setups.iter().map(|s| f(s)).collect::<Vec<_>>())
    };
    let batches = layers::kg_batches(kg, args.seed);
    let replay = traced(tracer, "replay.row_store", || {
        layers::table_replay(
            kg.num_entities,
            cfg.dim,
            cfg.seed,
            &batches,
            w.workers(),
            REPLAY_S,
        )
    });
    OwnCalls {
        bigraph_s: of(&|s| s.bigraph_s),
        partition_s: of(&|s| s.partition_s),
        remote_fetches_per_sample: of(&|s| s.remote_fetches as f64 / s.train_triples as f64),
        remote_share: of(&|s| s.remote_share),
        replicas: of(&|s| s.replicas as f64),
        replay,
        tape_gflops: 0.0,
        dense_len: kg.num_relations * cfg.dim,
    }
}

/// The traced run's per-layer figures: medians over the reps' telemetry
/// (CTR), the benchmark's own set-up calls and the layer replays. A figure
/// of a layer the workload does not use reads 0 (README.md lists which).
fn layer_metrics(
    args: &Args,
    inputs: &Inputs,
    reps: &[(Rep, bool)],
    reference_loop_s: &[f64],
    tracer: Option<&Tracer>,
) -> Vec<Metric> {
    let w = args.workload;
    let ok: Vec<&Rep> = reps
        .iter()
        .map(|(r, _)| r)
        .filter(|r| r.failed == 0)
        .collect();
    let sps = |traced_rep: bool| {
        median(
            &reps
                .iter()
                .filter(|(r, tr)| *tr == traced_rep && r.failed == 0)
                .map(|(r, _)| r.samples as f64 / r.loop_s)
                .collect::<Vec<_>>(),
        )
    };
    let trace_overhead = 1.0 - sps(true) / sps(false);

    // Telemetry-derived layer ratios, median per key over the reps.
    let mut per_key: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for r in &ok {
        if let Some(tel) = &r.telemetry {
            for (k, v) in layers::ctr_run_layers(tel, r.loop_s, w.workers(), w.epochs()) {
                per_key.entry(k).or_default().push(v);
            }
        }
    }
    // Where the workload's trainer reports no telemetry (KG), a figure
    // falls back to the benchmark's own measurement of it.
    let run_or = |k: &str, fallback: f64| per_key.get(k).map_or(fallback, |v| median(v));
    let run = |k: &str| run_or(k, 0.0);

    let own = match inputs {
        Inputs::Ctr(data) => ctr_own_calls(args, data, tracer),
        Inputs::Kg(kg) => kg_own_calls(args, kg, &ok, tracer),
    };
    let kg_embed_bytes = median(
        &ok.iter()
            .filter_map(|r| {
                r.kg_setup
                    .as_ref()
                    .map(|s| s.embed_bytes as f64 / r.samples.max(1) as f64)
            })
            .collect::<Vec<_>>(),
    );
    let allreduce_us = traced(tracer, "replay.allreduce", || {
        layers::allreduce_replay(own.dense_len, REPLAY_S)
    });
    // Fault service: tiered loop wall minus the same-input in-memory loop
    // wall, per fault.
    let loop_s = median(&ok.iter().map(|r| r.loop_s).collect::<Vec<_>>());
    let fault_service_us = match ok.first().and_then(|r| r.faults) {
        Some(f) if f > 0 && !reference_loop_s.is_empty() => {
            (loop_s - median(reference_loop_s)) / f as f64 * 1e6
        }
        _ => 0.0,
    };
    let qualities: Vec<f64> = ok.iter().map(|r| r.quality).collect();
    let generate_s = tracer
        .and_then(|t| t.last("data.generate"))
        .unwrap_or(f64::NAN);

    // The unattributed share is the rest of the reported stage medians, so
    // the five shares sum to 1.
    let stages = ["fetch", "compute", "write_back", "sync"].map(|s| {
        let name = format!("pipeline.{s}_share");
        run(&name)
    });
    vec![
        metric("pipeline.fetch_share", stages[0], "share"),
        metric("pipeline.compute_share", stages[1], "share"),
        metric("pipeline.write_back_share", stages[2], "share"),
        metric("pipeline.sync_share", stages[3], "share"),
        metric(
            "pipeline.unattributed_share",
            1.0 - stages.iter().sum::<f64>(),
            "share",
        ),
        metric(
            "embedding.read_rows_per_s",
            own.replay.read_rows_per_s,
            "rows/s",
        ),
        metric(
            "embedding.apply_rows_per_s",
            own.replay.apply_rows_per_s,
            "rows/s",
        ),
        metric(
            "embedding.lock_acquisitions_per_batch",
            run_or(
                "embedding.lock_acquisitions_per_batch",
                own.replay.lock_acquisitions_per_batch,
            ),
            "count",
        ),
        metric(
            "embedding.read_retry_share",
            run_or("embedding.read_retry_share", own.replay.read_retry_share),
            "share",
        ),
        metric(
            "embedding.remote_read_share",
            run_or("embedding.remote_read_share", own.remote_share),
            "share",
        ),
        metric(
            "embedding.sync_rows_per_batch",
            run("embedding.sync_rows_per_batch"),
            "rows",
        ),
        metric(
            "tiered.faults_per_epoch",
            run("tiered.faults_per_epoch"),
            "count",
        ),
        metric(
            "tiered.writebacks_per_epoch",
            run("tiered.writebacks_per_epoch"),
            "count",
        ),
        metric(
            "tiered.rows_per_fault",
            run("tiered.rows_per_fault"),
            "rows",
        ),
        metric("tiered.fault_service_us", fault_service_us, "us"),
        metric(
            "tensor.dense_samples_per_s",
            run("tensor.dense_samples_per_s"),
            "1/s",
        ),
        metric("tensor.gemm_gflops", run("tensor.gemm_gflops"), "GFLOP/s"),
        metric("tensor.tape_gflops", own.tape_gflops, "GFLOP/s"),
        metric(
            "comms.embed_bytes_per_sample",
            run_or("comms.embed_bytes_per_sample", kg_embed_bytes),
            "B",
        ),
        metric(
            "comms.meta_bytes_per_sample",
            run("comms.meta_bytes_per_sample"),
            "B",
        ),
        metric(
            "comms.allreduce_bytes_per_sample",
            run("comms.allreduce_bytes_per_sample"),
            "B",
        ),
        metric(
            "comms.messages_per_sample",
            run("comms.messages_per_sample"),
            "count",
        ),
        metric("comms.allreduce_us", allreduce_us, "us"),
        metric("partition.wall_s", own.partition_s, "s"),
        metric("bigraph.build_s", own.bigraph_s, "s"),
        metric(
            "partition.remote_fetches_per_sample",
            own.remote_fetches_per_sample,
            "count",
        ),
        metric("partition.replicas", own.replicas, "count"),
        metric(
            "telemetry.overhead_share",
            run("telemetry.overhead_share"),
            "share",
        ),
        metric("trace.overhead_share", trace_overhead, "share"),
        metric("data.generate_s", generate_s, "s"),
        metric("quality.rep_spread", range(&qualities), "score"),
    ]
}
