//! Pipelined-trainer perf baseline: the same fixed-seed end-to-end training
//! workload as `bench_dense`'s `end_to_end` section (longer — more epochs —
//! so wall-clock noise on short runs doesn't drown the schedule difference),
//! swept over software-pipeline depths {1, 2, 4}.
//!
//! Emits `BENCH_pipeline.json` (schema checked by
//! `scripts/check_bench_schema.sh BENCH_pipeline.json`):
//!
//! ```text
//! { "config": {...}, "manifest": {...},
//!   "depths": [ { "depth", "samples_per_sec", "samples_per_cpu_sec",
//!                 "stall_pct", "overlap_ratio", "overhead_pct",
//!                 "final_auc" }, ... ],
//!   "speedup": depth2.samples_per_sec / depth1.samples_per_sec }
//!
//! `samples_per_sec` is wall-clock (what the dense-baseline cross-check
//! gates on); `samples_per_cpu_sec` divides by whole-process CPU time
//! instead, which hypervisor steal and neighbor load cannot inflate — on a
//! shared host it is the stable witness that the pipelined schedule burns
//! less work per sample (fewer rendezvous) even when wall clock is noisy.
//! ```
//!
//! Every depth runs the same iteration schedule. Depth 1 fetches every
//! batch inline; depth >= 2 issues each batch's embedding read one
//! iteration ahead through the work-stealing prefetch cell — the schema
//! check asserts depth 2 beats the committed dense baseline. Depth 4
//! behaves like depth 2 (the write-back dependency caps useful lookahead at
//! one batch); it is benchmarked to document exactly that.
//!
//! Each depth runs several reps and reports the best rep's throughput (the
//! machine-noise floor, standard perf-bench practice on a shared host);
//! stall/overlap come from the same best rep. Reps are *interleaved*
//! (depth 1, 2, 4, 1, 2, 4, ...) so every depth samples the same noise
//! windows instead of one depth eating a load spike whole. The determinism
//! contract is asserted as part of the benchmark: every rep of every depth
//! must produce a bit-identical final AUC. `--smoke` shrinks everything for
//! CI schema checks and writes `BENCH_pipeline.smoke.json` instead.

use std::time::Instant;

use hetgmp_cluster::Topology;
use hetgmp_core::strategy::StrategyConfig;
use hetgmp_core::trainer::{Trainer, TrainerConfig};
use hetgmp_data::{generate, CtrDataset, DatasetSpec};
use hetgmp_telemetry::{names, Json, RunManifest};

const DEPTHS: [usize; 3] = [1, 2, 4];

struct DepthRun {
    samples_per_sec: f64,
    samples_per_cpu_sec: f64,
    stall_pct: f64,
    overlap: f64,
    overhead_pct: f64,
    auc: f64,
    manifest: RunManifest,
}

/// Whole-process CPU seconds (utime + stime over every thread) from
/// `/proc/self/stat`. Unlike wall clock, CPU time is immune to hypervisor
/// steal and neighbor load — on a contended host it is the stable measure
/// of how much work a schedule actually burns. Returns 0.0 where procfs
/// is unavailable (the derived rate is then reported as 0 and ignored).
fn process_cpu_secs() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesized comm (which may itself contain spaces
    // or parens): utime and stime are the 14th and 15th overall.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let mut it = rest.split_whitespace().skip(11); // state is field 3; skip to utime
    let utime: f64 = it.next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
    let stime: f64 = it.next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
    let hz = 100.0; // USER_HZ: 100 on every Linux this runs on
    (utime + stime) / hz
}

fn run_once(data: &CtrDataset, depth: usize, epochs: usize) -> DepthRun {
    let cpu_start = process_cpu_secs();
    let wall_start = Instant::now();
    let r = Trainer::new(
        data,
        Topology::pcie_island(4),
        StrategyConfig::het_gmp(100),
        TrainerConfig {
            epochs,
            dim: 16,
            batch_size: 256,
            hidden: vec![32, 16],
            seed: 0xB45E11, // bench_dense/bench_hotpath's seed: same run
            pipeline_depth: depth,
            ..Default::default()
        },
    )
    .run();
    let wall = wall_start.elapsed().as_secs_f64();
    let cpu = process_cpu_secs() - cpu_start;
    let samples_per_sec = r.telemetry.gauge(names::HOTPATH_SAMPLES_PER_SEC).unwrap_or(0.0);
    let stall = r.telemetry.gauge(names::PIPELINE_STALL_SECS).unwrap_or(0.0);
    // Deterministic numerator (same for every depth): the CPU-time rate
    // only needs the denominator measured.
    let samples = (data.num_samples() * epochs) as f64;
    let overhead = r.telemetry.gauge(names::TELEMETRY_OVERHEAD_SECS).unwrap_or(0.0);
    DepthRun {
        samples_per_sec,
        samples_per_cpu_sec: if cpu > 0.0 { samples / cpu } else { 0.0 },
        stall_pct: if wall > 0.0 { stall / wall * 100.0 } else { 0.0 },
        overlap: r.telemetry.gauge(names::PIPELINE_OVERLAP_RATIO).unwrap_or(0.0),
        overhead_pct: if wall > 0.0 { overhead / wall * 100.0 } else { 0.0 },
        auc: r.final_auc,
        manifest: r.manifest,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke" || a == "smoke");
    // Identical workload shape to bench_dense's end-to-end section (same
    // preset, scale, dims, seed) so the depth-1 row is directly comparable
    // to the committed dense baseline; only the epoch count is longer.
    let mut spec = DatasetSpec::avazu_like(if smoke { 0.02 } else { 0.08 });
    spec.cluster_affinity = 0.9;
    let data = generate(&spec);
    eprintln!(
        "pipeline depth sweep {DEPTHS:?} over {} samples{}",
        data.num_samples(),
        if smoke { " [smoke]" } else { "" },
    );

    let epochs = if smoke { 1 } else { 9 };
    let reps = if smoke { 1 } else { 7 };
    let mut best: Vec<Option<DepthRun>> = DEPTHS.iter().map(|_| None).collect();
    for rep in 0..reps {
        for (di, &d) in DEPTHS.iter().enumerate() {
            let run = run_once(&data, d, epochs);
            eprintln!(
                "rep {rep} depth {d}: {:.0} samples/s (cpu {:.0}), stall {:.2}%, overlap {:.3}, ovh {:.3}%, AUC {:.6}",
                run.samples_per_sec, run.samples_per_cpu_sec, run.stall_pct, run.overlap,
                run.overhead_pct, run.auc
            );
            if let Some(b) = &best[di] {
                // Same depth, same seed: reps must be bit-identical runs.
                assert_eq!(
                    run.auc.to_bits(),
                    b.auc.to_bits(),
                    "depth {d} rep {rep} AUC diverged across identical runs"
                );
            }
            if best[di].as_ref().is_none_or(|b| run.samples_per_sec > b.samples_per_sec) {
                best[di] = Some(run);
            }
        }
    }
    let best: Vec<DepthRun> = best.into_iter().map(|b| b.expect("ran every depth")).collect();
    let depths: Vec<Json> = DEPTHS
        .iter()
        .zip(&best)
        .map(|(&d, b)| {
            Json::obj([
                ("depth", Json::U64(d as u64)),
                ("samples_per_sec", Json::F64(b.samples_per_sec)),
                ("samples_per_cpu_sec", Json::F64(b.samples_per_cpu_sec)),
                ("stall_pct", Json::F64(b.stall_pct)),
                ("overlap_ratio", Json::F64(b.overlap)),
                ("overhead_pct", Json::F64(b.overhead_pct)),
                ("final_auc", Json::F64(b.auc)),
            ])
        })
        .collect();
    // The stage profiler rides the hot path; its self-measured cost must
    // stay in the noise. 2% of wall is the contract TELEMETRY.md documents.
    for (d, b) in DEPTHS.iter().zip(&best) {
        assert!(
            b.overhead_pct < 2.0,
            "depth {d}: profiler overhead {:.3}% of wall exceeds the 2% budget",
            b.overhead_pct
        );
    }
    let rates: Vec<f64> = best.iter().map(|b| b.samples_per_sec).collect();
    let aucs: Vec<f64> = best.iter().map(|b| b.auc).collect();
    // The determinism contract is part of the benchmark: a depth that went
    // faster by diverging from the depth-1 math is not a result.
    for (d, auc) in DEPTHS.iter().zip(&aucs) {
        assert_eq!(
            auc.to_bits(),
            aucs[0].to_bits(),
            "depth {d} final AUC differs from depth 1"
        );
    }
    let speedup = rates[1] / rates[0].max(1e-12);

    let doc = Json::obj([
        (
            "config",
            Json::obj([
                ("preset", Json::from("avazu_like")),
                ("scale", Json::F64(if smoke { 0.02 } else { 0.08 })),
                ("workers", Json::U64(4)),
                ("system", Json::from("het_gmp(100)")),
                ("epochs", Json::U64(epochs as u64)),
                ("reps", Json::U64(reps as u64)),
                ("batch", Json::U64(256)),
                ("dim", Json::U64(16)),
                ("seed", Json::U64(0xB45E11)),
                ("gemm_threads", Json::U64(1)),
                ("smoke", Json::Bool(smoke)),
            ]),
        ),
        // The depth-1 run's manifest identifies the baseline configuration
        // the whole sweep shares (only pipeline_depth varies across rows).
        ("manifest", best[0].manifest.to_json()),
        ("depths", Json::Arr(depths)),
        ("speedup", Json::F64(speedup)),
    ]);
    // Smoke runs land in a sibling file so CI schema checks never overwrite
    // the committed full-run baseline.
    let path = if smoke { "BENCH_pipeline.smoke.json" } else { "BENCH_pipeline.json" };
    std::fs::write(path, doc.render() + "\n").expect("write BENCH_pipeline json");
    println!("wrote {path} (depth-2 speedup {speedup:.3}x over depth 1)");
}
