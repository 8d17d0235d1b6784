//! Empirical validation of Theorem 1 (§5.4): bounded-staleness training is
//! an iterative-convergent process — the objective decreases sufficiently,
//! iterate movement diminishes, and bounded-`s` runs converge to the same
//! quality as fully-synchronous runs.

use het_gmp::cluster::Topology;
use het_gmp::core::strategy::StrategyConfig;
use het_gmp::core::trainer::{StorageMode, Trainer, TrainerConfig};
use het_gmp::data::{generate, DatasetSpec};
use het_gmp::telemetry::AuditMode;

fn dataset() -> het_gmp::data::CtrDataset {
    let mut spec = DatasetSpec::avazu_like(0.06);
    spec.cluster_affinity = 0.9;
    generate(&spec)
}

fn run(s: u64, epochs: usize) -> het_gmp::core::trainer::TrainResult {
    let data = dataset();
    Trainer::new(
        &data,
        Topology::pcie_island(4),
        StrategyConfig::het_gmp(s),
        TrainerConfig {
            epochs,
            dim: 16,
            batch_size: 256,
            hidden: vec![32, 16],
            ..Default::default()
        },
    )
    .run()
}

#[test]
fn objective_decreases_sufficiently() {
    // Assumption (3) of Theorem 1: the objective decreases for large t.
    let r = run(100, 6);
    let losses: Vec<f64> = r.curve.iter().map(|p| p.train_loss).collect();
    assert!(
        losses.last().unwrap() < losses.first().unwrap(),
        "loss never decreased: {losses:?}"
    );
    // Monotone up to small noise: every epoch is within 2% of the best so
    // far (allows stochastic wiggle without allowing divergence).
    let mut best = f64::INFINITY;
    for (i, &l) in losses.iter().enumerate() {
        assert!(l <= best * 1.02, "epoch {i}: loss {l} regressed past {best}");
        best = best.min(l);
    }
}

#[test]
fn iterate_movement_diminishes() {
    // The summability in Eq. (7) implies per-epoch improvements shrink:
    // compare the loss drop of the first half vs the second half of
    // training.
    let r = run(100, 8);
    let losses: Vec<f64> = r.curve.iter().map(|p| p.train_loss).collect();
    let first_half = losses[0] - losses[losses.len() / 2];
    let second_half = losses[losses.len() / 2] - losses[losses.len() - 1];
    assert!(
        second_half < first_half,
        "no diminishing returns: first {first_half} vs second {second_half}"
    );
}

#[test]
fn bounded_staleness_reaches_synchronous_quality() {
    // Theorem 1's conclusion: {x(t)} under bounded delay converges to a
    // critical point of the same objective — empirically, final AUC under
    // s = 100 matches s = 0 within a point.
    let sync = run(0, 5);
    let stale = run(100, 5);
    assert!(
        (sync.final_auc - stale.final_auc).abs() < 0.015,
        "s=0 {:.4} vs s=100 {:.4}",
        sync.final_auc,
        stale.final_auc
    );
    assert!(sync.final_auc > 0.6, "sync run failed to learn");
}

#[test]
fn convergence_rate_is_sublinear() {
    // O(1/t) rate (Eq. 9): the excess loss decays at least as fast as c/t
    // on a log-log fit (slope ≤ −0.4, loose to absorb stochastic noise).
    let r = run(10, 8);
    let losses: Vec<f64> = r.curve.iter().map(|p| p.train_loss).collect();
    let floor = losses.iter().cloned().fold(f64::INFINITY, f64::min) - 1e-3;
    let points: Vec<(f64, f64)> = losses
        .iter()
        .enumerate()
        .filter(|(_, &l)| l - floor > 1e-6)
        .map(|(t, &l)| (((t + 1) as f64).ln(), (l - floor).ln()))
        .collect();
    assert!(points.len() >= 4, "not enough excess-loss points");
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    assert!(slope < -0.4, "excess-loss decay slope {slope} too flat");
}

// ---- Golden seed-sweep regression -------------------------------------

/// One pinned run: strategy × seed → exact final numbers.
struct Golden {
    strategy: &'static str,
    seed: u64,
    final_auc: f64,
    train_loss: f64,
    samples: u64,
    intra_reads: u64,
    inter_checks: u64,
    /// Simulated samples/s (`TrainResult::throughput`): pins the simulated
    /// schedule, which the training math alone does not.
    throughput: f64,
    /// Bytes per traffic class: embed data, keys/clocks, AllReduce.
    traffic_bytes: [u64; 3],
}

/// Relative tolerance on the pinned simulated throughput. The schedule is
/// deterministic, but a barrier clock carried at a different float width
/// may move it by a rounding step; anything larger is a schedule change.
const THROUGHPUT_REL_TOL: f64 = 1e-5;

/// Pinned by running the suite once and copying the printed rows; see
/// `seed_sweep_matches_goldens` for the regeneration procedure. The runs
/// are deterministic by construction (phase fences + rank-ordered
/// write-backs), so these are equality pins, not statistical checks.
#[rustfmt::skip]
const GOLDENS: &[Golden] = &[
    Golden { strategy: "bsp", seed: 42, final_auc: 0.6422222222222222, train_loss: 0.5607099285714285, samples: 3584, intra_reads: 112, inter_checks: 279, throughput: 5101367.897912046, traffic_bytes: [114176, 42816, 338912] },
    Golden { strategy: "bsp", seed: 1337, final_auc: 0.6518055555555555, train_loss: 0.5622487142857143, samples: 3584, intra_reads: 112, inter_checks: 279, throughput: 5101367.897912046, traffic_bytes: [114176, 42816, 338912] },
    Golden { strategy: "bsp", seed: 2026, final_auc: 0.6430555555555556, train_loss: 0.5601504285714286, samples: 3584, intra_reads: 112, inter_checks: 279, throughput: 5101367.897912046, traffic_bytes: [114176, 42816, 338912] },
    Golden { strategy: "ssp", seed: 42, final_auc: 0.6445833333333333, train_loss: 0.5611476428571429, samples: 3584, intra_reads: 112, inter_checks: 279, throughput: 5015940.400208778, traffic_bytes: [108032, 41664, 338912] },
    Golden { strategy: "ssp", seed: 1337, final_auc: 0.6526388888888889, train_loss: 0.5621735, samples: 3584, intra_reads: 112, inter_checks: 279, throughput: 5015940.400208778, traffic_bytes: [108032, 41664, 338912] },
    Golden { strategy: "ssp", seed: 2026, final_auc: 0.6495833333333333, train_loss: 0.5605652857142858, samples: 3584, intra_reads: 112, inter_checks: 279, throughput: 5015940.400208778, traffic_bytes: [108032, 41664, 338912] },
    Golden { strategy: "asp", seed: 42, final_auc: 0.6445833333333333, train_loss: 0.5611476428571429, samples: 3584, intra_reads: 112, inter_checks: 0, throughput: 5016333.665767944, traffic_bytes: [108032, 40320, 338912] },
    Golden { strategy: "asp", seed: 1337, final_auc: 0.6526388888888889, train_loss: 0.5621735, samples: 3584, intra_reads: 112, inter_checks: 0, throughput: 5016333.665767944, traffic_bytes: [108032, 40320, 338912] },
    Golden { strategy: "asp", seed: 2026, final_auc: 0.6495833333333333, train_loss: 0.5605652857142858, samples: 3584, intra_reads: 112, inter_checks: 0, throughput: 5016333.665767944, traffic_bytes: [108032, 40320, 338912] },
];

fn golden_run(strategy: &str, seed: u64) -> het_gmp::core::trainer::TrainResult {
    golden_run_with(strategy, seed, None)
}

fn golden_run_with(
    strategy: &str,
    seed: u64,
    sync_format: Option<het_gmp::comms::SyncFormat>,
) -> het_gmp::core::trainer::TrainResult {
    let mut spec = DatasetSpec::avazu_like(0.03);
    spec.cluster_affinity = 0.9;
    let data = generate(&spec);
    let strat = match strategy {
        "bsp" => StrategyConfig::het_gmp(0),
        "ssp" => StrategyConfig::het_gmp(100),
        "asp" => StrategyConfig::het_gmp_asp(),
        other => panic!("unknown strategy {other}"),
    };
    Trainer::new(
        &data,
        Topology::pcie_island(2),
        strat,
        TrainerConfig {
            epochs: 2,
            dim: 8,
            batch_size: 128,
            hidden: vec![16],
            seed,
            ..Default::default()
        },
    )
    .with_audit(AuditMode::Count)
    .with_sync_format(sync_format, None)
    .run()
}

/// Tiered storage is a *storage* change, not a math change: running the
/// golden configuration with the table squeezed into a 4 KiB RAM budget
/// (everything else spilled to disk and faulted back on demand) must
/// reproduce the in-memory goldens to the last bit, for every seed. This is
/// the seed-sweep's {memory, tiered} column: the memory side is `GOLDENS`
/// itself, the tiered side is re-run here and pinned against the same rows.
#[test]
fn tiered_storage_matches_goldens() {
    for seed in [42u64, 1337, 2026] {
        let g = GOLDENS
            .iter()
            .find(|g| g.strategy == "ssp" && g.seed == seed)
            .expect("golden row");
        let r = golden_run_tiered("ssp", seed, true);
        let loss = r.curve.last().expect("curve").train_loss;
        assert_eq!(r.final_auc, g.final_auc, "seed {seed}: tiered moved the AUC");
        assert_eq!(loss, g.train_loss, "seed {seed}: tiered moved the loss");
        assert_eq!(r.samples_processed, g.samples, "seed {seed}: sample count moved");
        // The squeeze was real: the run must actually have spilled and
        // faulted, or this column proves nothing.
        let cs = r.capacity.expect("tiered run reports capacity stats");
        assert!(cs.spilled_bytes > 0, "seed {seed}: nothing spilled");
        assert!(cs.fault_loads > 0, "seed {seed}: no page faults");
    }
}

/// Buffer-aware batch ordering is pure eviction policy: the same tiered run
/// with ordering on vs off must finish with the *identical* final state —
/// checkpoint files byte for byte, AUC and loss bit for bit.
#[test]
fn batch_ordering_on_off_yields_identical_final_tables() {
    let base = std::env::temp_dir().join(format!("hetgmp-it-order-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let mut runs = Vec::new();
    for (tag, ordering) in [("on", true), ("off", false)] {
        let dir = base.join(tag);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let r = golden_run_tiered_ckpt("ssp", 42, ordering, Some(dir.clone()));
        let ckpt = std::fs::read(dir.join("ckpt-epoch-2.hgmr")).expect("checkpoint written");
        runs.push((r, ckpt));
    }
    let (on, off) = (&runs[0], &runs[1]);
    assert_eq!(
        on.0.final_auc, off.0.final_auc,
        "ordering changed the AUC"
    );
    assert_eq!(
        on.0.curve.last().unwrap().train_loss,
        off.0.curve.last().unwrap().train_loss,
        "ordering changed the loss"
    );
    assert_eq!(on.1, off.1, "ordering changed the checkpointed table bytes");
    let _ = std::fs::remove_dir_all(&base);
}

fn golden_run_tiered(
    strategy: &str,
    seed: u64,
    ordering: bool,
) -> het_gmp::core::trainer::TrainResult {
    golden_run_tiered_ckpt(strategy, seed, ordering, None)
}

fn golden_run_tiered_ckpt(
    strategy: &str,
    seed: u64,
    ordering: bool,
    checkpoint_dir: Option<std::path::PathBuf>,
) -> het_gmp::core::trainer::TrainResult {
    let mut spec = DatasetSpec::avazu_like(0.03);
    spec.cluster_affinity = 0.9;
    let data = generate(&spec);
    let strat = match strategy {
        "bsp" => StrategyConfig::het_gmp(0),
        "ssp" => StrategyConfig::het_gmp(100),
        "asp" => StrategyConfig::het_gmp_asp(),
        other => panic!("unknown strategy {other}"),
    };
    Trainer::new(
        &data,
        Topology::pcie_island(2),
        strat,
        TrainerConfig {
            epochs: 2,
            dim: 8,
            batch_size: 128,
            hidden: vec![16],
            seed,
            storage: StorageMode::Tiered {
                budget_bytes: 4 << 10,
                dir: None,
            },
            batch_ordering: ordering,
            checkpoint_every: if checkpoint_dir.is_some() { 2 } else { 0 },
            checkpoint_dir,
            ..Default::default()
        },
    )
    .with_audit(AuditMode::Count)
    .run()
}

/// `--sync-format f32` is the identity transport: selecting it explicitly
/// must reproduce the default-path goldens to the last bit — any drift
/// means the wire encoding touched values it promised to pass through.
#[test]
fn explicit_f32_sync_format_matches_goldens() {
    for strategy in ["bsp", "ssp", "asp"] {
        let g = GOLDENS
            .iter()
            .find(|g| g.strategy == strategy && g.seed == 42)
            .expect("golden row");
        let r = golden_run_with(strategy, 42, Some(het_gmp::comms::SyncFormat::F32));
        let loss = r.curve.last().expect("curve").train_loss;
        assert_eq!(r.final_auc, g.final_auc, "{strategy}: explicit f32 moved the AUC");
        assert_eq!(loss, g.train_loss, "{strategy}: explicit f32 moved the loss");
        assert_eq!(r.samples_processed, g.samples, "{strategy}: sample count moved");
    }
}

/// Golden regression over 3 seeds × {BSP (s=0), SSP (s=100), ASP}: final
/// AUC, mean train loss, sample counts, and the audit's check counts must
/// reproduce exactly. Any drift means the training math changed — the
/// batched hot path (and every future optimisation) must keep these bits.
///
/// To regenerate after an *intentional* math change: run with
/// `--nocapture`, copy the printed `Golden { .. }` rows into `GOLDENS`.
#[test]
fn seed_sweep_matches_goldens() {
    let mut rows = String::new();
    let mut failures = Vec::new();
    for strategy in ["bsp", "ssp", "asp"] {
        for seed in [42u64, 1337, 2026] {
            let r = golden_run(strategy, seed);
            let audit = r.audit.expect("audit enabled");
            let loss = r.curve.last().expect("curve").train_loss;
            // The protocol *never* serves a violating read, under any
            // strategy — ASP has an infinite bound, bounded runs sync.
            assert_eq!(
                audit.total_violations(),
                0,
                "{strategy}/{seed}: {}",
                audit.render()
            );
            rows.push_str(&format!(
                "Golden {{ strategy: \"{strategy}\", seed: {seed}, final_auc: \
                 {:?}, train_loss: {:?}, samples: {}, intra_reads: {}, \
                 inter_checks: {}, throughput: {:?}, traffic_bytes: {:?} }},\n",
                r.final_auc,
                loss,
                r.samples_processed,
                audit.intra_reads,
                audit.inter_checks,
                r.throughput,
                r.traffic_bytes,
            ));
            let Some(g) = GOLDENS
                .iter()
                .find(|g| g.strategy == strategy && g.seed == seed)
            else {
                failures.push(format!("{strategy}/{seed}: no golden row"));
                continue;
            };
            if (r.final_auc - g.final_auc).abs() > 1e-9 {
                failures.push(format!(
                    "{strategy}/{seed}: auc {:?} != {:?}",
                    r.final_auc, g.final_auc
                ));
            }
            if (loss - g.train_loss).abs() > 1e-9 {
                failures.push(format!(
                    "{strategy}/{seed}: loss {:?} != {:?}",
                    loss, g.train_loss
                ));
            }
            if r.samples_processed != g.samples {
                failures.push(format!(
                    "{strategy}/{seed}: samples {} != {}",
                    r.samples_processed, g.samples
                ));
            }
            if r.traffic_bytes != g.traffic_bytes {
                failures.push(format!(
                    "{strategy}/{seed}: traffic {:?} != {:?}",
                    r.traffic_bytes, g.traffic_bytes
                ));
            }
            if ((r.throughput - g.throughput) / g.throughput).abs() > THROUGHPUT_REL_TOL {
                failures.push(format!(
                    "{strategy}/{seed}: simulated throughput {:?} != {:?}",
                    r.throughput, g.throughput
                ));
            }
            if (audit.intra_reads, audit.inter_checks) != (g.intra_reads, g.inter_checks) {
                failures.push(format!(
                    "{strategy}/{seed}: audit ({}, {}) != ({}, {})",
                    audit.intra_reads, audit.inter_checks, g.intra_reads, g.inter_checks
                ));
            }
        }
    }
    println!("golden rows:\n{rows}");
    assert!(
        failures.is_empty(),
        "golden drift:\n{}\nactual rows (paste into GOLDENS after an \
         intentional math change):\n{rows}",
        failures.join("\n")
    );
}
