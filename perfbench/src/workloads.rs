//! The three benchmark workloads: their inputs, one timed training run
//! ("rep") each, and the checks on what the program produced.
//!
//! Training is a closed loop: every worker starts its next batch only after
//! the previous one finished. Every workload uses batch 256 and at most two
//! trainer threads.

use std::path::{Path, PathBuf};
use std::time::Instant;

use hetgmp_bigraph::Bigraph;
use hetgmp_cluster::{LinkClass, Topology};
use hetgmp_core::strategy::StrategyConfig;
use hetgmp_core::trainer::{StorageMode, Trainer, TrainerConfig};
use hetgmp_core::{KgTrainer, KgTrainerConfig};
use hetgmp_data::{generate, generate_kg, CtrDataset, DatasetSpec, KgDataset, KgSpec};
use hetgmp_partition::{Partition, PartitionMetrics};
use hetgmp_telemetry::{names, RunManifest, TelemetrySnapshot};

use crate::stats::process_cpu_secs;
use crate::trace::{timed, traced, Tracer};

/// Rows per worker batch in every workload.
pub const BATCH: usize = 256;
/// Staleness bound of every HET-GMP run.
pub const STALENESS: u64 = 100;
/// RAM budget of `ctr-tiered`'s table: below its 2800 × 32 × 4 B size.
pub const TIERED_BUDGET: usize = 256 << 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Avazu-like CTR at scale 1.0, HET-GMP(s=100), 2 workers, in memory.
    CtrSsp,
    /// The same CTR task at scale 0.2 on 1 worker, dim 32, tiered storage
    /// under a RAM budget below the table size.
    CtrTiered,
    /// TransE on a 10× `KgSpec::small()` graph, HET-GMP(s=100), 2 workers
    /// on two machines.
    KgTranse,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::CtrSsp, Workload::CtrTiered, Workload::KgTranse];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CtrSsp => "ctr-ssp",
            Workload::CtrTiered => "ctr-tiered",
            Workload::KgTranse => "kg-transe",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn workers(self) -> usize {
        match self {
            Workload::CtrTiered => 1,
            Workload::CtrSsp | Workload::KgTranse => 2,
        }
    }

    pub fn epochs(self) -> usize {
        match self {
            Workload::CtrSsp | Workload::CtrTiered => 2,
            Workload::KgTranse => 5,
        }
    }

    /// Lowest acceptable `quality` (AUC for CTR, MRR for KG): well above
    /// chance, below every seed's result. Random scoring gives AUC 0.5 and,
    /// over 50 candidates, MRR ≈ 0.09. The generated datasets differ in how
    /// learnable they are, so the trained AUC varies by seed (0.72–0.83 on
    /// `ctr-ssp`).
    pub fn quality_floor(self) -> f64 {
        match self {
            Workload::CtrSsp => 0.65,
            Workload::CtrTiered => 0.62,
            Workload::KgTranse => 0.35,
        }
    }

    /// CTR workers share one PCIe machine. The KG workers sit on two
    /// machines joined by 10 Gb Ethernet: on one PCIe island TransE's
    /// entity traffic hides entirely behind compute in the cost model, so
    /// its simulated throughput would not see traffic at all.
    pub fn topology(self) -> Topology {
        match self {
            Workload::CtrSsp | Workload::CtrTiered => Topology::pcie_island(self.workers()),
            Workload::KgTranse => Topology::regular(
                "2x1 PCIe/10GbE",
                2,
                1,
                1,
                LinkClass::Pcie3,
                LinkClass::Pcie3,
                LinkClass::Ethernet10G,
            ),
        }
    }

    pub fn strategy(self) -> StrategyConfig {
        StrategyConfig::het_gmp(STALENESS)
    }
}

/// SplitMix64: turns the command-line seed into independent sub-seeds.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A workload's generated inputs: all the program ever receives.
pub enum Inputs {
    Ctr(CtrDataset),
    Kg(KgDataset),
}

/// Generates `w`'s inputs from `seed`; the same seed gives the same inputs.
pub fn generate_inputs(w: Workload, seed: u64, tracer: Option<&Tracer>) -> Inputs {
    let data_seed = mix(seed, 0xDA7A);
    match w {
        Workload::CtrSsp | Workload::CtrTiered => {
            let scale = if w == Workload::CtrSsp { 1.0 } else { 0.2 };
            let mut spec = DatasetSpec::avazu_like(scale);
            spec.seed = data_seed;
            Inputs::Ctr(traced(tracer, "data.generate", || generate(&spec)))
        }
        Workload::KgTranse => {
            let mut spec = KgSpec::small();
            spec.num_entities *= 10;
            spec.num_triples *= 10;
            spec.seed = data_seed;
            Inputs::Kg(traced(tracer, "data.generate", || generate_kg(&spec)))
        }
    }
}

/// The trainer seed (model init, shuffling, partitioner) for `seed`.
pub fn trainer_seed(seed: u64) -> u64 {
    mix(seed, 0x7EA1)
}

pub fn ctr_config(w: Workload, seed: u64, storage: StorageMode) -> TrainerConfig {
    TrainerConfig {
        epochs: w.epochs(),
        batch_size: BATCH,
        dim: if w == Workload::CtrTiered { 32 } else { 16 },
        seed: trainer_seed(seed),
        storage,
        ..TrainerConfig::default()
    }
}

pub fn kg_config(seed: u64) -> KgTrainerConfig {
    KgTrainerConfig {
        epochs: Workload::KgTranse.epochs(),
        batch_size: BATCH,
        seed: trainer_seed(seed),
        ..KgTrainerConfig::default()
    }
}

/// One timed training run.
pub struct Rep {
    /// Training samples (CTR) or triples (KG) processed.
    pub samples: u64,
    /// Wall of the training loop, seconds.
    pub loop_s: f64,
    /// Wall of the whole `try_run` / `KgTrainer::run` call, seconds.
    pub run_s: f64,
    /// Set-up wall, seconds (see the workload's definition).
    pub setup_s: f64,
    /// Process CPU seconds spent in the training call.
    pub cpu_s: f64,
    /// Final AUC (CTR) or MRR (KG).
    pub quality: f64,
    /// The cost model's samples per simulated second.
    pub sim_samples_per_s: f64,
    /// Worker batches attempted, and those that failed or came back
    /// non-finite.
    pub batches: u64,
    pub failed: u64,
    /// The trainer's telemetry (CTR only).
    pub telemetry: Option<TelemetrySnapshot>,
    /// Tiered page faults (`ctr-tiered` only).
    pub faults: Option<u64>,
    /// The KG run's set-up calls, partition quality and traffic.
    pub kg_setup: Option<KgSetup>,
    pub manifest: RunManifest,
}

/// One KG run's timed set-up calls, the quality of the partition they
/// produced, and the run's embedding traffic.
pub struct KgSetup {
    pub bigraph_s: f64,
    pub partition_s: f64,
    pub train_triples: usize,
    pub remote_fetches: u64,
    pub remote_share: f64,
    pub replicas: u64,
    pub embed_bytes: u64,
}

/// Worker batches a CTR run of `data` is expected to attempt: the
/// trainer's own iteration count (mean shard over batch size) × workers ×
/// epochs.
fn expected_ctr_batches(w: Workload, data: &CtrDataset, test_fraction: f64) -> u64 {
    let train = data.split(test_fraction).train.len();
    let n = w.workers();
    let iters = (train / n).max(1).div_ceil(BATCH).max(1);
    (iters * n * w.epochs()) as u64
}

/// Runs one CTR training rep on `storage`.
pub fn ctr_rep(
    w: Workload,
    data: &CtrDataset,
    seed: u64,
    storage: StorageMode,
    tracer: Option<&Tracer>,
) -> Rep {
    let cfg = ctr_config(w, seed, storage);
    let test_fraction = cfg.test_fraction;
    let n = w.workers();
    let trainer = Trainer::new(data, w.topology(), w.strategy(), cfg.clone());
    let cpu0 = process_cpu_secs().unwrap_or(f64::NAN);
    let t0 = Instant::now();
    let result = traced(tracer, "trainer.try_run", || trainer.try_run());
    let run_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_secs().unwrap_or(f64::NAN) - cpu0;
    match result {
        Ok(r) => {
            let t = r.telemetry;
            let samples = t.counter(names::TRAIN_SAMPLES);
            let sps = t.gauge(names::HOTPATH_SAMPLES_PER_SEC).unwrap_or(0.0);
            let loop_s = if sps > 0.0 {
                samples as f64 / sps
            } else {
                f64::NAN
            };
            let batches = t
                .histogram(&format!("{}fetch.wall_secs", names::PIPELINE_STAGE_PREFIX))
                .count;
            Rep {
                samples,
                loop_s,
                run_s,
                setup_s: run_s - loop_s,
                cpu_s,
                quality: r.final_auc,
                sim_samples_per_s: r.throughput,
                batches,
                failed: r.nonfinite_batches.min(batches),
                faults: r.capacity.map(|c| c.fault_loads),
                telemetry: Some(t),
                kg_setup: None,
                manifest: r.manifest,
            }
        }
        // A failed run fails every batch it was going to run.
        Err(e) => {
            eprintln!("{}: try_run failed: {e}", w.name());
            let batches = expected_ctr_batches(w, data, test_fraction);
            Rep {
                samples: 0,
                loop_s: f64::NAN,
                run_s,
                setup_s: f64::NAN,
                cpu_s,
                quality: f64::NAN,
                sim_samples_per_s: f64::NAN,
                batches,
                failed: batches,
                telemetry: None,
                faults: None,
                kg_setup: None,
                manifest: RunManifest::new(
                    cfg.seed,
                    "failed",
                    n,
                    cfg.pipeline_depth,
                    cfg.gemm_threads,
                ),
            }
        }
    }
}

/// A workload's partitioning set-up as the benchmark times it.
pub struct PartitionSetup {
    pub graph: Bigraph,
    pub partition: Partition,
    /// Wall of `Bigraph::from_samples`, seconds.
    pub bigraph_s: f64,
    /// Wall of the partitioner call, seconds.
    pub partition_s: f64,
}

/// The CTR trainer's set-up calls, made by the benchmark on the same
/// training rows the trainer uses: bigraph build and partition.
pub fn ctr_partition(
    w: Workload,
    data: &CtrDataset,
    seed: u64,
    tracer: Option<&Tracer>,
) -> PartitionSetup {
    let cfg = ctr_config(w, seed, StorageMode::Memory);
    let split = data.split(cfg.test_fraction);
    let rows: Vec<Vec<u32>> = split
        .train
        .iter()
        .map(|&i| data.sample(i as usize).to_vec())
        .collect();
    let (graph, bigraph_s) = timed(tracer, "bigraph.from_samples", || {
        Bigraph::from_samples(data.num_features, &rows)
    });
    let trainer = Trainer::new(data, w.topology(), w.strategy(), cfg);
    let (partition, partition_s) = timed(tracer, "trainer.build_partition", || {
        trainer.build_partition(&graph)
    });
    PartitionSetup {
        graph,
        partition,
        bigraph_s,
        partition_s,
    }
}

/// The KG trainer's training rows: one `[h, t]` row per training triple
/// (`[h]` for self-loops), exactly as `KgTrainer::run` builds them.
fn kg_train_rows(kg: &KgDataset) -> Vec<Vec<u32>> {
    kg.split(0.1)
        .0
        .iter()
        .map(|&i| {
            let (h, _, t) = kg.triples[i as usize];
            if h == t {
                vec![h]
            } else {
                vec![h, t]
            }
        })
        .collect()
}

/// The KG trainer's set-up calls, made by the benchmark: bigraph build and
/// partition over the training triples.
pub fn kg_partition(kg: &KgDataset, seed: u64, tracer: Option<&Tracer>) -> PartitionSetup {
    let w = Workload::KgTranse;
    let rows = kg_train_rows(kg);
    let (graph, bigraph_s) = timed(tracer, "bigraph.from_samples", || {
        Bigraph::from_samples(kg.num_entities, &rows)
    });
    let partitioner = w.strategy().partition.partitioner(kg_config(seed).seed);
    let (partition, partition_s) = timed(tracer, "partitioner.partition", || {
        partitioner.partition(&graph, &w.topology())
    });
    PartitionSetup {
        graph,
        partition,
        bigraph_s,
        partition_s,
    }
}

/// Runs one KG training rep: the benchmark's own timed bigraph + partition
/// calls (the set-up), then the whole `KgTrainer::run`.
pub fn kg_rep(kg: &KgDataset, seed: u64, tracer: Option<&Tracer>) -> Rep {
    let w = Workload::KgTranse;
    let cfg = kg_config(seed);
    let t0 = Instant::now();
    let setup = kg_partition(kg, seed, tracer);
    let setup_s = t0.elapsed().as_secs_f64();
    let metrics = PartitionMetrics::compute(&setup.graph, &setup.partition, None);
    let mut kg_setup = KgSetup {
        bigraph_s: setup.bigraph_s,
        partition_s: setup.partition_s,
        train_triples: setup.graph.num_samples(),
        remote_fetches: metrics.remote_fetches,
        remote_share: metrics.remote_fraction(),
        replicas: secondary_replicas(&metrics) as u64,
        embed_bytes: 0,
    };
    drop(setup);

    let trainer = KgTrainer::new(kg, w.topology(), w.strategy(), cfg.clone());
    let cpu0 = process_cpu_secs().unwrap_or(f64::NAN);
    let t1 = Instant::now();
    let r = traced(tracer, "kg_trainer.run", || trainer.run());
    let run_s = t1.elapsed().as_secs_f64();
    let cpu_s = process_cpu_secs().unwrap_or(f64::NAN) - cpu0;
    // KgResult reports throughput over simulated time; the triple count is
    // their product (exact up to float rounding).
    let samples = (r.throughput * r.sim_time).round() as u64;
    let batches = samples.div_ceil(BATCH as u64).max(1);
    let failed = if r.mrr.is_finite() { 0 } else { batches };
    kg_setup.embed_bytes = r.embed_bytes;
    Rep {
        samples,
        loop_s: run_s - setup_s,
        run_s,
        setup_s,
        cpu_s,
        quality: r.mrr,
        sim_samples_per_s: r.throughput,
        batches,
        failed,
        telemetry: None,
        faults: None,
        kg_setup: Some(kg_setup),
        manifest: RunManifest::new(
            cfg.seed,
            RunManifest::digest_of(&format!("{:?}|{:?}", w.strategy(), cfg)),
            w.workers(),
            1,
            1,
        ),
    }
}

/// Secondary replicas the partition places (replica slots beyond each
/// embedding's primary).
pub fn secondary_replicas(m: &PartitionMetrics) -> usize {
    m.replicas_per_partition.iter().sum::<usize>() - m.primaries_per_partition.iter().sum::<usize>()
}

/// `ctr-tiered`'s storage: the budgeted tiered table spilling under
/// `dir`.
pub fn tiered_storage(dir: &Path) -> StorageMode {
    StorageMode::Tiered {
        budget_bytes: TIERED_BUDGET,
        dir: Some(dir.to_path_buf()),
    }
}

/// A fresh spill directory under `out_dir` for rep `rep`.
pub fn spill_dir(out_dir: &Path, rep: usize) -> PathBuf {
    out_dir.join(format!("spill-{}-{rep}", std::process::id()))
}
