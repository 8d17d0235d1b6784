//! Per-layer figures: replays of a workload's own batches through single
//! layers (the embedding table's `RowStore` API, the `CtrModel` tape, the
//! `AllReduceGroup`), and the per-layer ratios read off a training run's
//! `TelemetrySnapshot`.

use std::time::Instant;

use hetgmp_comms::AllReduceGroup;
use hetgmp_core::models::{CtrModel, ModelKind, ModelTape};
use hetgmp_data::{CtrDataset, KgDataset};
use hetgmp_embedding::{BatchScratch, RowStore, ShardedTable, SparseOpt};
use hetgmp_telemetry::{names, TelemetrySnapshot};
use hetgmp_tensor::Matrix;

use crate::stats::median;
use crate::workloads::{mix, BATCH};

/// The row ids of each worker batch of a CTR workload: consecutive
/// `BATCH`-sample slices of the training split, every sample's feature
/// ids in field order.
pub fn ctr_batches(data: &CtrDataset, test_fraction: f64) -> Vec<Vec<u32>> {
    data.split(test_fraction)
        .train
        .chunks(BATCH)
        .map(|chunk| {
            chunk
                .iter()
                .flat_map(|&i| data.sample(i as usize).iter().copied())
                .collect()
        })
        .collect()
}

/// The row ids of each worker batch of the KG workload: head, tail and one
/// corrupted tail per training triple, as TransE reads them.
pub fn kg_batches(kg: &KgDataset, seed: u64) -> Vec<Vec<u32>> {
    let (train, _) = kg.split(0.1);
    train
        .chunks(BATCH)
        .map(|chunk| {
            chunk
                .iter()
                .flat_map(|&i| {
                    let (h, _, t) = kg.triples[i as usize];
                    let neg = (mix(seed, u64::from(i)) % kg.num_entities as u64) as u32;
                    [h, t, neg]
                })
                .collect()
        })
        .collect()
}

/// Outcome of replaying batches through the in-memory table.
pub struct TableReplay {
    /// Rows read per second of `read_rows_snapshot` time, summed over
    /// threads.
    pub read_rows_per_s: f64,
    /// Rows updated per second of `apply_grads` time, summed over threads.
    pub apply_rows_per_s: f64,
    /// Data-path lock acquisitions per replayed batch (read + apply).
    pub lock_acquisitions_per_batch: f64,
    /// Snapshot read retries per snapshot row read.
    pub read_retry_share: f64,
}

/// Replays `batches` through a fresh `ShardedTable` of `num_rows × dim`
/// on `threads` threads (batch `b` goes to thread `b % threads`), each
/// batch a snapshot read followed by an Adagrad update of the same rows,
/// as a worker does. Runs for about `budget_s` seconds.
pub fn table_replay(
    num_rows: usize,
    dim: usize,
    seed: u64,
    batches: &[Vec<u32>],
    threads: usize,
    budget_s: f64,
) -> TableReplay {
    let table = ShardedTable::new(num_rows, dim, 0.05, seed);
    let store: &dyn RowStore = &table;
    let opt = SparseOpt::adagrad(0.05);
    let per_thread: Vec<(u64, u64, f64, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let opt = &opt;
                scope.spawn(move || {
                    let mine: Vec<&Vec<u32>> = batches.iter().skip(t).step_by(threads).collect();
                    let max_rows = mine.iter().map(|b| b.len()).max().unwrap_or(0);
                    let mut out = vec![0.0f32; max_rows * dim];
                    let grads = vec![1e-3f32; max_rows * dim];
                    let mut clocks = vec![0u64; max_rows];
                    let mut scratch = BatchScratch::default();
                    let (mut done, mut rows) = (0u64, 0u64);
                    let (mut read_s, mut apply_s) = (0.0f64, 0.0f64);
                    let start = Instant::now();
                    'passes: loop {
                        for b in &mine {
                            let n = b.len();
                            let t0 = Instant::now();
                            store.read_rows_snapshot(
                                b,
                                &mut out[..n * dim],
                                &mut clocks[..n],
                                &mut scratch,
                            );
                            let t1 = Instant::now();
                            store.apply_grads(
                                b,
                                &grads[..n * dim],
                                opt,
                                &mut clocks[..n],
                                &mut scratch,
                            );
                            apply_s += t1.elapsed().as_secs_f64();
                            read_s += (t1 - t0).as_secs_f64();
                            std::hint::black_box(&out);
                            done += 1;
                            rows += n as u64;
                            if start.elapsed().as_secs_f64() >= budget_s {
                                break 'passes;
                            }
                        }
                        if mine.is_empty() {
                            break;
                        }
                    }
                    (done, rows, read_s, apply_s)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("table replay thread panicked"))
            .collect()
    });
    let done: u64 = per_thread.iter().map(|p| p.0).sum();
    let rows: u64 = per_thread.iter().map(|p| p.1).sum();
    let read_s: f64 = per_thread.iter().map(|p| p.2).sum();
    let apply_s: f64 = per_thread.iter().map(|p| p.3).sum();
    let stats = store.read_path_stats();
    TableReplay {
        read_rows_per_s: rows as f64 / read_s,
        apply_rows_per_s: rows as f64 / apply_s,
        lock_acquisitions_per_batch: store.lock_acquisitions() as f64 / done.max(1) as f64,
        read_retry_share: stats.retries as f64 / stats.snapshot_rows.max(1) as f64,
    }
}

/// Replays CTR training batches through the default WDL model's
/// allocation-free tape path (forward, loss gradient, backward) on one
/// thread, with embedding inputs read from a fresh table. Returns GEMM
/// GFLOP/s over the tape's own time.
pub fn tape_replay(
    data: &CtrDataset,
    train: &[u32],
    dim: usize,
    hidden: &[usize],
    seed: u64,
    budget_s: f64,
) -> f64 {
    let fields = data.num_fields;
    let table = ShardedTable::new(data.num_features, dim, 0.05, seed);
    let mut model = CtrModel::new(ModelKind::Wdl, fields, dim, hidden, seed);
    let mut tape = ModelTape::new();
    // Inputs for a handful of full batches, built outside the timed loop.
    let mut row = vec![0.0f32; dim];
    let inputs: Vec<(Matrix, Vec<f32>)> = train
        .chunks_exact(BATCH)
        .take(8)
        .map(|chunk| {
            let mut m = Matrix::zeros(BATCH, fields * dim);
            for (r, &i) in chunk.iter().enumerate() {
                for (f, &e) in data.sample(i as usize).iter().enumerate() {
                    table.read_row(e, &mut row);
                    m.row_mut(r)[f * dim..(f + 1) * dim].copy_from_slice(&row);
                }
            }
            (m, chunk.iter().map(|&i| data.label(i as usize)).collect())
        })
        .collect();
    if inputs.is_empty() {
        return 0.0;
    }
    let mut grad_logits = Matrix::zeros(BATCH, 1);
    let mut grad_in = Matrix::zeros(BATCH, fields * dim);
    let flops0 = tape.flops();
    let start = Instant::now();
    let mut secs = 0.0;
    'passes: loop {
        for (input, y) in &inputs {
            let t0 = Instant::now();
            model.zero_grad();
            model.forward_tape(input, &mut tape);
            for ((g, &z), &label) in grad_logits
                .data_mut()
                .iter_mut()
                .zip(tape.logits().data())
                .zip(y.iter())
            {
                *g = (1.0 / (1.0 + (-z).exp()) - label) / BATCH as f32;
            }
            model.backward_tape(input, &grad_logits, &mut grad_in, &mut tape);
            tape.end_batch();
            secs += t0.elapsed().as_secs_f64();
            std::hint::black_box(&grad_in);
            if start.elapsed().as_secs_f64() >= budget_s {
                break 'passes;
            }
        }
    }
    (tape.flops() - flops0) as f64 / secs / 1e9
}

/// Median wall microseconds of one `allreduce_mean` of `len` floats across
/// two threads, over blocks of calls filling about `budget_s` seconds.
pub fn allreduce_replay(len: usize, budget_s: f64) -> f64 {
    const CALLS: usize = 100;
    let group = AllReduceGroup::new(2);
    let block_us: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|rank| {
                let group = &group;
                scope.spawn(move || {
                    let mut data = vec![rank as f32 + 0.5; len];
                    let mut blocks = Vec::new();
                    let start = Instant::now();
                    // Both ranks run the same number of blocks: rank 0
                    // decides when to stop and tells rank 1 through the
                    // collective itself (the last lane carries the vote).
                    loop {
                        let t0 = Instant::now();
                        for _ in 0..CALLS {
                            group.allreduce_mean(&mut data);
                        }
                        blocks.push(t0.elapsed().as_secs_f64() * 1e6 / CALLS as f64);
                        let stop = rank == 0 && start.elapsed().as_secs_f64() >= budget_s;
                        if group.agree(stop) {
                            break;
                        }
                    }
                    std::hint::black_box(&data);
                    blocks
                })
            })
            .collect();
        let mut per_rank: Vec<Vec<f64>> = handles
            .into_iter()
            .map(|h| h.join().expect("allreduce replay thread panicked"))
            .collect();
        per_rank.swap_remove(0)
    });
    median(&block_us)
}

/// Per-layer ratios of one CTR training run, read off its telemetry.
/// `loop_s` is the run's training-loop wall.
pub fn ctr_run_layers(
    t: &TelemetrySnapshot,
    loop_s: f64,
    workers: usize,
    epochs: usize,
) -> Vec<(&'static str, f64)> {
    let samples = t.counter(names::TRAIN_SAMPLES).max(1) as f64;
    let stage = |s: &str| {
        t.histogram(&format!("{}{s}.wall_secs", names::PIPELINE_STAGE_PREFIX))
            .sum
            / workers as f64
            / loop_s
    };
    let shares = [
        stage("fetch"),
        stage("compute"),
        stage("write_back"),
        stage("sync"),
    ];
    let batches = t
        .histogram(&format!("{}fetch.wall_secs", names::PIPELINE_STAGE_PREFIX))
        .count
        .max(1) as f64;
    let reads = (t.counter(names::EMBED_READ_LOCAL_PRIMARY)
        + t.counter(names::EMBED_READ_LOCAL_FRESH)
        + t.counter(names::EMBED_READ_REMOTE))
    .max(1) as f64;
    let faults = t.counter(names::CAPACITY_FAULT_LOADS);
    let dense_sps = t.gauge(names::DENSE_SAMPLES_PER_SEC).unwrap_or(0.0);
    let dense_s = samples / dense_sps;
    let bytes = |class: &str| t.counter(&format!("{}{class}", names::TRAFFIC_BYTES_PREFIX)) as f64;
    vec![
        ("pipeline.fetch_share", shares[0]),
        ("pipeline.compute_share", shares[1]),
        ("pipeline.write_back_share", shares[2]),
        ("pipeline.sync_share", shares[3]),
        (
            "embedding.lock_acquisitions_per_batch",
            t.gauge(names::HOTPATH_LOCK_ACQUISITIONS).unwrap_or(0.0) / batches,
        ),
        (
            "embedding.read_retry_share",
            t.counter(names::HOTPATH_READ_RETRIES) as f64
                / t.counter(names::HOTPATH_READ_SNAPSHOT).max(1) as f64,
        ),
        (
            "embedding.remote_read_share",
            t.counter(names::EMBED_READ_REMOTE) as f64 / reads,
        ),
        (
            "embedding.sync_rows_per_batch",
            (t.counter(names::EMBED_SYNC_INTRA) + t.counter(names::EMBED_SYNC_INTER)) as f64
                / batches,
        ),
        ("tiered.faults_per_epoch", faults as f64 / epochs as f64),
        (
            "tiered.writebacks_per_epoch",
            t.counter(names::CAPACITY_FAULT_WRITEBACKS) as f64 / epochs as f64,
        ),
        (
            "tiered.rows_per_fault",
            if faults > 0 {
                t.counter(names::HOTPATH_BATCH_READ_ROWS) as f64 / faults as f64
            } else {
                0.0
            },
        ),
        ("tensor.dense_samples_per_s", dense_sps),
        (
            "tensor.gemm_gflops",
            t.counter(names::DENSE_GEMM_FLOPS) as f64 / dense_s / 1e9,
        ),
        (
            "comms.embed_bytes_per_sample",
            bytes("embed_data") / samples,
        ),
        (
            "comms.meta_bytes_per_sample",
            bytes("keys_clocks") / samples,
        ),
        (
            "comms.allreduce_bytes_per_sample",
            bytes("allreduce") / samples,
        ),
        (
            "comms.messages_per_sample",
            t.counter_prefix_sum(names::TRAFFIC_MESSAGES_PREFIX) as f64 / samples,
        ),
        (
            "telemetry.overhead_share",
            t.gauge(names::TELEMETRY_OVERHEAD_SECS).unwrap_or(0.0) / workers as f64 / loop_s,
        ),
    ]
}
