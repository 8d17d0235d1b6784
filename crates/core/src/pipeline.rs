//! The stage-based batch runtime: one worker's inner training loop,
//! structured as a software pipeline over [`StepCtx`] batch slots.
//!
//! ## Stages
//!
//! Every batch flows through four stages, tracked on its slot:
//!
//! ```text
//!   Fetch ──► Compute ──► Push ──► Sync
//!   (embedding      (dense       (gradient      (dense AllReduce
//!    read)           fwd/bwd)     write-back)    + BSP barrier)
//! ```
//!
//! ## One schedule at every depth
//!
//! [`run_worker_epoch`] runs the same iteration at every `pipeline_depth`:
//!
//! 1. **Fetch** batch `i`: collect the prefetch issued during iteration
//!    `i-1`, or read inline;
//! 2. a reads-done rendezvous, so no read races a peer's write-back;
//! 3. **Compute** the dense forward/backward;
//! 4. **Push** the embedding gradients through one token ring
//!    ([`AllReduceGroup::in_rank_order`]), a canonical rank-ascending
//!    serialization of the shared-table writes;
//! 5. charge the batch's simulated time, then handle due injected faults
//!    behind a rollback-visibility fence (skipped when the run's fault
//!    schedule is empty);
//! 6. the strict-audit abort vote, when auditing is on;
//! 7. at depth >= 2, publish the fetch of batch `i+1`;
//! 8. **Sync** the dense gradients: under BSP one
//!    [`AllReduceGroup::fused_mean_max`] carries both the gradient mean and
//!    the simulated-clock barrier; ASP and PS runs take a plain mean.
//!
//! Depth 1 is the degenerate schedule: step 7 never runs and no companion
//! thread spawns, so every fetch runs inline at step 1.
//!
//! At depth >= 2, step 7 publishes the next fetch into a work-stealing
//! [`PrefetchCell`]. A companion thread (spawned per epoch inside a nested
//! [`std::thread::scope`]) claims it while the main thread blocks in the
//! dense collective, and the main thread steals the job back and runs it
//! inline if the companion never got scheduled — so an oversubscribed host
//! degrades to the depth-1 fetch cost instead of paying a cross-thread
//! handoff per batch. The worker's [`EmbeddingWorker`] handle travels with
//! the job; ownership ping-pongs, nothing is shared.
//!
//! ## State
//!
//! Three structs carry everything the loop touches: [`RunCtx`] (run-wide,
//! shared by every worker), [`Worker`] (one worker's persistent state) and
//! [`EpochInputs`] (what changes per epoch). Each [`StepCtx`] owns the
//! *entire* per-batch working set — embedding input matrix, labels,
//! loss/input gradients, and the dense [`ModelTape`] arena — so a slot can
//! be handed to the companion thread (and back) without any sharing.
//!
//! ## Determinism contract
//!
//! On fault-free runs, losses, AUC and checkpoints are **bit-identical**
//! across every `pipeline_depth` and `gemm_threads` setting:
//!
//! * reads-before-writes is preserved — the fetch of batch `i+1` executes
//!   only after every rank's batch-`i` write-back (ordered by an explicit
//!   barrier, the abort vote, or the dense collective that precedes an
//!   inline read), and no peer can begin batch `i+1` write-backs until
//!   every worker has consumed its fetch (the reads-done fence);
//! * write-backs keep the same canonical rank-ascending serialization at
//!   every depth (the token ring);
//! * the dense mean is the same value-sorted summation at every depth;
//! * row-panel parallel GEMMs ([`GemmPool`]) split only the output rows,
//!   never a reduction, so they match the sequential kernels bitwise.
//!
//! Only the *simulated* overlap accounting differs: a prefetched batch's
//! embedding-read charge may hide behind the previous iteration's dense-sync
//! window (`pipeline.overlap_ratio` reports how much was hidden). Simulated
//! timestamps therefore drift between depths, which is why faulted runs —
//! whose fault *firing times* are clock-dependent — are exempt from the
//! bit-match (they stay protocol-correct and strict-audit clean; see the
//! depth-4 crash tests).
//!
//! Depth > 2 behaves like depth 2: the write-back dependency caps useful
//! lookahead at one batch, so extra slots simply sit idle (kept for API
//! orthogonality and benchmarked as such).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use hetgmp_cluster::{
    CostModel, FaultSchedule, LinkClass, SimClock, TimeCategory, Topology, WorkerFaultKind,
};
use hetgmp_comms::{AllReduceGroup, DenseQuantizer, TrafficClass, TrafficLedger};
use hetgmp_data::CtrDataset;
use hetgmp_embedding::{EmbeddingWorker, ReadReport, RowStore, UpdateReport};
use hetgmp_partition::Partition;
use hetgmp_telemetry::{names, HistogramSummary, Json, ProtocolAuditor, Recorder, TraceCollector};
use hetgmp_tensor::{bce_with_logits_into, DenseOptimizer, GemmPool, Matrix, Sgd};

use crate::models::{CtrModel, ModelTape};
use crate::strategy::{DenseSync, EmbedHome, StrategyConfig};
use crate::trainer::{CheckpointImage, TrainerConfig, WorkerFaultState};

/// The stage a [`StepCtx`] batch slot is currently in. `Idle` slots sit in
/// the [`PipelineDriver`]'s free list; active slots advance strictly
/// `Fetch → Compute → Push → Sync` and back to `Idle` when recycled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchStage {
    /// In the free list, no batch assigned.
    Idle,
    /// Batch assembled; embedding rows being (pre)fetched into `input`.
    Fetch,
    /// Dense forward/backward on the slot's tape.
    Compute,
    /// Embedding-gradient write-back to the shared table.
    Push,
    /// Dense gradient synchronisation (AllReduce / PS push-pull).
    Sync,
}

impl BatchStage {
    fn can_advance_to(self, next: BatchStage) -> bool {
        matches!(
            (self, next),
            (BatchStage::Idle, BatchStage::Fetch)
                | (BatchStage::Fetch, BatchStage::Compute)
                | (BatchStage::Compute, BatchStage::Push)
                | (BatchStage::Push, BatchStage::Sync)
        )
    }
}

/// One in-flight batch's complete working set. Owning everything a batch
/// touches (instead of the pre-pipeline trainer's ~600 lines of per-batch
/// locals) is what lets the runtime hand a whole batch to a companion
/// thread and double-buffer slots without sharing.
pub struct StepCtx {
    stage: BatchStage,
    /// Dataset indices of this batch's samples (assembled by the main
    /// thread, in cursor order — the companion never advances the cursor).
    pub(crate) batch_idx: Vec<u32>,
    /// Per-sample labels, filled during Compute.
    pub(crate) labels: Vec<f32>,
    /// Flat embedding input (`batch × fields·dim`), filled during Fetch.
    pub(crate) input: Matrix,
    /// Loss gradient w.r.t. the logits.
    pub(crate) grad_logits: Matrix,
    /// Gradient w.r.t. the embedding input (consumed by Push).
    pub(crate) grad_input: Matrix,
    /// Dense forward/backward arena — all model-internal scratch.
    pub(crate) tape: ModelTape,
    /// Traffic report of this batch's embedding read.
    pub(crate) read_report: ReadReport,
    /// Whether the Fetch was *issued* a batch ahead of consumption (set at
    /// publish time, deterministic — independent of which thread the OS
    /// actually ran the fetch on).
    pub(crate) prefetched: bool,
}

impl StepCtx {
    /// A fresh slot with empty buffers; everything grows to its steady-state
    /// size during the first batches and is then reused (the `dense.*`
    /// gauges assert zero steady-state growth per tape).
    pub fn new() -> Self {
        Self {
            stage: BatchStage::Idle,
            batch_idx: Vec::new(),
            labels: Vec::new(),
            input: Matrix::zeros(0, 0),
            grad_logits: Matrix::zeros(0, 0),
            grad_input: Matrix::zeros(0, 0),
            tape: ModelTape::new(),
            read_report: ReadReport::default(),
            prefetched: false,
        }
    }

    /// The slot's current pipeline stage.
    pub fn stage(&self) -> BatchStage {
        self.stage
    }

    /// Whether the slot's last Fetch was issued a batch ahead of
    /// consumption (regardless of which thread ended up executing it).
    pub fn is_prefetched(&self) -> bool {
        self.prefetched
    }

    fn advance_to(&mut self, next: BatchStage) {
        debug_assert!(
            self.stage.can_advance_to(next),
            "illegal stage transition {:?} -> {next:?}",
            self.stage
        );
        self.stage = next;
    }

    fn finish(&mut self) {
        debug_assert_eq!(self.stage, BatchStage::Sync, "recycled mid-stage");
        self.stage = BatchStage::Idle;
    }
}

impl Default for StepCtx {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-worker pipeline observability, accumulated across epochs and
/// aggregated into the `pipeline.*` metrics by the trainer.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct PipelineStats {
    /// Wall seconds the main thread spent blocked waiting for a fetch the
    /// companion had claimed (stage stall). Stolen-back fetches run inline
    /// and add nothing here.
    pub(crate) stall_secs: f64,
    /// Wall seconds of fetch work the companion thread actually executed
    /// (i.e. genuine overlap realized by the host scheduler).
    pub(crate) prefetch_secs: f64,
    /// Batches whose Fetch was issued a batch ahead of consumption
    /// (deterministic issue-order count, not an executed-on-companion
    /// count).
    pub(crate) prefetched: u64,
    /// Batches executed, at every depth; the occupancy denominator.
    pub(crate) batches: u64,
}

/// Per-stage attribution profiler: bounded-memory wall and simulated-time
/// histograms for each [`BatchStage`] of the batch loop, plus a
/// self-measurement of its own cost.
///
/// The hot loop never touches the recorder: stage durations accumulate
/// into plain stack arrays (`pending_*`), fold into local
/// [`HistogramSummary`]s once per batch, and merge into the worker's
/// recorder once per epoch ([`Recorder::histogram_merge`]) — so the
/// steady-state cost per batch is a handful of `Instant` reads and eight
/// histogram folds. That cost is itself measured: `finish_batch` times its
/// own bookkeeping and adds a calibrated per-read cost for every timestamp
/// the loop took, accumulating `overhead_secs` (exported as the
/// `telemetry.overhead_secs` gauge; the pipeline bench asserts it stays
/// under 2% of hot-path wall time).
///
/// Wall attribution is from the worker main thread's perspective: `fetch`
/// is assembly + embedding read (or, for a prefetched batch, the time to
/// acquire it — stall + steal-back); `write_back` includes the rank-order
/// rendezvous that serializes it; `sync` is the dense collective.
/// Simulated attribution follows the cost model's charges: `fetch` = the
/// embedding read's comm seconds, `write_back` = the gradient write-back's
/// comm seconds, `compute` = the batch's compute charge, `sync` = the
/// dense-sync charge (metadata stays in `time.meta_comm_secs`).
pub struct StageProfiler {
    wall: [HistogramSummary; 4],
    sim: [HistogramSummary; 4],
    pending_wall: [f64; 4],
    pending_sim: [f64; 4],
    overhead_secs: f64,
    /// Calibrated wall cost of one `Instant::now()` read.
    timer_read_secs: f64,
    /// Timer reads taken by the loop since the last `finish_batch`.
    stamps: u32,
    /// Pre-rendered metric names, so the flush never formats.
    wall_names: [String; 4],
    sim_names: [String; 4],
}

impl StageProfiler {
    /// A profiler with a freshly calibrated timer cost (a few µs, once per
    /// worker per run).
    pub fn new() -> Self {
        let metric = |stage: &str, kind: &str| {
            format!("{}{stage}.{kind}_secs", names::PIPELINE_STAGE_PREFIX)
        };
        let stage_names = names::PIPELINE_STAGES;
        Self {
            wall: [HistogramSummary::empty(); 4],
            sim: [HistogramSummary::empty(); 4],
            pending_wall: [0.0; 4],
            pending_sim: [0.0; 4],
            overhead_secs: 0.0,
            timer_read_secs: Self::calibrate_timer(),
            stamps: 0,
            wall_names: stage_names.map(|s| metric(s, "wall")),
            sim_names: stage_names.map(|s| metric(s, "sim")),
        }
    }

    /// Measures the cost of one `Instant::now()` by timing a short burst.
    fn calibrate_timer() -> f64 {
        const READS: u32 = 512;
        let t0 = Instant::now();
        for _ in 0..READS {
            std::hint::black_box(Instant::now());
        }
        t0.elapsed().as_secs_f64() / f64::from(READS)
    }

    fn slot(stage: BatchStage) -> usize {
        match stage {
            BatchStage::Fetch => 0,
            BatchStage::Compute => 1,
            BatchStage::Push => 2,
            BatchStage::Sync | BatchStage::Idle => 3,
        }
    }

    /// Takes a stage-start timestamp (counted toward the overhead).
    pub fn start(&mut self) -> Instant {
        self.stamps += 1;
        Instant::now()
    }

    /// Credits the wall time since `since` to `stage`.
    pub fn wall(&mut self, stage: BatchStage, since: Instant) {
        self.stamps += 1;
        self.pending_wall[Self::slot(stage)] += since.elapsed().as_secs_f64();
    }

    /// Credits `secs` of simulated time to `stage`.
    pub fn sim(&mut self, stage: BatchStage, secs: f64) {
        self.pending_sim[Self::slot(stage)] += secs;
    }

    /// The simulated seconds credited so far this batch, in stage order
    /// `[fetch, compute, write_back, sync]` (feeds the per-stage trace
    /// spans).
    pub fn pending_sim(&self) -> [f64; 4] {
        self.pending_sim
    }

    /// Folds the batch's pending stage times into the histograms and
    /// charges the profiler's own bookkeeping to `overhead_secs`.
    pub fn finish_batch(&mut self) {
        let t0 = Instant::now();
        for i in 0..4 {
            self.wall[i].observe(self.pending_wall[i]);
            self.sim[i].observe(self.pending_sim[i]);
            self.pending_wall[i] = 0.0;
            self.pending_sim[i] = 0.0;
        }
        // Own cost: this fold, its two timer reads, and every stage stamp
        // the loop took since the previous fold.
        self.overhead_secs += t0.elapsed().as_secs_f64()
            + f64::from(self.stamps + 2) * self.timer_read_secs;
        self.stamps = 0;
    }

    /// Merges the accumulated histograms into `recorder` and resets them
    /// (called once per epoch; merges are additive across epochs and
    /// workers).
    pub fn flush(&mut self, recorder: &dyn Recorder) {
        for i in 0..4 {
            recorder.histogram_merge(&self.wall_names[i], &self.wall[i]);
            recorder.histogram_merge(&self.sim_names[i], &self.sim[i]);
            self.wall[i] = HistogramSummary::empty();
            self.sim[i] = HistogramSummary::empty();
        }
    }

    /// Wall seconds the profiler has charged to itself so far.
    pub fn overhead_secs(&self) -> f64 {
        self.overhead_secs
    }
}

impl Default for StageProfiler {
    fn default() -> Self {
        Self::new()
    }
}

/// Owns a worker's [`StepCtx`] slot pool and hands slots to the stage loop:
/// `acquire` an `Idle` slot for a new batch, `recycle` it after Sync. Depth
/// is fixed at construction ([`TrainerConfig::pipeline_depth`]); the loop
/// never holds more than two slots live (current + one prefetch in flight),
/// so extra depth is spare capacity, not extra lookahead.
pub struct PipelineDriver {
    depth: usize,
    free: Vec<StepCtx>,
}

impl PipelineDriver {
    pub(crate) fn new(slots: Vec<StepCtx>) -> Self {
        let depth = slots.len();
        debug_assert!(depth >= 1, "pipeline needs at least one slot");
        Self { depth, free: slots }
    }

    /// The configured pipeline depth (total slot count).
    pub fn depth(&self) -> usize {
        self.depth
    }

    fn acquire(&mut self) -> StepCtx {
        self.free
            .pop()
            .expect("pipeline slots exhausted: acquire without matching recycle")
    }

    fn recycle(&mut self, ctx: StepCtx) {
        debug_assert!(self.free.len() < self.depth, "recycled a foreign slot");
        self.free.push(ctx);
    }

    fn into_slots(self) -> Vec<StepCtx> {
        debug_assert_eq!(self.free.len(), self.depth, "pipeline slot leaked");
        self.free
    }
}

/// The run-wide context every worker thread borrows for the whole run:
/// configuration, the shared table and collectives, the cost model, and the
/// run's atomic training counters. Read-only apart from the atomics.
pub(crate) struct RunCtx<'r> {
    pub(crate) dataset: &'r CtrDataset,
    pub(crate) cfg: &'r TrainerConfig,
    pub(crate) strategy: &'r StrategyConfig,
    pub(crate) cost: &'r CostModel,
    pub(crate) group: &'r AllReduceGroup,
    pub(crate) ledger: &'r TrafficLedger,
    pub(crate) table: &'r dyn RowStore,
    pub(crate) partition: &'r Partition,
    pub(crate) faults: &'r FaultSchedule,
    pub(crate) tracer: Option<&'r TraceCollector>,
    pub(crate) auditor: Option<&'r ProtocolAuditor>,
    /// Iterations per worker per epoch.
    pub(crate) iters: usize,
    /// Dense-gradient payload bytes per AllReduce (in the wire format).
    pub(crate) dense_bytes: u64,
    pub(crate) flops_per_sample: f64,
    /// Samples trained, summed over workers and epochs.
    pub(crate) samples: AtomicU64,
    /// This epoch's summed batch loss, in fixed-point micro-units.
    pub(crate) loss_sum_micro: AtomicU64,
    /// This epoch's batches with a finite loss.
    pub(crate) loss_batches: AtomicU64,
    /// Batches whose loss came out non-finite, over the whole run.
    pub(crate) nonfinite: AtomicU64,
}

impl RunCtx<'_> {
    /// BSP runs close every iteration with a simulated-clock barrier.
    fn is_bsp(&self) -> bool {
        matches!(self.strategy.dense_sync, DenseSync::AllReduce)
            && matches!(self.strategy.embed_home, EmbedHome::Gpu)
    }

    /// Wire bytes of one embedding row in the configured sync format.
    fn row_bytes(&self) -> u64 {
        self.cfg.sync_format.row_wire_bytes(self.cfg.dim)
    }

    /// Whether *any* worker can fault this run. Uniform across workers, so
    /// every worker's collective schedule agrees on the fault fences.
    fn have_faults(&self) -> bool {
        (0..self.group.num_participants()).any(|p| !self.faults.worker_faults(p).is_empty())
    }
}

/// One worker's persistent state: owned by the trainer across epochs and
/// lent to the worker's thread for one epoch at a time. The worker's
/// [`EmbeddingWorker`] handle is lent alongside rather than stored here,
/// because it travels into the prefetch cell while the rest stays on the
/// worker's main thread.
pub(crate) struct Worker {
    /// The worker's rank.
    pub(crate) w: usize,
    /// Dataset indices of the worker's training samples.
    pub(crate) shard: Vec<u32>,
    /// Persistent wrap-around position in `shard`.
    pub(crate) cursor: usize,
    pub(crate) batch_size: usize,
    /// Compute slowdown factor (1.0 = nominal accelerator).
    pub(crate) compute_scale: f64,
    pub(crate) model: CtrModel,
    pub(crate) clock: SimClock,
    /// The [`StepCtx`] slot pool, one slot per unit of pipeline depth.
    pub(crate) slots: Vec<StepCtx>,
    /// Row-panel GEMM helpers (`gemm_threads >= 2`).
    pub(crate) pool: Option<Arc<GemmPool>>,
    pub(crate) recorder: Arc<dyn Recorder>,
    pub(crate) profiler: StageProfiler,
    pub(crate) pstats: PipelineStats,
    pub(crate) fstate: WorkerFaultState,
}

/// What changes from one epoch to the next, shared by every worker.
pub(crate) struct EpochInputs<'e> {
    /// 1-based epoch number.
    pub(crate) epoch: usize,
    /// The image a crash rolls back to; `None` when the fault schedule has
    /// no crashes.
    pub(crate) image: Option<&'e CheckpointImage>,
}

/// A prefetch request: the worker's embedding handle travels into the
/// [`PrefetchCell`] together with the slot it fills, and both come back in
/// [`FetchDone`] — exclusive ownership ping-pongs, nothing is shared.
struct FetchJob<'a, 'b> {
    emb: &'a mut (dyn EmbeddingWorker + 'b),
    ctx: StepCtx,
}

struct FetchDone<'a, 'b> {
    emb: &'a mut (dyn EmbeddingWorker + 'b),
    ctx: StepCtx,
    /// Wall seconds the fetch took *on the companion thread*; 0.0 when the
    /// main thread ran it.
    fetch_secs: f64,
}

/// The work-stealing handoff between a worker's main thread and its fetch
/// companion. The main thread publishes the next batch's fetch job right
/// after the write-back; the companion claims it whenever the OS schedules
/// it — typically while the main thread is blocked inside the dense
/// collective, which is exactly the window the prefetch is meant to fill.
/// If the companion has *not* claimed the job by the time the main thread
/// needs the batch, the main thread steals it back and runs the fetch
/// inline: the degenerate case costs one uncontended mutex acquisition
/// instead of a cross-thread handoff (park + unpark), which is what keeps
/// depth >= 2 from regressing on a saturated host.
///
/// Determinism: which thread executes the fetch is OS-scheduling dependent,
/// but the fetch itself is the same pure read either way (the table is
/// quiescent between the writes-done ordering point and the next reads-done
/// fence). `StepCtx::prefetched` therefore records *issue* order — set when
/// the job is published, deterministic — and only the wall-clock fields of
/// [`PipelineStats`] (`stall_secs`, `prefetch_secs`) record what the
/// scheduler actually did.
struct PrefetchCell<'a, 'b> {
    state: Mutex<PrefetchState<'a, 'b>>,
    ready: Condvar,
}

enum PrefetchState<'a, 'b> {
    /// No job in flight.
    Idle,
    /// A job is published and unclaimed. The main thread may always steal
    /// it back; the companion may claim it only when it was `offered`
    /// (hosts with spare cores) — otherwise a companion that happens to be
    /// awake (fresh spawn, spurious wakeup) would grab work the main
    /// thread is better off running inline.
    Published { job: FetchJob<'a, 'b>, offered: bool },
    /// The companion claimed the job and is fetching.
    Claimed,
    /// The companion finished; the result waits for the main thread.
    Done(FetchDone<'a, 'b>),
    /// Epoch over — the companion exits.
    Shutdown,
}

impl<'a, 'b> PrefetchCell<'a, 'b> {
    fn new() -> Self {
        Self {
            state: Mutex::new(PrefetchState::Idle),
            ready: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PrefetchState<'a, 'b>> {
        self.state.lock().expect("prefetch cell poisoned")
    }

    /// Publishes the next batch's fetch; wakes the companion only when the
    /// job is `offered` to it.
    fn publish(&self, job: FetchJob<'a, 'b>, offered: bool) {
        *self.lock() = PrefetchState::Published { job, offered };
        if offered {
            self.ready.notify_one();
        }
    }

    /// Collects the in-flight job. An unclaimed job is stolen back and run
    /// through `fetch` on the caller's thread; a claimed one is waited for,
    /// and the wait is returned as the stage stall (`None` after a steal).
    fn collect(
        &self,
        fetch: impl FnOnce(FetchJob<'a, 'b>) -> FetchDone<'a, 'b>,
    ) -> (FetchDone<'a, 'b>, Option<f64>) {
        let mut st = self.lock();
        if let PrefetchState::Published { .. } = &*st {
            let PrefetchState::Published { job, .. } =
                std::mem::replace(&mut *st, PrefetchState::Idle)
            else {
                unreachable!()
            };
            drop(st);
            return (fetch(job), None);
        }
        let wait = Instant::now();
        while !matches!(&*st, PrefetchState::Done(_)) {
            st = self.ready.wait(st).expect("prefetch cell poisoned");
        }
        let PrefetchState::Done(done) = std::mem::replace(&mut *st, PrefetchState::Idle) else {
            unreachable!()
        };
        (done, Some(wait.elapsed().as_secs_f64()))
    }

    /// Ends the epoch: the companion's wait loop exits.
    fn shutdown(&self) {
        *self.lock() = PrefetchState::Shutdown;
        self.ready.notify_all();
    }
}

/// Runs one fetch job to completion: sample-slice assembly plus the batched
/// embedding read. Shared by the main thread and the companion so both
/// executors run byte-for-byte the same read.
fn execute_fetch<'a, 'b, 'd>(
    job: FetchJob<'a, 'b>,
    dataset: &'d CtrDataset,
    dim: usize,
    slices: &mut Vec<&'d [u32]>,
) -> FetchDone<'a, 'b> {
    let FetchJob { emb, mut ctx } = job;
    slices.clear();
    slices.extend(ctx.batch_idx.iter().map(|&i| dataset.sample(i as usize)));
    if !slices.is_empty() {
        ctx.input.reset(slices.len(), dataset.num_fields * dim);
        ctx.read_report = emb.read_batch(slices, ctx.input.data_mut());
    } else {
        ctx.read_report = ReadReport::default();
    }
    FetchDone { emb, ctx, fetch_secs: 0.0 }
}

/// The companion thread body: claim offered jobs until shutdown. It only
/// ever touches state it exclusively owns (the claimed job's emb + slot).
fn companion_loop(cell: &PrefetchCell<'_, '_>, dataset: &CtrDataset, dim: usize, batch: usize) {
    let mut slices: Vec<&[u32]> = Vec::with_capacity(batch);
    loop {
        let job = {
            let mut st = cell.lock();
            loop {
                match &*st {
                    PrefetchState::Published { offered: true, .. } => {
                        let PrefetchState::Published { job, .. } =
                            std::mem::replace(&mut *st, PrefetchState::Claimed)
                        else {
                            unreachable!()
                        };
                        break job;
                    }
                    PrefetchState::Shutdown => return,
                    _ => st = cell.ready.wait(st).expect("prefetch cell poisoned"),
                }
            }
        };
        let t0 = Instant::now();
        let mut done = execute_fetch(job, dataset, dim, &mut slices);
        done.fetch_secs = t0.elapsed().as_secs_f64();
        *cell.lock() = PrefetchState::Done(done);
        cell.ready.notify_all();
    }
}

/// Runs one worker's epoch: `run.iters` iterations of the one schedule
/// described in the module docs. At depth 1 no prefetch is published and no
/// companion thread spawns; every fetch runs inline.
pub(crate) fn run_worker_epoch(
    run: &RunCtx<'_>,
    epoch: &EpochInputs<'_>,
    worker: &mut Worker,
    emb: &mut (dyn EmbeddingWorker + '_),
) {
    let (dataset, cfg, group, tracer) = (run.dataset, run.cfg, run.group, run.tracer);
    let (w, dim, batch_size) = (worker.w, cfg.dim, worker.batch_size);
    let epoch_start = worker.clock.now();
    let prefetch = cfg.pipeline_depth >= 2;
    let have_faults = run.have_faults();
    // Offer a published fetch to the companion only when the host has cores
    // to spare beyond the worker main threads. On an oversubscribed host the
    // freshly-woken companion wins the scheduler's favor, claims the job,
    // and the main thread later blocks on it — a net loss over just running
    // the fetch inline, which the steal-back path does for free. This only
    // decides who is *likely* to run the fetch, which the determinism
    // contract is explicitly independent of.
    let offer = prefetch
        && std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(1)
            > group.num_participants();

    // Pre-size the embedding scratch so the companion never grows buffers
    // mid-prefetch (allocation hint only, never correctness). Depth 1 lets
    // the buffers grow to what its reads actually need.
    if prefetch {
        emb.reserve_batch(batch_size, dataset.num_fields);
    }
    let mut emb_slot = Some(emb);
    let mut driver = PipelineDriver::new(std::mem::take(&mut worker.slots));
    let mut sample_slices: Vec<&[u32]> = Vec::with_capacity(batch_size);
    let mut dense_grads: Vec<f32> = Vec::new();
    // Stateless SGD on the replicated dense parameters.
    let mut sgd = Sgd::new(cfg.dense_lr);
    // Dense-gradient wire transport. Per-epoch so its error-feedback
    // residuals reset at the same barrier replica resync does — a
    // checkpoint-resumed run bit-matches an uninterrupted one.
    let mut dense_quant = DenseQuantizer::new(cfg.sync_format, cfg.sync_error_feedback);
    // The previous iteration's dense-sync seconds: the window a prefetched
    // embedding read can hide behind on the simulated clock (the fetch
    // genuinely ran during that sync on the wall clock).
    let mut prev_sync_t = 0.0f64;
    let cell = PrefetchCell::new();

    std::thread::scope(|scope| {
        if prefetch {
            let cell = &cell;
            scope.spawn(move || companion_loop(cell, dataset, dim, batch_size));
        }
        let mut inflight = false;
        for i in 0..run.iters {
            // Publish the worker's simulated position so instants emitted
            // deeper in the stack (protocol decisions, traffic charges)
            // land at this batch's timestamp on the timeline.
            if let Some(t) = tracer {
                t.set_worker_time(w, worker.clock.now());
            }
            let batch_start = worker.clock.now();

            // ---- Fetch: collect the prefetch, or read inline. --------------
            // Wall time from the main thread's perspective: the stall on the
            // companion, the steal-back read, or the inline read.
            let t_fetch = worker.profiler.start();
            let done = if inflight {
                inflight = false;
                let (done, stall) =
                    cell.collect(|job| execute_fetch(job, dataset, dim, &mut sample_slices));
                worker.pstats.prefetched += 1;
                if let Some(stall) = stall {
                    worker.pstats.stall_secs += stall;
                    worker.pstats.prefetch_secs += done.fetch_secs;
                    if let Some(t) = tracer {
                        t.worker_instant(
                            w,
                            names::TRACE_PIPELINE_PREFETCH,
                            &[("wall_secs", Json::F64(done.fetch_secs))],
                        );
                    }
                }
                done
            } else {
                // Every iteration at depth 1; the first (or post-abort) one
                // deeper. The table is quiescent at an iteration boundary.
                let mut slot = driver.acquire();
                assemble_batch(&mut slot, &worker.shard, &mut worker.cursor, batch_size);
                slot.advance_to(BatchStage::Fetch);
                let emb = emb_slot.take().expect("emb handle present");
                execute_fetch(FetchJob { emb, ctx: slot }, dataset, dim, &mut sample_slices)
            };
            emb_slot = Some(done.emb);
            let mut slot = done.ctx;
            worker.profiler.wall(BatchStage::Fetch, t_fetch);
            worker.pstats.batches += 1;
            // The write-back needs the sample slices regardless of where the
            // fetch ran; rebuilding them is a handful of pointer derefs.
            sample_slices.clear();
            sample_slices.extend(slot.batch_idx.iter().map(|&i| dataset.sample(i as usize)));
            let have_grad = !sample_slices.is_empty();

            // ---- Reads-done fence: every worker's reads drain before any --
            // gradient lands in the shared table. Pure thread rendezvous: no
            // simulated time, no data.
            group.barrier();

            // ---- Dense forward/backward on the slot's own tape. -----------
            slot.advance_to(BatchStage::Compute);
            if have_grad {
                let t_compute = worker.profiler.start();
                dense_compute(run, worker, &mut slot);
                worker.profiler.wall(BatchStage::Compute, t_compute);
            }

            // ---- Write-back, serialized in rank order. --------------------
            // Concurrent updates to a shared row do not commute under
            // Adagrad (the g² accumulator changes the next step), so a
            // canonical rank-ascending serialization is what makes same-seed
            // runs — and checkpoint resumes — reproducible. The token ring
            // realizes it with one handoff per rank.
            slot.advance_to(BatchStage::Push);
            let t_push = worker.profiler.start();
            let up_report = {
                let emb = emb_slot.as_deref_mut().expect("emb handle present");
                group.in_rank_order(w, || {
                    have_grad.then(|| {
                        emb.apply_gradients(&sample_slices, slot.grad_input.data(), &cfg.embed_opt)
                    })
                })
            };
            worker.profiler.wall(BatchStage::Push, t_push);
            // ---- Writes-done ordering. ------------------------------------
            // Before any thread may *execute* the next fetch, every rank's
            // ring turn must be complete — a low rank exits its turn while
            // higher ranks are still writing. Three cases:
            //  * auditing on: the abort vote below is a full rendezvous
            //    entered by each rank only after its ring turn, so
            //    return-from-vote already happens-after the last write;
            //  * no vote, job not offered (depth 1, or no spare cores): the
            //    next fetch runs on this thread after this iteration's dense
            //    collective, itself a full rendezvous past every ring turn;
            //  * no vote, offered: the companion may start fetching the
            //    moment the job is published, so an explicit barrier must
            //    order the publish after the last ring turn.
            // Injected faults keep the barrier unconditionally (rollbacks
            // below must be ordered against every peer's write-back).
            // None of these forms charges simulated time.
            if have_faults || (run.auditor.is_none() && offer) {
                group.barrier();
            }

            // ---- Charge simulated time. -----------------------------------
            if let Some(up_report) = &up_report {
                charge_batch(run, worker, &slot, up_report, prev_sync_t);
            }

            // ---- Injected faults (skipped entirely on fault-free runs). ---
            if have_faults {
                let emb = emb_slot.as_deref_mut().expect("emb handle present");
                process_due_faults(run, worker, epoch.image, emb);
                // Rollback-visibility fence: no peer may read the table
                // again until every rollback is complete.
                group.barrier();
            }

            // ---- Strict audit: agree collectively on whether the auditor --
            // tripped, so every worker leaves at the same iteration boundary
            // (a unilateral break would strand its peers in the next
            // collective). The decision also gates the next prefetch.
            let tripped = run.auditor.is_some_and(|a| group.agree(a.is_tripped()));

            // ---- Issue the prefetch for batch i + 1 (depth >= 2). ---------
            // Safe: every rank's write-back (and rollback) is ordered before
            // the fetch executes, so the table holds exactly this
            // iteration's final state, and no peer can write batch i+1
            // gradients until after the next reads-done fence.
            if prefetch && !tripped && i + 1 < run.iters {
                let mut next = driver.acquire();
                assemble_batch(&mut next, &worker.shard, &mut worker.cursor, batch_size);
                next.advance_to(BatchStage::Fetch);
                // Issued ahead of consumption — deterministic, regardless of
                // which thread the scheduler ends up running the fetch on.
                next.prefetched = true;
                let emb = emb_slot.take().expect("emb handle present");
                cell.publish(FetchJob { emb, ctx: next }, offer);
                inflight = true;
            }

            // ---- Dense synchronisation. -----------------------------------
            slot.advance_to(BatchStage::Sync);
            let t_sync = worker.profiler.start();
            prev_sync_t = sync_dense(run, worker, &mut dense_grads, &mut dense_quant, &mut sgd);
            worker.profiler.wall(BatchStage::Sync, t_sync);
            worker.profiler.sim(BatchStage::Sync, prev_sync_t);
            slot.finish();

            if let Some(t) = tracer {
                trace_stage_spans(t, w, batch_start, worker.profiler.pending_sim());
                t.worker_span(
                    w,
                    names::TRACE_BATCH,
                    batch_start,
                    worker.clock.now() - batch_start,
                    &[("samples", Json::U64(slot.batch_idx.len() as u64))],
                );
            }
            worker.profiler.finish_batch();
            driver.recycle(slot);
            if tripped {
                break;
            }
        }
        // No prefetch is ever in flight here: the last iteration and the
        // abort path both skip the issue. The scope joins the companion.
        cell.shutdown();
    });

    worker.slots = driver.into_slots();

    if let Some(t) = tracer {
        t.worker_span(
            w,
            names::TRACE_EPOCH,
            epoch_start,
            worker.clock.now() - epoch_start,
            &[("epoch", Json::U64(epoch.epoch as u64))],
        );
    }
}

// ---------------------------------------------------------------------------
// Stage bodies.
// ---------------------------------------------------------------------------

/// Fills the slot's batch from the local shard, wrap-around over the
/// persistent cursor — always on the main thread, so issue order equals
/// cursor order at every depth.
fn assemble_batch(slot: &mut StepCtx, shard: &[u32], cursor: &mut usize, batch_size: usize) {
    let bs = batch_size.min(shard.len().max(1));
    slot.batch_idx.clear();
    if !shard.is_empty() {
        // (Degenerate empty-shard corner: skip math, still join
        // collectives so peers don't deadlock.)
        for _ in 0..bs {
            slot.batch_idx.push(shard[*cursor % shard.len()]);
            *cursor += 1;
        }
    }
    slot.read_report = ReadReport::default();
    slot.prefetched = false;
}

/// Dense forward/backward on the slot's tape — real math, blocked kernels,
/// optionally row-panel parallel under the worker's [`GemmPool`].
/// Everything between entry and `end_batch` reuses tape buffers — zero
/// allocations once warm (the `dense.*` gauges assert it).
fn dense_compute(run: &RunCtx<'_>, worker: &mut Worker, slot: &mut StepCtx) {
    let StepCtx {
        batch_idx,
        labels,
        input,
        grad_logits,
        grad_input,
        tape,
        ..
    } = slot;
    let model = &mut worker.model;
    let recorder = &worker.recorder;
    let mut body = || {
        let dense_start = Instant::now();
        model.forward_tape(input, tape);
        labels.clear();
        labels.extend(batch_idx.iter().map(|&i| run.dataset.label(i as usize)));
        let batch_loss = bce_with_logits_into(tape.logits(), labels, grad_logits);
        if batch_loss.is_finite() {
            run.loss_sum_micro
                .fetch_add((batch_loss.max(0.0) as f64 * 1e6) as u64, Ordering::Relaxed);
            run.loss_batches.fetch_add(1, Ordering::Relaxed);
        } else {
            // `max(0.0)` on a NaN would silently yield 0.0 and bury the
            // divergence in the epoch's mean loss; count it instead.
            run.nonfinite.fetch_add(1, Ordering::Relaxed);
            recorder.counter_add(names::TRAIN_LOSS_NONFINITE, 1);
        }
        model.zero_grad();
        model.backward_tape(input, grad_logits, grad_input, tape);
        tape.dense_secs += dense_start.elapsed().as_secs_f64();
        tape.end_batch();
    };
    match &worker.pool {
        Some(p) => p.install(body),
        None => body(),
    }
}

/// Charges one batch's simulated time (compute, input pipeline, embedding
/// comm, metadata) and records its traffic. A prefetched read may also hide
/// behind the previous iteration's dense-sync window, `prev_sync_t`.
fn charge_batch(
    run: &RunCtx<'_>,
    worker: &mut Worker,
    slot: &StepCtx,
    up_report: &UpdateReport,
    prev_sync_t: f64,
) {
    let (w, cost, strategy) = (worker.w, run.cost, run.strategy);
    let (clock, profiler) = (&mut worker.clock, &mut worker.profiler);
    let (actual, read_report) = (slot.batch_idx.len(), &slot.read_report);
    // The straggler factor scales arithmetic throughput, not the
    // fixed launch overhead (a slow accelerator still dispatches
    // kernels at normal latency).
    let flops = run.flops_per_sample * actual as f64;
    let compute_t = cost.compute.per_batch_overhead
        + (flops / cost.compute.flops_per_second) * worker.compute_scale;
    clock.advance(TimeCategory::Compute, compute_t);
    profiler.sim(BatchStage::Compute, compute_t);

    // Input pipeline (overlapped behind compute).
    let input_bytes = (actual * run.dataset.num_fields * 4) as u64;
    clock.advance_overlapped(
        TimeCategory::HostIo,
        cost.link_transfer_time(LinkClass::HostPcie, input_bytes),
        compute_t,
    );

    let comm = charge_embedding_comm(run, w, read_report, up_report, clock.now());
    let embed_t = comm.read + comm.write_back;
    profiler.sim(BatchStage::Fetch, comm.read);
    profiler.sim(BatchStage::Push, comm.write_back);
    let extra_overlap = if slot.prefetched { prev_sync_t } else { 0.0 };
    let window = if strategy.overlap { compute_t } else { 0.0 } + extra_overlap;
    if strategy.overlap || slot.prefetched {
        clock.advance_overlapped(TimeCategory::EmbedComm, embed_t, window);
    } else {
        clock.advance(TimeCategory::EmbedComm, embed_t);
    }
    clock.advance(TimeCategory::MetaComm, comm.meta);

    run.ledger.record(
        w,
        TrafficClass::EmbedData,
        read_report.data_bytes + up_report.data_bytes,
        read_report.messages + up_report.messages,
    );
    run.ledger.record(
        w,
        TrafficClass::KeysClocks,
        read_report.meta_bytes + up_report.meta_bytes,
        read_report.messages + up_report.messages,
    );
    run.samples.fetch_add(actual as u64, Ordering::Relaxed);
}

/// Dense gradient synchronisation: charges, mean-AllReduce, clip, SGD step.
/// Returns the dense-sync seconds charged (the next iteration's prefetch
/// overlap window).
///
/// Under BSP the mean and the simulated-clock barrier are **one**
/// [`AllReduceGroup::fused_mean_max`], whose max lane carries the
/// post-charge clock. ASP/PS runs reduce with a plain mean and no barrier:
/// simulated clocks drift freely, but the OS threads still rendezvous at
/// the collective (math-level combining without a time barrier). Both
/// collectives use the same value-sorted summation, so gradient means are
/// identical either way.
fn sync_dense(
    run: &RunCtx<'_>,
    worker: &mut Worker,
    dense_grads: &mut Vec<f32>,
    quant: &mut DenseQuantizer,
    sgd: &mut Sgd,
) -> f64 {
    let (w, cost, dense_bytes) = (worker.w, run.cost, run.dense_bytes);
    let (topology, clock) = (&cost.topology, &mut worker.clock);
    worker.model.flatten_grads_into(dense_grads);
    // The local gradient crosses the wire once per collective; transporting
    // it before the reduction keeps losses depth-invariant under every
    // format.
    quant.transport(dense_grads);

    let t = match run.strategy.dense_sync {
        DenseSync::AllReduce => {
            let t = cost.allreduce_time_at(dense_bytes, clock.now());
            trace_allreduce_span(run.tracer, topology, w, clock.now(), t, dense_bytes);
            clock.advance(TimeCategory::AllReduceComm, t);
            run.ledger
                .record(w, TrafficClass::AllReduce, allreduce_bytes(dense_bytes, topology), 1);
            t
        }
        DenseSync::PsAsync => {
            // Push gradients + pull parameters over the shared host link.
            let n = topology.num_workers() as u64;
            let t = cost.link_transfer_time(LinkClass::HostPcie, 2 * dense_bytes * n);
            if let Some(tr) = run.tracer {
                tr.link_span(
                    LinkClass::HostPcie.label(),
                    names::TRACE_ALLREDUCE,
                    clock.now(),
                    t,
                    &[("worker", Json::U64(w as u64)), ("bytes", Json::U64(2 * dense_bytes))],
                );
            }
            clock.advance(TimeCategory::AllReduceComm, t);
            run.ledger.record(w, TrafficClass::AllReduce, 2 * dense_bytes, 2);
            t
        }
    };

    if run.is_bsp() {
        let (max_clock, _) = run.group.fused_mean_max(dense_grads, clock.now(), false);
        clip_and_step(&mut worker.model, dense_grads, sgd, run.cfg.grad_clip);
        clock.wait_until(max_clock);
    } else {
        run.group.allreduce_mean(dense_grads);
        clip_and_step(&mut worker.model, dense_grads, sgd, run.cfg.grad_clip);
    }
    t
}

/// Global-norm clip, then one SGD step on the (replicated) dense
/// parameters — same math as the former inline loop (`p -= lr·g`), routed
/// through the optimizer abstraction's slot protocol.
fn clip_and_step(
    model: &mut CtrModel,
    dense_grads: &mut [f32],
    sgd: &mut Sgd,
    grad_clip: Option<f32>,
) {
    if let Some(clip) = grad_clip {
        let norm = dense_grads.iter().map(|g| g * g).sum::<f32>().sqrt();
        if norm > clip {
            let scale = clip / norm;
            for g in dense_grads.iter_mut() {
                *g *= scale;
            }
        }
    }
    model.load_grads(dense_grads);
    sgd.begin_step();
    let mut slot = 0usize;
    model.visit_params(&mut |p, g| {
        sgd.update(slot, p, g);
        slot += 1;
    });
}

/// The ring's bottleneck hop names the AllReduce span's track.
fn trace_allreduce_span(
    tracer: Option<&TraceCollector>,
    topology: &Topology,
    w: usize,
    start: f64,
    t: f64,
    dense_bytes: u64,
) {
    if let Some(tr) = tracer {
        let n = topology.num_workers();
        let label = if n > 1 {
            topology.link(w, (w + 1) % n).label()
        } else {
            LinkClass::Local.label()
        };
        tr.link_span(
            label,
            names::TRACE_ALLREDUCE,
            start,
            t,
            &[("worker", Json::U64(w as u64)), ("bytes", Json::U64(dense_bytes))],
        );
    }
}

/// Consumes every fault event due at the worker's current simulated time.
/// Faults fire inside the affected worker's own thread, between
/// collectives: the worker never abandons a rendezvous, so peers are
/// never stranded — they simply absorb the downtime through the BSP
/// simulated-time barrier.
fn process_due_faults(
    run: &RunCtx<'_>,
    worker: &mut Worker,
    image: Option<&CheckpointImage>,
    emb: &mut dyn EmbeddingWorker,
) {
    let (w, faults, table, tracer) = (worker.w, run.faults, run.table, run.tracer);
    let (clock, fstate, recorder) = (&mut worker.clock, &mut worker.fstate, &worker.recorder);
    while let Some(f) = faults.worker_faults(w).get(fstate.next) {
        if f.at > clock.now() {
            break;
        }
        fstate.next += 1;
        match f.kind {
            WorkerFaultKind::Stall { duration } => {
                let start = clock.now();
                clock.advance(TimeCategory::Fault, duration);
                fstate.stall_secs += duration;
                recorder.counter_add(names::FAULT_STALLS, 1);
                recorder.gauge_set(names::FAULT_STALL_SECS, fstate.stall_secs);
                if let Some(t) = tracer {
                    t.worker_span(
                        w,
                        names::TRACE_FAULT_STALL,
                        start,
                        duration,
                        &[("duration_secs", Json::F64(duration))],
                    );
                }
            }
            WorkerFaultKind::Crash => {
                let crash_time = clock.now();
                if let Some(t) = tracer {
                    t.set_worker_time(w, crash_time);
                    t.worker_instant(w, names::TRACE_FAULT_CRASH, &[]);
                }
                let image = image.expect("crash schedules always capture a checkpoint image");
                // The device's state is gone. Roll this worker's primary
                // rows back to the checkpoint image (clocks move
                // backwards; peers' saturating gap math reads them as
                // fresh, so the staleness invariant holds), then discard
                // worker-local pendings and re-prime replicas.
                let dim = table.dim();
                let zero_accum = vec![0.0f32; dim];
                let roll_accums = table.has_optimizer_state();
                let mut lost = 0u64;
                let mut rolled = 0u64;
                for e in 0..table.num_rows() as u32 {
                    if run.partition.primary_of(e) != w as u32 {
                        continue;
                    }
                    let cur = table.clock(e);
                    let ck = image.clocks[e as usize];
                    if cur != ck {
                        table.restore_row(
                            e,
                            &image.values[e as usize * dim..(e as usize + 1) * dim],
                            ck,
                        );
                        // Optimizer state rolls back with the values it
                        // produced (a `None` capture means it was zero).
                        if roll_accums {
                            table.restore_accum(
                                e,
                                image.accums.as_ref().map_or(&zero_accum[..], |a| {
                                    &a[e as usize * dim..(e as usize + 1) * dim]
                                }),
                            );
                        }
                        rolled += 1;
                        lost += cur.saturating_sub(ck);
                    }
                }
                let refreshed = emb.recover_from_crash();
                // Recovery cost: restart, restore this worker's shard of
                // the image over the host link, re-fetch refreshed
                // replicas from peers, and replay the work done since the
                // image was captured.
                let cost = run.cost;
                let n_workers = cost.topology.num_workers() as u64;
                let restore_t =
                    cost.link_transfer_time(LinkClass::HostPcie, image.bytes / n_workers.max(1));
                let refresh_t = mean_link_time(w, cost, refreshed.saturating_mul(run.row_bytes()));
                let replay_t = (crash_time - image.sim_times[w]).max(0.0);
                let recovery_t = faults.restart_overhead() + restore_t + refresh_t + replay_t;
                clock.advance(TimeCategory::Fault, recovery_t);
                fstate.recovery_secs += recovery_t;
                recorder.counter_add(names::FAULT_CRASHES, 1);
                recorder.counter_add(names::FAULT_LOST_UPDATES, lost);
                recorder.counter_add(names::FAULT_RESTORED_ROWS, rolled + refreshed);
                recorder.gauge_set(names::FAULT_RECOVERY_SECS, fstate.recovery_secs);
                if let Some(t) = tracer {
                    t.worker_span(
                        w,
                        names::TRACE_FAULT_RECOVERY,
                        crash_time,
                        recovery_t,
                        &[
                            ("lost_updates", Json::U64(lost)),
                            ("restored_rows", Json::U64(rolled + refreshed)),
                        ],
                    );
                }
            }
        }
    }
}

/// Ring AllReduce wire bytes: `2·(N−1)/N · payload` per worker.
pub(crate) fn allreduce_bytes(dense_bytes: u64, topology: &Topology) -> u64 {
    let n = topology.num_workers() as u64;
    if n <= 1 {
        0
    } else {
        2 * (n - 1) * dense_bytes / n
    }
}

/// One batch's embedding-communication seconds, split by direction so the
/// stage profiler can attribute them: `read` belongs to the Fetch stage,
/// `write_back` to Push, `meta` to neither (it stays `time.meta_comm`).
/// The total charge is exactly `read + write_back` — the split never
/// changes what the clock advances by.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct EmbedCommTimes {
    pub(crate) read: f64,
    pub(crate) write_back: f64,
    pub(crate) meta: f64,
}

/// Converts the per-source byte breakdowns into per-direction embedding
/// and metadata seconds ([`EmbedCommTimes`]) for worker `w` under the given
/// strategy. When a tracer is attached, each per-peer transfer also becomes
/// a `trace.link.transfer` span on the link-class track, laid out
/// sequentially from `start_secs`.
fn charge_embedding_comm(
    run: &RunCtx<'_>,
    w: usize,
    read: &ReadReport,
    up: &UpdateReport,
    start_secs: f64,
) -> EmbedCommTimes {
    let (cost, tracer) = (run.cost, run.tracer);
    match run.strategy.embed_home {
        EmbedHome::CpuPs => {
            // Every lookup/update crosses the host link, regardless of the
            // GPU partition: charge the full working set. The parameter
            // server's host link is a *shared* resource: N workers pulling
            // simultaneously each see 1/N of its bandwidth — this contention
            // is precisely why the paper's CPU-PS baselines (TF, Parallax)
            // fall behind GPU model parallelism (Figure 7).
            let n = cost.topology.num_workers() as u64;
            let lookups = read.lookups();
            let updates = up.updates();
            let dim_bytes = if lookups + updates > 0 {
                // data_bytes only counts remote rows; reconstruct full rows
                // from counts via bytes-per-row of the remote ones, falling
                // back to the configured wire size when everything was local.
                estimate_row_bytes(read, up, run.row_bytes())
            } else {
                0
            };
            let total_bytes = (lookups + updates) * dim_bytes * n;
            let t = cost.link_transfer_time(LinkClass::HostPcie, total_bytes);
            if let Some(tr) = tracer {
                if total_bytes > 0 {
                    tr.link_span(
                        LinkClass::HostPcie.label(),
                        names::TRACE_LINK_TRANSFER,
                        start_secs,
                        t,
                        &[("worker", Json::U64(w as u64)), ("bytes", Json::U64(total_bytes))],
                    );
                }
            }
            let meta_bytes = (lookups + updates) * 12 * n;
            let mt = cost.link_transfer_time(LinkClass::HostPcie, meta_bytes);
            // The shared-link charge was computed over the combined working
            // set; apportion it by row count for stage attribution only
            // (lookups are Fetch work, updates are Push work).
            let read_frac = if lookups + updates > 0 {
                lookups as f64 / (lookups + updates) as f64
            } else {
                0.0
            };
            EmbedCommTimes {
                read: t * read_frac,
                write_back: t * (1.0 - read_frac),
                meta: mt,
            }
        }
        EmbedHome::Gpu => {
            let mut t = 0.0;
            for (src, &bytes) in read.data_bytes_by_src.iter().enumerate() {
                if bytes > 0 {
                    let dt = cost.transfer_time_at(w, src, bytes, start_secs + t);
                    if let Some(tr) = tracer {
                        tr.link_span(
                            cost.topology.link(w, src).label(),
                            names::TRACE_LINK_TRANSFER,
                            start_secs + t,
                            dt,
                            &[
                                ("dir", Json::from("read")),
                                ("worker", Json::U64(w as u64)),
                                ("peer", Json::U64(src as u64)),
                                ("bytes", Json::U64(bytes)),
                            ],
                        );
                    }
                    t += dt;
                }
            }
            let read_t = t;
            for (dst, &bytes) in up.data_bytes_by_dst.iter().enumerate() {
                if bytes > 0 {
                    let dt = cost.transfer_time_at(w, dst, bytes, start_secs + t);
                    if let Some(tr) = tracer {
                        tr.link_span(
                            cost.topology.link(w, dst).label(),
                            names::TRACE_LINK_TRANSFER,
                            start_secs + t,
                            dt,
                            &[
                                ("dir", Json::from("writeback")),
                                ("worker", Json::U64(w as u64)),
                                ("peer", Json::U64(dst as u64)),
                                ("bytes", Json::U64(bytes)),
                            ],
                        );
                    }
                    t += dt;
                }
            }
            // Latency is charged per (batch, peer) round-trip inside
            // `transfer_time` above — real systems coalesce a batch's rows
            // into one request per peer, so per-row latency would be wrong.
            // Metadata crosses the same fabric; charge it at the worker's
            // mean link bandwidth.
            let meta = read.meta_bytes + up.meta_bytes;
            let mt = if meta > 0 {
                mean_link_time(w, cost, meta)
            } else {
                0.0
            };
            EmbedCommTimes {
                read: read_t,
                write_back: t - read_t,
                meta: mt,
            }
        }
    }
}

/// Emits per-stage sub-spans (`trace.stage.<stage>`) under the batch span:
/// the batch's simulated stage seconds laid end-to-end from `batch_start`,
/// in pipeline order fetch → compute → write_back → sync. An approximation
/// by construction — overlapped charges genuinely overlap on the clock —
/// but it makes the batch's composition visible on the timeline. Gated at
/// [`TraceLevel::Sync`] so default (`batch`-level) traces stay lean.
fn trace_stage_spans(tracer: &TraceCollector, w: usize, batch_start: f64, sim: [f64; 4]) {
    if !tracer.enabled(hetgmp_telemetry::TraceLevel::Sync) {
        return;
    }
    let mut at = batch_start;
    for (i, stage) in names::PIPELINE_STAGES.iter().enumerate() {
        if sim[i] > 0.0 {
            tracer.worker_span(
                w,
                &format!("{}{stage}", names::TRACE_STAGE_PREFIX),
                at,
                sim[i],
                &[],
            );
            at += sim[i];
        }
    }
}

/// Bytes per embedding row, estimated from whichever report carried data;
/// `fallback` (the configured per-row wire size) covers all-local batches.
fn estimate_row_bytes(read: &ReadReport, up: &UpdateReport, fallback: u64) -> u64 {
    let remote_rows = read.remote_total() + up.remote_writebacks;
    match (read.data_bytes + up.data_bytes).checked_div(remote_rows) {
        Some(b) if remote_rows > 0 => b,
        _ => fallback,
    }
}

/// α-β time for `bytes` over worker `w`'s average non-local link.
pub(crate) fn mean_link_time(w: usize, cost: &CostModel, bytes: u64) -> f64 {
    let n = cost.topology.num_workers();
    if n <= 1 {
        return 0.0;
    }
    let mut total = 0.0;
    for p in 0..n {
        if p != w {
            total += cost.transfer_time(w, p, bytes / (n as u64 - 1).max(1));
        }
    }
    total / (n - 1) as f64
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use hetgmp_cluster::{FaultSchedule, Topology};
    use hetgmp_data::{generate, DatasetSpec};
    use hetgmp_telemetry::AuditMode;

    use crate::strategy::StrategyConfig;
    use crate::trainer::{TrainResult, Trainer, TrainerConfig};

    use super::*;

    fn tiny_dataset() -> hetgmp_data::CtrDataset {
        let mut spec = DatasetSpec::tiny();
        spec.num_samples = 512;
        generate(&spec)
    }

    fn fast_config() -> TrainerConfig {
        TrainerConfig {
            epochs: 2,
            batch_size: 64,
            dim: 8,
            hidden: vec![16],
            max_eval_samples: 256,
            ..Default::default()
        }
    }

    fn run_shape(
        data: &hetgmp_data::CtrDataset,
        depth: usize,
        threads: usize,
    ) -> TrainResult {
        Trainer::new(
            data,
            Topology::pcie_island(2),
            StrategyConfig::het_gmp(100),
            TrainerConfig {
                pipeline_depth: depth,
                gemm_threads: threads,
                ..fast_config()
            },
        )
        .run()
    }

    /// Asserts the determinism contract between two fault-free runs: the
    /// whole training curve (losses, AUC, log-loss) matches bitwise.
    /// Simulated times are deliberately excluded — prefetch overlap changes
    /// the simulated schedule, never the math.
    fn assert_bit_identical(a: &TrainResult, b: &TrainResult, what: &str) {
        assert_eq!(a.curve.len(), b.curve.len(), "{what}: curve length");
        assert_eq!(a.samples_processed, b.samples_processed, "{what}: samples");
        for (pa, pb) in a.curve.iter().zip(&b.curve) {
            assert_eq!(
                pa.train_loss.to_bits(),
                pb.train_loss.to_bits(),
                "{what}: epoch {} train_loss {} vs {}",
                pa.epoch,
                pa.train_loss,
                pb.train_loss
            );
            assert_eq!(
                pa.auc.to_bits(),
                pb.auc.to_bits(),
                "{what}: epoch {} auc {} vs {}",
                pa.epoch,
                pa.auc,
                pb.auc
            );
            assert_eq!(
                pa.log_loss.to_bits(),
                pb.log_loss.to_bits(),
                "{what}: epoch {} log_loss {} vs {}",
                pa.epoch,
                pa.log_loss,
                pb.log_loss
            );
        }
    }

    #[test]
    fn depth_and_thread_matrix_is_bit_identical_to_sequential() {
        let data = tiny_dataset();
        let baseline = run_shape(&data, 1, 1);
        assert!(baseline.final_auc > 0.55, "AUC {}", baseline.final_auc);
        for depth in [1usize, 2, 4] {
            for threads in [1usize, 2, 4] {
                if (depth, threads) == (1, 1) {
                    continue;
                }
                let r = run_shape(&data, depth, threads);
                assert_bit_identical(
                    &baseline,
                    &r,
                    &format!("depth {depth} x threads {threads}"),
                );
            }
        }
    }

    #[test]
    fn pipelined_run_reports_prefetch_stats() {
        let data = tiny_dataset();
        let r = run_shape(&data, 2, 1);
        assert_eq!(
            r.telemetry.gauge(names::PIPELINE_DEPTH).unwrap_or(0.0),
            2.0
        );
        // Every iteration but each epoch's first consumes a prefetch.
        let prefetched = r.telemetry.counter(names::PIPELINE_PREFETCHED_BATCHES);
        assert!(prefetched > 0, "no batch was prefetched");
        let occupancy = r
            .telemetry
            .gauge(names::PIPELINE_STAGE_OCCUPANCY)
            .unwrap_or(0.0);
        assert!(
            occupancy > 0.5 && occupancy < 1.0,
            "occupancy {occupancy} outside (0.5, 1.0)"
        );
        // The depth-1 run records the shape but prefetches nothing.
        let seq = run_shape(&data, 1, 1);
        assert_eq!(seq.telemetry.counter(names::PIPELINE_PREFETCHED_BATCHES), 0);
        assert_eq!(
            seq.telemetry.gauge(names::PIPELINE_DEPTH).unwrap_or(0.0),
            1.0
        );
    }

    #[test]
    fn pipelined_strict_audit_crash_run_recovers_clean() {
        // The PR 3 fault contract must survive the pipelined schedule at its
        // deepest setting: a crash (with rollback) plus a stall under BSP +
        // strict audit completes the full curve with zero violations, and the
        // collective abort vote keeps every worker leaving at the same
        // iteration boundary (a deadlock here would hang the test).
        let data = tiny_dataset();
        let faults = Arc::new(
            FaultSchedule::parse("stall@0:0.0:0.003; crash@1:0.000001", 2, 42).unwrap(),
        );
        let r = Trainer::new(
            &data,
            Topology::pcie_island(2),
            StrategyConfig::het_gmp(0),
            TrainerConfig {
                pipeline_depth: 4,
                ..fast_config()
            },
        )
        .with_audit(AuditMode::Strict)
        .with_faults(faults)
        .run();
        let audit = r.audit.expect("audit enabled");
        assert_eq!(audit.total_violations(), 0, "{}", audit.render());
        assert!(audit.strict_failure.is_none());
        assert_eq!(r.curve.len(), 2, "faulted pipelined run did not complete");
        assert_eq!(r.telemetry.counter(names::FAULT_CRASHES), 1);
        assert_eq!(r.telemetry.counter(names::FAULT_STALLS), 1);
        assert!(r.breakdown.fault > 0.0, "no fault time charged");
        assert!(r.final_auc > 0.55, "AUC collapsed: {}", r.final_auc);
    }

    #[test]
    fn pipelined_checkpoint_resume_matches_sequential_resume() {
        // Checkpoint/resume operates on whole StepCtx slots: a depth-2 run
        // resumed from a checkpoint replays exactly the math a depth-1
        // resume replays, so the two resumed runs match bitwise.
        let dir = std::env::temp_dir().join(format!(
            "hetgmp-pipeline-ckpt-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let data = tiny_dataset();
        let full = Trainer::new(
            &data,
            Topology::pcie_island(2),
            StrategyConfig::het_gmp(0),
            TrainerConfig {
                checkpoint_every: 1,
                checkpoint_dir: Some(dir.clone()),
                pipeline_depth: 2,
                ..fast_config()
            },
        )
        .run();
        let resume = |depth: usize| {
            Trainer::new(
                &data,
                Topology::pcie_island(2),
                StrategyConfig::het_gmp(0),
                TrainerConfig {
                    resume_from: Some(dir.join("ckpt-epoch-1.hgmr")),
                    pipeline_depth: depth,
                    ..fast_config()
                },
            )
            .run()
        };
        let seq = resume(1);
        let piped = resume(2);
        assert_eq!(piped.curve.len(), 1, "resume should only run epoch 2");
        assert_bit_identical(&seq, &piped, "resumed depth 2 vs resumed depth 1");
        // And the resumed run agrees with the uninterrupted one within the
        // established acceptance tolerance.
        assert!(
            (piped.final_auc - full.final_auc).abs() < 0.01,
            "resumed {} vs uninterrupted {}",
            piped.final_auc,
            full.final_auc
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn builder_validates_pipeline_fields() {
        assert!(TrainerConfig::builder().pipeline_depth(1).build().is_ok());
        assert!(TrainerConfig::builder().pipeline_depth(8).build().is_ok());
        let err = TrainerConfig::builder().pipeline_depth(0).build().unwrap_err();
        assert_eq!(err.exit_code(), 78, "{err}");
        assert!(err.to_string().contains("pipeline_depth"), "{err}");
        assert!(TrainerConfig::builder().pipeline_depth(9).build().is_err());
        assert!(TrainerConfig::builder().gemm_threads(32).build().is_ok());
        assert!(TrainerConfig::builder().gemm_threads(0).build().is_err());
        assert!(TrainerConfig::builder().gemm_threads(33).build().is_err());
    }

    #[test]
    fn hand_built_zero_pipeline_config_is_an_error_not_a_hang() {
        // TrainerConfig's fields are public; a zero depth would mean no batch
        // slots, a zero thread count no GEMM workers, and a compute-scale
        // list of the wrong length no scale for some worker, so try_run must
        // reject all three before any thread spawns.
        let data = tiny_dataset();
        for cfg in [
            TrainerConfig {
                pipeline_depth: 0,
                ..fast_config()
            },
            TrainerConfig {
                gemm_threads: 0,
                ..fast_config()
            },
            TrainerConfig {
                compute_scales: Some(vec![1.0]),
                ..fast_config()
            },
        ] {
            let err = Trainer::new(
                &data,
                Topology::pcie_island(2),
                StrategyConfig::het_gmp(100),
                cfg,
            )
            .try_run()
            .unwrap_err();
            assert_eq!(err.exit_code(), 78, "{err}");
        }
    }

    #[test]
    fn stage_transitions_enforce_the_legal_order() {
        let mut ctx = StepCtx::new();
        assert_eq!(ctx.stage(), BatchStage::Idle);
        ctx.advance_to(BatchStage::Fetch);
        ctx.advance_to(BatchStage::Compute);
        ctx.advance_to(BatchStage::Push);
        ctx.advance_to(BatchStage::Sync);
        ctx.finish();
        assert_eq!(ctx.stage(), BatchStage::Idle);
        assert!(!BatchStage::Idle.can_advance_to(BatchStage::Compute));
        assert!(!BatchStage::Fetch.can_advance_to(BatchStage::Push));
        assert!(!BatchStage::Sync.can_advance_to(BatchStage::Fetch));
    }

    #[test]
    fn driver_round_trips_its_slots() {
        let mut driver = PipelineDriver::new(vec![StepCtx::new(), StepCtx::new()]);
        assert_eq!(driver.depth(), 2);
        let mut a = driver.acquire();
        let _b = driver.acquire();
        a.advance_to(BatchStage::Fetch);
        a.advance_to(BatchStage::Compute);
        a.advance_to(BatchStage::Push);
        a.advance_to(BatchStage::Sync);
        a.finish();
        driver.recycle(a);
        driver.recycle(_b);
        assert_eq!(driver.into_slots().len(), 2);
    }
}
