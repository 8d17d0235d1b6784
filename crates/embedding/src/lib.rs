#![warn(missing_docs)]

//! # hetgmp-embedding
//!
//! The distributed embedding table of HET-GMP (paper §5.2–5.3, §6).
//!
//! Layout follows Figure 6: every embedding row has exactly one **primary**
//! replica (authoritative, "always up-to-date": every update is written back
//! to it) on the partition chosen by the 1D edge-cut, and may have
//! **secondary** replicas (created by 2D vertex-cut) that are allowed to go
//! stale within the bounded-asynchrony protocol:
//!
//! * **intra-embedding synchronisation** — before a worker reads its
//!   secondary copy of `x`, the copy must be within `s` updates of the
//!   primary (missed *other-worker* updates), else it is re-fetched;
//! * **inter-embedding synchronisation** — the embeddings co-accessed by one
//!   sample must be mutually fresh: for a pair `(x_i, x_j)` with access
//!   frequencies `p_i ≥ p_j`, the *normalised* clock gap
//!   `|c_i · p_j/p_i − c_j|` must not exceed `s` (clock normalisation
//!   eliminates the bias from uneven access frequencies, §5.3), else the
//!   staler secondary is synchronised.
//!
//! Components:
//! * [`ShardedTable`] — the global primary store: lock-striped rows +
//!   per-row atomic update clocks; safe for concurrent worker threads
//!   (stands in for the paper's CUDA embedding tables + NCCL p2p);
//! * [`SecondaryCache`] — one worker's secondary replicas with base-clock /
//!   local-update bookkeeping ("extra space for stale gradients", §6);
//! * [`WorkerEmbedding`] — a worker's view combining both plus the
//!   [`Partition`](hetgmp_partition::Partition): `read` with staleness
//!   checks, `apply_gradients` with local reduction and primary write-back,
//!   returning a [`ReadReport`]/[`UpdateReport`] of every byte that would
//!   have crossed the interconnect;
//! * [`SparseOpt`] — per-row SGD / Adagrad applied at the primary.

pub mod cache;
pub mod cached_worker;
pub mod capacity;
pub mod checkpoint;
pub mod lfu;
pub mod report;
pub mod sparse_optim;
pub mod store;
pub mod table;
pub mod tiered;
pub mod worker;

pub use cache::SecondaryCache;
pub use cached_worker::CachedWorkerEmbedding;
pub use capacity::CapacityPlan;
pub use checkpoint::{
    load_run, load_table, run_encoded_len, save_run, save_table, table_encoded_len,
    CheckpointError, RunState, WorkerState,
};
pub use lfu::LfuCache;
pub use report::{ReadReport, UpdateReport};
pub use sparse_optim::SparseOpt;
pub use store::{CapacityStats, ReadPath, ReadPathStats, RowStore};
pub use table::{BatchScratch, ShardedTable};
pub use tiered::{TieredConfig, TieredTable};
pub use worker::{StalenessBound, WorkerEmbedding};

pub use hetgmp_comms::SyncFormat;

/// A worker-side embedding interface: batch reads under some consistency
/// discipline plus gradient application. Implemented by the statically
/// replicated [`WorkerEmbedding`] (HET-GMP) and the dynamically cached
/// [`CachedWorkerEmbedding`] (HET-style), so trainers can swap designs.
pub trait EmbeddingWorker: Send {
    /// Reads a batch of samples' rows into `out` (sample-major).
    fn read_batch(&mut self, samples: &[&[u32]], out: &mut [f32]) -> ReadReport;
    /// Applies per-lookup gradients aligned with the previous read.
    fn apply_gradients(
        &mut self,
        samples: &[&[u32]],
        grads: &[f32],
        opt: &SparseOpt,
    ) -> UpdateReport;
    /// Flushes any deferred state (epoch/evaluation barriers).
    fn flush_all(&mut self, opt: &SparseOpt) -> UpdateReport;
    /// Pre-sizes hot-path scratch for batches of up to `batch` samples ×
    /// `fields` lookups each, so the first batches (and the pipelined
    /// trainer's prefetch stage, which runs `read_batch` on a companion
    /// thread) never grow buffers mid-flight. Purely an allocation hint —
    /// never required for correctness. Default is a no-op.
    fn reserve_batch(&mut self, batch: usize, fields: usize) {
        let _ = (batch, fields);
    }
    /// Refreshes every worker-local replica / cached row from the
    /// authoritative table. Called at epoch barriers *after* all workers
    /// have flushed, so the in-memory state entering the next epoch is
    /// exactly what a checkpoint resume reconstructs (resumed runs warm-
    /// load replicas from the restored table). Returns the number of rows
    /// re-fetched; the caller charges their transfer. Default is a no-op
    /// for implementations that hold no local copies.
    fn sync_replicas(&mut self) -> u64 {
        0
    }
    /// Attaches a telemetry recorder for `embedding.*` metrics. Default is a
    /// no-op so trivial implementations stay trivial.
    fn attach_recorder(&mut self, recorder: std::sync::Arc<dyn hetgmp_telemetry::Recorder>) {
        let _ = recorder;
    }
    /// Attaches a protocol auditor observing every staleness decision.
    /// Default is a no-op.
    fn attach_auditor(&mut self, auditor: std::sync::Arc<hetgmp_telemetry::ProtocolAuditor>) {
        let _ = auditor;
    }
    /// Attaches a trace collector for per-batch decision instants.
    /// Default is a no-op.
    fn attach_tracer(&mut self, tracer: std::sync::Arc<hetgmp_telemetry::TraceCollector>) {
        let _ = tracer;
    }
    /// Discards any state lost with the worker's device (pending deferred
    /// gradients, stale replicas) and re-primes local replicas from the
    /// authoritative table, as crash recovery does after the table has been
    /// rolled back to a checkpoint. Returns the number of rows re-fetched
    /// (the caller charges their transfer to the simulated clock). Default
    /// is a no-op for implementations that hold no worker-local state.
    fn recover_from_crash(&mut self) -> u64 {
        0
    }
    /// Reports which telemetry hooks are attached as
    /// `(recorder, auditor, tracer)` — used by debug assertions to verify
    /// that hooks survive every construction/injection path. Default claims
    /// none.
    fn hooks_attached(&self) -> (bool, bool, bool) {
        (false, false, false)
    }
    /// Selects the wire format for inter-worker embedding payloads and
    /// whether lossy gradient pushes carry per-row error feedback. Call
    /// before training (right after construction) so warm-loaded replicas
    /// go through the same format as steady-state fetches. Default is a
    /// no-op for implementations that move no embedding bytes.
    fn set_sync_format(&mut self, format: SyncFormat, error_feedback: bool) {
        let _ = (format, error_feedback);
    }
    /// Selects which table read path `read_batch` uses: lock-free seqlock
    /// snapshots (the default) or the locked escape hatch. Both are
    /// bit-identical; call before training so every fetch (including replica
    /// warm-loads) goes through the chosen path. Default is a no-op for
    /// implementations that read nothing.
    fn set_read_path(&mut self, path: ReadPath) {
        let _ = path;
    }
}

impl EmbeddingWorker for WorkerEmbedding<'_> {
    fn reserve_batch(&mut self, batch: usize, fields: usize) {
        WorkerEmbedding::reserve_batch(self, batch, fields)
    }
    fn read_batch(&mut self, samples: &[&[u32]], out: &mut [f32]) -> ReadReport {
        WorkerEmbedding::read_batch(self, samples, out)
    }
    fn apply_gradients(
        &mut self,
        samples: &[&[u32]],
        grads: &[f32],
        opt: &SparseOpt,
    ) -> UpdateReport {
        WorkerEmbedding::apply_gradients(self, samples, grads, opt)
    }
    fn flush_all(&mut self, opt: &SparseOpt) -> UpdateReport {
        WorkerEmbedding::flush_all(self, opt)
    }
    fn sync_replicas(&mut self) -> u64 {
        WorkerEmbedding::sync_all(self) as u64
    }
    fn attach_recorder(&mut self, recorder: std::sync::Arc<dyn hetgmp_telemetry::Recorder>) {
        WorkerEmbedding::attach_recorder(self, recorder)
    }
    fn attach_auditor(&mut self, auditor: std::sync::Arc<hetgmp_telemetry::ProtocolAuditor>) {
        WorkerEmbedding::attach_auditor(self, auditor)
    }
    fn attach_tracer(&mut self, tracer: std::sync::Arc<hetgmp_telemetry::TraceCollector>) {
        WorkerEmbedding::attach_tracer(self, tracer)
    }
    fn recover_from_crash(&mut self) -> u64 {
        WorkerEmbedding::recover_from_crash(self)
    }
    fn hooks_attached(&self) -> (bool, bool, bool) {
        WorkerEmbedding::hooks_attached(self)
    }
    fn set_sync_format(&mut self, format: SyncFormat, error_feedback: bool) {
        WorkerEmbedding::set_sync_format(self, format, error_feedback)
    }
    fn set_read_path(&mut self, path: ReadPath) {
        WorkerEmbedding::set_read_path(self, path)
    }
}

impl EmbeddingWorker for CachedWorkerEmbedding<'_> {
    fn reserve_batch(&mut self, batch: usize, fields: usize) {
        CachedWorkerEmbedding::reserve_batch(self, batch, fields)
    }
    fn read_batch(&mut self, samples: &[&[u32]], out: &mut [f32]) -> ReadReport {
        CachedWorkerEmbedding::read_batch(self, samples, out)
    }
    fn apply_gradients(
        &mut self,
        samples: &[&[u32]],
        grads: &[f32],
        opt: &SparseOpt,
    ) -> UpdateReport {
        CachedWorkerEmbedding::apply_gradients(self, samples, grads, opt)
    }
    fn flush_all(&mut self, _opt: &SparseOpt) -> UpdateReport {
        // Dynamic caching writes back eagerly; nothing is deferred.
        UpdateReport::default()
    }
    fn sync_replicas(&mut self) -> u64 {
        // Same mechanics as crash recovery: the dynamic cache defers
        // nothing, so "recovery" is exactly a full cached-row refresh.
        CachedWorkerEmbedding::recover_from_crash(self)
    }
    fn attach_recorder(&mut self, recorder: std::sync::Arc<dyn hetgmp_telemetry::Recorder>) {
        CachedWorkerEmbedding::attach_recorder(self, recorder)
    }
    fn attach_auditor(&mut self, auditor: std::sync::Arc<hetgmp_telemetry::ProtocolAuditor>) {
        CachedWorkerEmbedding::attach_auditor(self, auditor)
    }
    fn attach_tracer(&mut self, tracer: std::sync::Arc<hetgmp_telemetry::TraceCollector>) {
        CachedWorkerEmbedding::attach_tracer(self, tracer)
    }
    fn recover_from_crash(&mut self) -> u64 {
        CachedWorkerEmbedding::recover_from_crash(self)
    }
    fn hooks_attached(&self) -> (bool, bool, bool) {
        CachedWorkerEmbedding::hooks_attached(self)
    }
    fn set_sync_format(&mut self, format: SyncFormat, error_feedback: bool) {
        CachedWorkerEmbedding::set_sync_format(self, format, error_feedback)
    }
    fn set_read_path(&mut self, path: ReadPath) {
        CachedWorkerEmbedding::set_read_path(self, path)
    }
}
