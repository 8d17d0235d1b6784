//! The storage abstraction behind the primary embedding store.
//!
//! [`RowStore`] is the exact surface of [`ShardedTable`] — per-row and
//! batched reads/updates/writes, clocks, checkpoint restore hooks — as an
//! object-safe trait, so the workers, the LFU cache, the pipeline prefetch
//! stage, and checkpointing are all written against `&dyn RowStore` and do
//! not care whether rows live in RAM ([`ShardedTable`]) or partly in spill
//! files ([`crate::TieredTable`]). `&ShardedTable` coerces to
//! `&dyn RowStore` at every existing call site, so in-memory users are
//! unchanged.

use crate::sparse_optim::SparseOpt;
use crate::table::{BatchScratch, ShardedTable};

/// Which table read path the embedding hot loop uses. Both return
/// bit-identical bytes for the same rows; they differ only in who waits on
/// whom, so this is a runtime knob (`--read-path`), not part of the config
/// digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadPath {
    /// Lock-free seqlock snapshot reads (the default): zero lock
    /// acquisitions on the read-mostly path, torn reads retried, bounded
    /// fallback to the locked path.
    #[default]
    Snapshot,
    /// The pre-seqlock escape hatch: every read takes its stripe's read
    /// lock.
    Locked,
}

impl ReadPath {
    /// CLI/report spelling (`--read-path snapshot|locked`).
    pub fn as_str(&self) -> &'static str {
        match self {
            ReadPath::Snapshot => "snapshot",
            ReadPath::Locked => "locked",
        }
    }
}

/// Outcome counters of the snapshot read path, drained into the
/// `hotpath.read.*` metrics at end of run. All-zero when the store never
/// served a snapshot read (e.g. `--read-path locked`).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReadPathStats {
    /// Rows served lock-free (consistent seqlock copy, or a resident page
    /// for tiered stores).
    pub snapshot_rows: u64,
    /// Read attempts retried after observing a torn (odd or advanced)
    /// version word.
    pub retries: u64,
    /// Rows served by the locked fallback (retry budget exhausted, or a
    /// page fault on a tiered store).
    pub fallback_rows: u64,
}

/// Buffer-manager counters and byte accounting of a spillable store.
/// All-zero for fully resident stores.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CapacityStats {
    /// Cold pages loaded back from the spill file (page faults).
    pub fault_loads: u64,
    /// Resident pages evicted to stay inside the RAM budget.
    pub evictions: u64,
    /// Dirty evictions that wrote the page back to its spill file.
    pub writebacks: u64,
    /// Bytes of pages currently resident in RAM.
    pub resident_bytes: u64,
    /// Bytes of pages whose authoritative copy is currently on disk.
    /// Disjoint from `resident_bytes` by construction.
    pub spilled_bytes: u64,
    /// Configured RAM budget, bytes (0 = unbounded / not a tiered store).
    pub budget_bytes: u64,
}

/// The primary embedding store as seen by its clients: `num_rows × dim`
/// f32 rows with per-row update clocks, batched access via
/// [`BatchScratch`], and checkpoint restore hooks. Implementations must be
/// safe for concurrent worker threads (`Sync`) and bit-identical to
/// [`ShardedTable`] for the same operation sequence — the differential
/// suite in `tests/tiered_differential.rs` enforces that.
pub trait RowStore: Sync {
    /// Embedding dimension.
    fn dim(&self) -> usize;
    /// Number of rows.
    fn num_rows(&self) -> usize;
    /// Current update clock of `row`.
    fn clock(&self, row: u32) -> u64;
    /// Reads `row` into `out`; returns the pre-read clock.
    fn read_row(&self, row: u32, out: &mut [f32]) -> u64;
    /// Batched [`RowStore::read_row`]; see [`ShardedTable::read_rows`].
    fn read_rows(&self, rows: &[u32], out: &mut [f32], clocks: &mut [u64], scratch: &mut BatchScratch);
    /// Applies one gradient and ticks the row clock; returns the new clock.
    fn apply_grad(&self, row: u32, grad: &[f32], opt: &SparseOpt) -> u64;
    /// Batched [`RowStore::apply_grad`]; see [`ShardedTable::apply_grads`].
    fn apply_grads(
        &self,
        rows: &[u32],
        grads: &[f32],
        opt: &SparseOpt,
        clocks: &mut [u64],
        scratch: &mut BatchScratch,
    );
    /// Overwrites `row` without advancing its clock.
    fn write_row(&self, row: u32, values: &[f32]);
    /// Batched [`RowStore::write_row`]; see [`ShardedTable::write_rows`].
    fn write_rows(&self, rows: &[u32], values: &[f32], scratch: &mut BatchScratch);
    /// Overwrites `row` with explicit values *and* clock (restore path).
    fn restore_row(&self, row: u32, values: &[f32], clock: u64);
    /// True if any optimizer (Adagrad) state has been allocated.
    fn has_optimizer_state(&self) -> bool;
    /// Reads `row`'s Adagrad accumulator; `false` + zero-fill when the
    /// accumulator is implicitly zero.
    fn read_accum(&self, row: u32, out: &mut [f32]) -> bool;
    /// Overwrites `row`'s Adagrad accumulator, allocating as needed.
    fn restore_accum(&self, row: u32, values: &[f32]);
    /// Sum of all clocks — total updates applied.
    fn total_updates(&self) -> u64;
    /// Approximate **resident** heap footprint, bytes. Spilled pages are
    /// excluded — they are reported by [`RowStore::spilled_bytes`], so RAM
    /// accounting never double-counts partitions that live on disk.
    fn heap_bytes(&self) -> usize;
    /// Data-path lock acquisitions since construction (what the batched
    /// API amortises; see [`ShardedTable::lock_acquisitions`]).
    fn lock_acquisitions(&self) -> u64;
    /// Bytes whose authoritative copy currently lives in the spill file.
    /// 0 for fully resident stores.
    fn spilled_bytes(&self) -> u64 {
        0
    }
    /// Buffer-manager counters; all-zero for fully resident stores.
    fn capacity_stats(&self) -> CapacityStats {
        CapacityStats::default()
    }

    // --- snapshot reads ------------------------------------------------
    //
    // Lock-free reads with locked-path fallback. The defaults delegate to
    // the locked reads, so a store without a snapshot structure still
    // reads correctly (if slower); `ShardedTable` overrides with the
    // per-stripe seqlock and `TieredTable` with resident-page copies.

    /// Lock-free [`RowStore::read_row`] where the store supports it;
    /// bit-identical to the locked read either way.
    fn read_row_snapshot(&self, row: u32, out: &mut [f32]) -> u64 {
        self.read_row(row, out)
    }

    /// Batched [`RowStore::read_row_snapshot`]. `scratch` is only used by
    /// implementations that still group rows (the tiered store groups by
    /// page; the seqlock path reads rows in caller order and ignores it).
    fn read_rows_snapshot(
        &self,
        rows: &[u32],
        out: &mut [f32],
        clocks: &mut [u64],
        scratch: &mut BatchScratch,
    ) {
        self.read_rows(rows, out, clocks, scratch)
    }

    /// Outcome counters of the snapshot read path since construction.
    fn read_path_stats(&self) -> ReadPathStats {
        ReadPathStats::default()
    }
}

impl RowStore for ShardedTable {
    fn dim(&self) -> usize {
        ShardedTable::dim(self)
    }
    fn num_rows(&self) -> usize {
        ShardedTable::num_rows(self)
    }
    fn clock(&self, row: u32) -> u64 {
        ShardedTable::clock(self, row)
    }
    fn read_row(&self, row: u32, out: &mut [f32]) -> u64 {
        ShardedTable::read_row(self, row, out)
    }
    fn read_rows(&self, rows: &[u32], out: &mut [f32], clocks: &mut [u64], scratch: &mut BatchScratch) {
        ShardedTable::read_rows(self, rows, out, clocks, scratch)
    }
    fn apply_grad(&self, row: u32, grad: &[f32], opt: &SparseOpt) -> u64 {
        ShardedTable::apply_grad(self, row, grad, opt)
    }
    fn apply_grads(
        &self,
        rows: &[u32],
        grads: &[f32],
        opt: &SparseOpt,
        clocks: &mut [u64],
        scratch: &mut BatchScratch,
    ) {
        ShardedTable::apply_grads(self, rows, grads, opt, clocks, scratch)
    }
    fn write_row(&self, row: u32, values: &[f32]) {
        ShardedTable::write_row(self, row, values)
    }
    fn write_rows(&self, rows: &[u32], values: &[f32], scratch: &mut BatchScratch) {
        ShardedTable::write_rows(self, rows, values, scratch)
    }
    fn restore_row(&self, row: u32, values: &[f32], clock: u64) {
        ShardedTable::restore_row(self, row, values, clock)
    }
    fn has_optimizer_state(&self) -> bool {
        ShardedTable::has_optimizer_state(self)
    }
    fn read_accum(&self, row: u32, out: &mut [f32]) -> bool {
        ShardedTable::read_accum(self, row, out)
    }
    fn restore_accum(&self, row: u32, values: &[f32]) {
        ShardedTable::restore_accum(self, row, values)
    }
    fn total_updates(&self) -> u64 {
        ShardedTable::total_updates(self)
    }
    fn heap_bytes(&self) -> usize {
        ShardedTable::heap_bytes(self)
    }
    fn lock_acquisitions(&self) -> u64 {
        ShardedTable::lock_acquisitions(self)
    }
    fn read_row_snapshot(&self, row: u32, out: &mut [f32]) -> u64 {
        ShardedTable::read_row_snapshot(self, row, out)
    }
    fn read_rows_snapshot(
        &self,
        rows: &[u32],
        out: &mut [f32],
        clocks: &mut [u64],
        _scratch: &mut BatchScratch,
    ) {
        ShardedTable::read_rows_snapshot(self, rows, out, clocks)
    }
    fn read_path_stats(&self) -> ReadPathStats {
        ShardedTable::read_path_stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_table_coerces_to_row_store() {
        let t = ShardedTable::new(16, 4, 0.1, 7);
        let store: &dyn RowStore = &t;
        assert_eq!(store.dim(), 4);
        assert_eq!(store.num_rows(), 16);
        assert_eq!(store.spilled_bytes(), 0);
        assert_eq!(store.capacity_stats(), CapacityStats::default());
        let mut out = vec![0.0; 4];
        let c = store.read_row(3, &mut out);
        assert_eq!(c, 0);
        let c2 = store.apply_grad(3, &[1.0; 4], &SparseOpt::sgd(0.1));
        assert_eq!(c2, 1);
        assert_eq!(store.total_updates(), 1);
    }
}
