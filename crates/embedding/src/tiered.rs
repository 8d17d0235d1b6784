//! The spillable storage tier: hot pages in RAM, cold pages in one
//! checksummed spill file (§7.4 capacity story past the host's memory).
//!
//! [`TieredTable`] implements the exact [`RowStore`] surface of
//! [`crate::ShardedTable`] — same batched API, same per-row FP operation
//! sequence, same stable duplicate-row ordering — so workers, the LFU
//! cache, the pipeline prefetch stage, and checkpointing are unchanged
//! clients, and every result is **bit-identical** to the in-memory store
//! (enforced by `tests/tiered_differential.rs`).
//!
//! # Layout
//!
//! Rows are grouped into fixed-size **pages** of `rows_per_page`
//! consecutive rows. A partition-aware buffer manager keeps pages resident
//! up to a configured byte budget; colder pages live in the spill file.
//! Per-row update clocks always stay in RAM (they are 8 bytes/row and
//! every staleness decision reads them), so spilling never perturbs the
//! bounded-asynchrony protocol.
//!
//! Initial values replicate [`crate::ShardedTable::new`]'s per-stripe RNG
//! exactly (stripe = `row % 256`, offset `(row / 256) * dim`), then cold
//! pages are spilled until the pool fits the budget — a fresh tiered table
//! reads back bit-for-bit what the in-memory table holds.
//!
//! # Spill file
//!
//! One preallocated file, `spill.bin`, of `num_pages × slot_bytes` bytes:
//! page `p` owns the slot at `p × slot_bytes`, sized for a full page with
//! accumulators. An eviction is one positional write of the page image; a
//! fault is one positional read of exactly the image length the page's
//! RAM-resident `has_accum` flag implies. The image:
//!
//! ```text
//! magic     4 bytes   "HGPG"
//! version   u32       2
//! page      u64
//! rows      u64       rows in this page
//! dim       u64
//! has_accum u8
//! rows × ( clock u64, dim × f32 values, [dim × f32 accum] )   // HGMP row encoding
//! checksum  u64       word-wise FNV-1a 64 over every preceding byte
//! ```
//!
//! Every load checks the header against the page it expects and the
//! trailing checksum, so a torn or misplaced image (a short write, a bit
//! flip, another page's bytes) is refused rather than served;
//! [`TieredTable::verify_page`] runs the same check for tests and tooling.
//! Stored clocks are informational only — the RAM-resident clock array
//! stays authoritative across a spill/load round-trip.
//!
//! The file is process scratch, not a durable store: nothing reads it
//! after the process exits (a resumed run loads an HGMR checkpoint), so
//! writes are never synced, and [`Drop`] removes it. Construction I/O
//! failures (spill directory, file creation, preallocation) are returned
//! as [`HetGmpError::Io`]; a positional read or write failing mid-run
//! panics.
//!
//! # Eviction
//!
//! Default policy is LRU over unpinned resident pages. When the trainer
//! installs a per-epoch page-access plan ([`TieredTable::set_epoch_plan`],
//! computed from the deterministic batch schedule), eviction switches to a
//! Belady-style farthest-next-use choice. The policy only decides *which*
//! page to drop — never what any row's bytes are — so batch ordering
//! on/off changes fault counts, not results.

use std::collections::VecDeque;
use std::fs;
use std::os::unix::fs::FileExt as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hetgmp_telemetry::{names, HetGmpError, Json, Recorder, TraceCollector};

use crate::sparse_optim::SparseOpt;
use crate::store::{CapacityStats, ReadPathStats, RowStore};
use crate::table::BatchScratch;

/// Lock-stripe count of the in-memory store; the tiered store replicates
/// its per-stripe init RNG so both stores start bit-identical.
const STRIPES: usize = 256;

const PAGE_MAGIC: &[u8; 4] = b"HGPG";
const PAGE_VERSION: u32 = 2;
/// Image header: magic, version, page, rows, dim, has_accum.
const HEADER: usize = 4 + 4 + 8 + 8 + 8 + 1;
/// Name of the spill file inside the spill directory.
const SPILL_FILE: &str = "spill.bin";

/// FNV-1a 64 folded over 8-byte little-endian words, then the byte tail.
/// Each fold step is a bijection of the state for a fixed input word, so
/// changing any one word (or tail byte) always changes the hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let words = bytes.chunks_exact(8);
    let tail = words.remainder();
    for w in words {
        h ^= u64::from_le_bytes(w.try_into().expect("8-byte word"));
        h = h.wrapping_mul(PRIME);
    }
    for &b in tail {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Writes `xs` little-endian into `out` (`out.len() == 4 * xs.len()`).
fn put_f32s(out: &mut [u8], xs: &[f32]) {
    for (o, x) in out.chunks_exact_mut(4).zip(xs) {
        o.copy_from_slice(&x.to_le_bytes());
    }
}

/// Reads little-endian `f32`s from `bytes` into `out`.
fn get_f32s(bytes: &[u8], out: &mut [f32]) {
    for (x, b) in out.iter_mut().zip(bytes.chunks_exact(4)) {
        *x = f32::from_le_bytes(b.try_into().expect("4-byte f32"));
    }
}

/// Bytes of one encoded row: clock, values, and accumulators if present.
fn row_bytes(dim: usize, has_accum: bool) -> usize {
    8 + dim * 4 * (1 + usize::from(has_accum))
}

/// Length of one page image: header, `rows` encoded rows, checksum.
fn image_len(rows: usize, dim: usize, has_accum: bool) -> usize {
    HEADER + rows * row_bytes(dim, has_accum) + 8
}

/// Configuration of the spillable tier.
#[derive(Debug, Clone)]
pub struct TieredConfig {
    /// RAM budget for resident pages, bytes. The pool may exceed it
    /// transiently while a faulted page is pinned, never at rest (as long
    /// as at least one page fits).
    pub budget_bytes: usize,
    /// Directory for the spill file. `None` creates (and removes on drop)
    /// a unique directory under the system temp dir.
    pub dir: Option<PathBuf>,
    /// Rows per page; `0` sizes pages to ≈32 KiB of values, capped at a
    /// quarter of `budget_bytes` so small budgets still get several
    /// evictable pages.
    pub rows_per_page: usize,
}

impl Default for TieredConfig {
    fn default() -> Self {
        Self {
            budget_bytes: 64 << 20,
            dir: None,
            rows_per_page: 0,
        }
    }
}

struct PageState {
    /// Resident values, `rows_in_page * dim`; `None` when spilled.
    data: Option<Vec<f32>>,
    /// Resident Adagrad accumulators (same layout); `Some` iff resident
    /// and `has_accum`.
    accum: Option<Vec<f32>>,
    /// The page carries accumulator state (resident or spilled).
    has_accum: bool,
    /// Modified since the last spill (a page never spilled is dirty).
    dirty: bool,
    /// Pinned by an in-flight batched operation; never evicted.
    pinned: bool,
    /// LRU tick of the last touch.
    last_use: u64,
    /// Upcoming plan positions at which this page will be read
    /// (buffer-aware ordering mode only).
    next_uses: VecDeque<u64>,
}

struct TierState {
    pages: Vec<PageState>,
    resident_bytes: u64,
    spilled_bytes: u64,
    lru_tick: u64,
    /// Position in the installed epoch plan (one tick per page-group read).
    touch_seq: u64,
    plan_active: bool,
    loads: u64,
    evictions: u64,
    writebacks: u64,
    /// Reused image buffer for spill writes and fault loads.
    io_buf: Vec<u8>,
    recorder: Option<Arc<dyn Recorder>>,
    tracer: Option<Arc<TraceCollector>>,
}

/// The spillable primary store. See the module docs for layout, spill
/// format, and eviction policy. All operations are `&self` and safe for
/// concurrent worker threads (one internal lock serialises tier state;
/// the pipelined trainer's prefetch thread shares it safely).
pub struct TieredTable {
    dim: usize,
    num_rows: usize,
    rows_per_page: usize,
    num_pages: usize,
    budget_bytes: u64,
    dir: PathBuf,
    own_dir: bool,
    /// The spill file: one `slot_bytes` slot per page.
    file: fs::File,
    slot_bytes: u64,
    clocks: Vec<AtomicU64>,
    lock_acquisitions: AtomicU64,
    /// Snapshot-path rows served from already-resident pages (no fault).
    snapshot_rows: AtomicU64,
    /// Snapshot-path rows that faulted and went through the buffer
    /// manager's load path instead.
    fallback_rows: AtomicU64,
    state: Mutex<TierState>,
}

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

impl TieredTable {
    /// Creates a tiered table whose initial contents are bit-identical to
    /// `ShardedTable::new(num_rows, dim, init_scale, seed)`, then spills
    /// cold pages until the resident pool fits `config.budget_bytes`.
    /// (Construction materialises the table once to replicate the
    /// in-memory init exactly; the budget bounds the pool from then on.)
    ///
    /// # Errors
    /// [`HetGmpError::Io`] if the spill directory or the spill file cannot
    /// be created or preallocated.
    ///
    /// # Panics
    /// Panics if `dim == 0`.
    pub fn new(
        num_rows: usize,
        dim: usize,
        init_scale: f32,
        seed: u64,
        config: TieredConfig,
    ) -> Result<Self, HetGmpError> {
        assert!(dim > 0, "dim must be positive");
        let rows_per_page = if config.rows_per_page > 0 {
            config.rows_per_page
        } else {
            // Auto-size pages to ≈32 KiB of values, but never let one page
            // swallow more than a quarter of the RAM budget: a page the
            // size of the budget can never be evicted once pinned, and a
            // one-page table would degenerate to "always resident".
            let budget_cap = (config.budget_bytes / 4 / (dim * 4)).max(1);
            (8192 / dim).max(1).min(budget_cap)
        };
        let num_pages = num_rows.div_ceil(rows_per_page);
        let slot_bytes = image_len(rows_per_page, dim, true) as u64;
        let (dir, own_dir) = match config.dir {
            Some(d) => (d, false),
            None => {
                let unique = format!(
                    "hetgmp-tier-{}-{}",
                    std::process::id(),
                    DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
                );
                (std::env::temp_dir().join(unique), true)
            }
        };
        fs::create_dir_all(&dir).map_err(|e| HetGmpError::io(&dir, e))?;
        let path = dir.join(SPILL_FILE);
        let file = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .and_then(|f| f.set_len(num_pages as u64 * slot_bytes).map(|()| f))
            .map_err(|e| {
                if own_dir {
                    let _ = fs::remove_dir_all(&dir);
                }
                HetGmpError::io(&path, e)
            })?;

        // Replicate the in-memory store's per-stripe init RNG, then
        // scatter stripes into contiguous row pages.
        let rows_per_stripe = num_rows.div_ceil(STRIPES);
        let stripes: Vec<Vec<f32>> = (0..STRIPES)
            .map(|s| {
                let mut rng =
                    StdRng::seed_from_u64(seed ^ (s as u64).wrapping_mul(0x9E3779B97F4A7C15));
                (0..rows_per_stripe * dim)
                    .map(|_| rng.gen_range(-init_scale..=init_scale))
                    .collect()
            })
            .collect();
        let mut pages = Vec::with_capacity(num_pages);
        let mut resident_bytes = 0u64;
        for p in 0..num_pages {
            let rows_here = rows_per_page.min(num_rows - p * rows_per_page);
            let mut data = vec![0.0f32; rows_here * dim];
            for local in 0..rows_here {
                let row = p * rows_per_page + local;
                let stripe = row % STRIPES;
                let off = (row / STRIPES) * dim;
                data[local * dim..(local + 1) * dim]
                    .copy_from_slice(&stripes[stripe][off..off + dim]);
            }
            resident_bytes += (data.len() * 4) as u64;
            pages.push(PageState {
                data: Some(data),
                accum: None,
                has_accum: false,
                dirty: true,
                pinned: false,
                // Evict from the tail first at construction: low pages
                // stay resident, deterministically.
                last_use: (num_pages - p) as u64,
                next_uses: VecDeque::new(),
            });
        }
        let table = Self {
            dim,
            num_rows,
            rows_per_page,
            num_pages,
            budget_bytes: config.budget_bytes as u64,
            dir,
            own_dir,
            file,
            slot_bytes,
            clocks: (0..num_rows).map(|_| AtomicU64::new(0)).collect(),
            lock_acquisitions: AtomicU64::new(0),
            snapshot_rows: AtomicU64::new(0),
            fallback_rows: AtomicU64::new(0),
            state: Mutex::new(TierState {
                pages,
                resident_bytes,
                spilled_bytes: 0,
                lru_tick: num_pages as u64,
                touch_seq: 0,
                plan_active: false,
                loads: 0,
                evictions: 0,
                writebacks: 0,
                io_buf: Vec::new(),
                recorder: None,
                tracer: None,
            }),
        };
        {
            let mut st = table.state.lock();
            table.enforce_budget(&mut st);
            // The construction spill is priming, not training-time fault
            // pressure: start every counter at zero so `capacity.fault.*`
            // measures the run itself.
            st.loads = 0;
            st.evictions = 0;
            st.writebacks = 0;
        }
        Ok(table)
    }

    /// Rows per page (constant for the table's lifetime).
    pub fn rows_per_page(&self) -> usize {
        self.rows_per_page
    }

    /// Number of pages.
    pub fn num_pages(&self) -> usize {
        self.num_pages
    }

    /// The page holding `row`.
    #[inline]
    pub fn page_of_row(&self, row: u32) -> u32 {
        (row as usize / self.rows_per_page) as u32
    }

    /// Attaches a telemetry recorder for `capacity.fault.*` counters.
    pub fn attach_recorder(&self, recorder: Arc<dyn Recorder>) {
        self.state.lock().recorder = Some(recorder);
    }

    /// Attaches a trace collector; every fault emits a
    /// `trace.capacity.fault` span on the driver timeline.
    pub fn attach_tracer(&self, tracer: Arc<TraceCollector>) {
        self.state.lock().tracer = Some(tracer);
    }

    /// Installs the buffer-aware epoch plan: the sequence of pages the
    /// trainer's batch schedule will read this epoch, in order. Eviction
    /// switches from LRU to Belady-style farthest-next-use against this
    /// plan. Installing a plan never changes any row's bytes — only which
    /// pages fault — so results stay bit-identical to the unplanned run.
    pub fn set_epoch_plan(&self, page_seq: &[u32]) {
        let mut st = self.state.lock();
        for p in st.pages.iter_mut() {
            p.next_uses.clear();
        }
        for (pos, &p) in page_seq.iter().enumerate() {
            st.pages[p as usize].next_uses.push_back(pos as u64);
        }
        st.touch_seq = 0;
        st.plan_active = true;
    }

    /// Removes any installed plan; eviction falls back to LRU.
    pub fn clear_epoch_plan(&self) {
        let mut st = self.state.lock();
        for p in st.pages.iter_mut() {
            p.next_uses.clear();
        }
        st.plan_active = false;
    }

    /// Validates the image in a spilled `page`'s slot with the check every
    /// fault-in load performs: checksum, magic, and a header matching this
    /// page's version, id, row count, dim and accumulator flag. A torn,
    /// corrupt or misplaced image fails here and is never loaded.
    pub fn verify_page(&self, page: usize) -> Result<(), String> {
        self.read_page(&self.state.lock(), page, &mut Vec::new()).map(|_| ())
    }

    #[inline]
    fn rows_in_page(&self, page: usize) -> usize {
        self.rows_per_page.min(self.num_rows - page * self.rows_per_page)
    }

    #[inline]
    fn count_lock(&self) {
        self.lock_acquisitions.fetch_add(1, Ordering::Relaxed);
    }

    fn page_bytes(&self, st: &TierState, page: usize) -> u64 {
        let values = (self.rows_in_page(page) * self.dim * 4) as u64;
        if st.pages[page].has_accum {
            values * 2
        } else {
            values
        }
    }

    /// Reads `page`'s image from its slot into `buf` (exactly the length
    /// the page's `has_accum` implies), validates it against the expected
    /// header, and decodes it. Returns `(values, accum)`.
    fn read_page(
        &self,
        st: &TierState,
        page: usize,
        buf: &mut Vec<u8>,
    ) -> Result<(Vec<f32>, Option<Vec<f32>>), String> {
        let (rows, dim, has_accum) = (self.rows_in_page(page), self.dim, st.pages[page].has_accum);
        buf.clear();
        buf.resize(image_len(rows, dim, has_accum), 0);
        self.file
            .read_exact_at(buf, page as u64 * self.slot_bytes)
            .map_err(|e| format!("read slot {page}: {e}"))?;
        let (body, footer) = buf.split_at(buf.len() - 8);
        let stored = u64::from_le_bytes(footer.try_into().expect("8-byte footer"));
        let computed = fnv1a(body);
        if stored != computed {
            return Err(format!(
                "checksum mismatch (stored {stored:#018x}, computed {computed:#018x}): \
                 torn or corrupt page image"
            ));
        }
        if &body[0..4] != PAGE_MAGIC {
            return Err(format!("magic {:?} != {PAGE_MAGIC:?}", &body[0..4]));
        }
        let word = |at: usize| u64::from_le_bytes(body[at..at + 8].try_into().expect("u64"));
        let version = u32::from_le_bytes(body[4..8].try_into().expect("u32"));
        let header = [
            ("page version", u64::from(version), u64::from(PAGE_VERSION)),
            ("page id", word(8), page as u64),
            ("row count", word(16), rows as u64),
            ("dim", word(24), dim as u64),
            ("accumulator flag", u64::from(body[32]), u64::from(has_accum)),
        ];
        for (what, got, want) in header {
            if got != want {
                return Err(format!("{what} {got} != expected {want}"));
            }
        }
        let mut values = vec![0.0f32; rows * dim];
        let mut accum = if has_accum { vec![0.0f32; rows * dim] } else { Vec::new() };
        // The stored clock (first 8 bytes of a row) is informational; RAM
        // clocks are authoritative.
        for (local, rec) in body[HEADER..].chunks_exact(row_bytes(dim, has_accum)).enumerate() {
            let (vals, acc) = rec[8..].split_at(dim * 4);
            get_f32s(vals, &mut values[local * dim..(local + 1) * dim]);
            if has_accum {
                get_f32s(acc, &mut accum[local * dim..(local + 1) * dim]);
            }
        }
        Ok((values, has_accum.then_some(accum)))
    }

    /// Serialises a page image into `buf` (resized to the image length).
    fn encode_page(&self, page: usize, data: &[f32], accum: Option<&[f32]>, buf: &mut Vec<u8>) {
        let (rows, dim) = (self.rows_in_page(page), self.dim);
        let len = image_len(rows, dim, accum.is_some());
        buf.clear();
        buf.resize(len, 0);
        buf[0..4].copy_from_slice(PAGE_MAGIC);
        buf[4..8].copy_from_slice(&PAGE_VERSION.to_le_bytes());
        buf[8..16].copy_from_slice(&(page as u64).to_le_bytes());
        buf[16..24].copy_from_slice(&(rows as u64).to_le_bytes());
        buf[24..32].copy_from_slice(&(dim as u64).to_le_bytes());
        buf[32] = u8::from(accum.is_some());
        let per_row = row_bytes(dim, accum.is_some());
        for (local, rec) in buf[HEADER..len - 8].chunks_exact_mut(per_row).enumerate() {
            let row = page * self.rows_per_page + local;
            let (clock, rest) = rec.split_at_mut(8);
            clock.copy_from_slice(&self.clocks[row].load(Ordering::Relaxed).to_le_bytes());
            let (vals, acc) = rest.split_at_mut(dim * 4);
            put_f32s(vals, &data[local * dim..(local + 1) * dim]);
            if let Some(a) = accum {
                put_f32s(acc, &a[local * dim..(local + 1) * dim]);
            }
        }
        let checksum = fnv1a(&buf[..len - 8]);
        buf[len - 8..].copy_from_slice(&checksum.to_le_bytes());
    }

    fn emit_fault(&self, st: &TierState, page: usize, kind: &str, counter: &str) {
        if let Some(r) = &st.recorder {
            r.counter_add(counter, 1);
        }
        if let Some(t) = &st.tracer {
            let at = t.worker_time_us(0) / 1e6;
            t.driver_span(
                names::TRACE_CAPACITY_FAULT,
                at,
                0.0,
                &[
                    ("page", Json::U64(page as u64)),
                    ("kind", Json::from(kind)),
                ],
            );
        }
    }

    /// Faults `page` in if spilled, then evicts down to the budget.
    /// Callers pin the page first so the budget pass never drops it.
    fn ensure_resident(&self, st: &mut TierState, page: usize) {
        if st.pages[page].data.is_none() {
            let mut buf = std::mem::take(&mut st.io_buf);
            let (values, accum) = self
                .read_page(st, page, &mut buf)
                .unwrap_or_else(|e| panic!("tiered: page {page} rejected on load: {e}"));
            st.io_buf = buf;
            let pb = self.page_bytes(st, page);
            let pg = &mut st.pages[page];
            pg.data = Some(values);
            pg.accum = accum;
            pg.dirty = false;
            st.resident_bytes += pb;
            st.spilled_bytes -= pb;
            st.loads += 1;
            self.emit_fault(st, page, "load", names::CAPACITY_FAULT_LOADS);
        }
        self.enforce_budget(st);
    }

    /// Evicts unpinned resident pages until the pool fits the budget.
    /// Victim choice: farthest next use against the installed plan
    /// (pages the plan never reads again go first), else LRU.
    fn enforce_budget(&self, st: &mut TierState) {
        while st.resident_bytes > self.budget_bytes {
            let mut victim: Option<(usize, (u64, u64))> = None;
            for (i, p) in st.pages.iter().enumerate() {
                if p.data.is_none() || p.pinned {
                    continue;
                }
                // Sort key: farther next use wins; among ties, older
                // last_use wins. Without a plan every next_use is MAX, so
                // this degrades to plain LRU.
                let next = if st.plan_active {
                    p.next_uses.front().copied().unwrap_or(u64::MAX)
                } else {
                    u64::MAX
                };
                let key = (next, u64::MAX - p.last_use);
                match victim {
                    Some((_, best)) if key <= best => {}
                    _ => victim = Some((i, key)),
                }
            }
            let Some((v, _)) = victim else { break };
            self.evict(st, v);
        }
    }

    fn evict(&self, st: &mut TierState, page: usize) {
        let pb = self.page_bytes(st, page);
        let data = st.pages[page].data.take().expect("evicting resident page");
        let accum = st.pages[page].accum.take();
        if st.pages[page].dirty {
            let mut buf = std::mem::take(&mut st.io_buf);
            self.encode_page(page, &data, accum.as_deref(), &mut buf);
            self.file
                .write_all_at(&buf, page as u64 * self.slot_bytes)
                .unwrap_or_else(|e| panic!("tiered: write page {page} to spill file: {e}"));
            st.io_buf = buf;
            st.writebacks += 1;
            self.emit_fault(st, page, "writeback", names::CAPACITY_FAULT_WRITEBACKS);
        }
        st.pages[page].dirty = false;
        st.resident_bytes -= pb;
        st.spilled_bytes += pb;
        st.evictions += 1;
        self.emit_fault(st, page, "evict", names::CAPACITY_FAULT_EVICTIONS);
    }

    /// Marks a touch for LRU; read touches additionally consume the plan.
    fn touch(&self, st: &mut TierState, page: usize, consumes_plan: bool) {
        st.lru_tick += 1;
        st.pages[page].last_use = st.lru_tick;
        if consumes_plan && st.plan_active {
            let pos = st.touch_seq;
            st.touch_seq += 1;
            while let Some(&front) = st.pages[page].next_uses.front() {
                if front <= pos {
                    st.pages[page].next_uses.pop_front();
                } else {
                    break;
                }
            }
        }
    }

    fn assert_row(&self, row: u32) {
        assert!((row as usize) < self.num_rows, "row {row} out of range");
    }

    /// Runs `f` with `page` pinned resident. The single entry point for
    /// every data access, so pin/unpin and budget enforcement cannot be
    /// bypassed.
    fn with_page<R>(
        &self,
        st: &mut TierState,
        page: usize,
        consumes_plan: bool,
        f: impl FnOnce(&mut TierState) -> R,
    ) -> R {
        st.pages[page].pinned = true;
        self.ensure_resident(st, page);
        self.touch(st, page, consumes_plan);
        let r = f(&mut *st);
        st.pages[page].pinned = false;
        r
    }

    /// Runs `f(state, page, slot)` on `row`'s page, pinned resident, where
    /// `slot` is the row's value offset in the page.
    fn with_row<R>(&self, row: u32, f: impl FnOnce(&mut TierState, usize, usize) -> R) -> R {
        self.assert_row(row);
        let (page, slot) = self.locate(row);
        let mut st = self.state.lock();
        self.with_page(&mut st, page, false, |st| f(st, page, slot))
    }

    /// The batched access loop: groups `rows` by page and runs
    /// `f(state, page, was_resident, group)` once per page with the page
    /// pinned resident, where `group` lists the batch positions of that
    /// page's rows in submission order (so duplicate rows keep the caller's
    /// order). One lock acquisition is counted per group.
    fn for_each_page(
        &self,
        rows: &[u32],
        scratch: &mut BatchScratch,
        consumes_plan: bool,
        mut f: impl FnMut(&mut TierState, usize, bool, &[u32]),
    ) {
        for &row in rows {
            self.assert_row(row);
        }
        scratch.group_by(rows, self.num_pages, |row| row as usize / self.rows_per_page);
        let page_at = |k: u32| rows[k as usize] as usize / self.rows_per_page;
        let mut st = self.state.lock();
        let perm = scratch.perm();
        let mut i = 0;
        while i < perm.len() {
            let page = page_at(perm[i]);
            let end = i + perm[i..].iter().take_while(|&&k| page_at(k) == page).count();
            self.count_lock();
            let resident = st.pages[page].data.is_some();
            self.with_page(&mut st, page, consumes_plan, |st| {
                f(st, page, resident, &perm[i..end]);
            });
            i = end;
        }
    }

    /// Copies `row` into `out`; returns its pre-read clock and whether its
    /// page was already resident (no fault).
    fn read_one(&self, row: u32, out: &mut [f32]) -> (u64, bool) {
        assert_eq!(out.len(), self.dim, "output buffer length != dim");
        self.assert_row(row);
        let clock = self.clock(row);
        let (page, slot) = self.locate(row);
        self.count_lock();
        let mut st = self.state.lock();
        let resident = st.pages[page].data.is_some();
        self.with_page(&mut st, page, false, |st| {
            let data = st.pages[page].data.as_ref().expect("page resident");
            out.copy_from_slice(&data[slot..slot + self.dim]);
        });
        (clock, resident)
    }

    /// Copies the rows at batch positions `group` (all on `page`, which is
    /// resident) into `out`, with their clocks.
    fn copy_group(
        &self,
        st: &TierState,
        page: usize,
        group: &[u32],
        rows: &[u32],
        out: &mut [f32],
        clocks: &mut [u64],
    ) {
        let data = st.pages[page].data.as_ref().expect("page resident");
        let dim = self.dim;
        for &k in group {
            let (k, row) = (k as usize, rows[k as usize]);
            clocks[k] = self.clocks[row as usize].load(Ordering::Acquire);
            let slot = (row as usize % self.rows_per_page) * dim;
            out[k * dim..(k + 1) * dim].copy_from_slice(&data[slot..slot + dim]);
        }
    }

    /// Allocates `page`'s (zeroed) accumulators if it has none yet. The
    /// first allocation doubles the page's footprint, which is charged to
    /// the pool.
    fn ensure_accum(st: &mut TierState, page: usize) {
        let pg = &mut st.pages[page];
        if pg.accum.is_none() {
            let len = pg.data.as_ref().expect("page resident").len();
            pg.accum = Some(vec![0.0; len]);
            if !pg.has_accum {
                pg.has_accum = true;
                st.resident_bytes += (len * 4) as u64;
            }
        }
    }

    /// The single-row update body — the same FP operation sequence as
    /// `ShardedTable::apply_in_shard`, applied to the page buffers, which
    /// is what keeps the two stores bit-identical.
    fn apply_to_page(st: &mut TierState, page: usize, slot: usize, grad: &[f32], opt: &SparseOpt) {
        let dim = grad.len();
        if let SparseOpt::Adagrad { .. } = opt {
            Self::ensure_accum(st, page);
        }
        let pg = &mut st.pages[page];
        let data = &mut pg.data.as_mut().expect("page resident")[slot..slot + dim];
        match *opt {
            SparseOpt::Sgd { lr } => {
                for (p, &g) in data.iter_mut().zip(grad) {
                    *p -= lr * g;
                }
            }
            SparseOpt::Adagrad { lr, eps } => {
                let accum = pg.accum.as_mut().expect("accumulator allocated above");
                for ((p, &g), a) in data.iter_mut().zip(grad).zip(&mut accum[slot..slot + dim]) {
                    *a += g * g;
                    *p -= lr * g / (a.sqrt() + eps);
                }
            }
        }
        pg.dirty = true;
    }

    #[inline]
    fn locate(&self, row: u32) -> (usize, usize) {
        let page = row as usize / self.rows_per_page;
        let slot = (row as usize % self.rows_per_page) * self.dim;
        (page, slot)
    }
}

impl Drop for TieredTable {
    fn drop(&mut self) {
        // Process scratch: nothing reads the spill file after this table.
        if self.own_dir {
            let _ = fs::remove_dir_all(&self.dir);
        } else {
            let _ = fs::remove_file(self.dir.join(SPILL_FILE));
        }
    }
}

impl RowStore for TieredTable {
    fn dim(&self) -> usize {
        self.dim
    }

    fn num_rows(&self) -> usize {
        self.num_rows
    }

    fn clock(&self, row: u32) -> u64 {
        self.clocks[row as usize].load(Ordering::Acquire)
    }

    fn read_row(&self, row: u32, out: &mut [f32]) -> u64 {
        self.read_one(row, out).0
    }

    fn read_rows(&self, rows: &[u32], out: &mut [f32], clocks: &mut [u64], scratch: &mut BatchScratch) {
        assert_eq!(out.len(), rows.len() * self.dim, "output buffer length != rows * dim");
        assert_eq!(clocks.len(), rows.len(), "clocks length != rows");
        self.for_each_page(rows, scratch, true, |st, page, _, group| {
            self.copy_group(st, page, group, rows, out, clocks);
        });
    }

    fn apply_grad(&self, row: u32, grad: &[f32], opt: &SparseOpt) -> u64 {
        assert_eq!(grad.len(), self.dim, "gradient length != dim");
        self.count_lock();
        self.with_row(row, |st, page, slot| Self::apply_to_page(st, page, slot, grad, opt));
        self.clocks[row as usize].fetch_add(1, Ordering::AcqRel) + 1
    }

    fn apply_grads(
        &self,
        rows: &[u32],
        grads: &[f32],
        opt: &SparseOpt,
        clocks: &mut [u64],
        scratch: &mut BatchScratch,
    ) {
        let dim = self.dim;
        assert_eq!(grads.len(), rows.len() * dim, "gradients length != rows * dim");
        assert_eq!(clocks.len(), rows.len(), "clocks length != rows");
        self.for_each_page(rows, scratch, false, |st, page, _, group| {
            for &k in group {
                let (k, row) = (k as usize, rows[k as usize]);
                let slot = (row as usize % self.rows_per_page) * dim;
                Self::apply_to_page(st, page, slot, &grads[k * dim..(k + 1) * dim], opt);
                clocks[k] = self.clocks[row as usize].fetch_add(1, Ordering::AcqRel) + 1;
            }
        });
    }

    fn write_row(&self, row: u32, values: &[f32]) {
        assert_eq!(values.len(), self.dim, "values length != dim");
        self.count_lock();
        self.with_row(row, |st, page, slot| {
            let pg = &mut st.pages[page];
            pg.data.as_mut().expect("page resident")[slot..slot + self.dim].copy_from_slice(values);
            pg.dirty = true;
        });
    }

    fn write_rows(&self, rows: &[u32], values: &[f32], scratch: &mut BatchScratch) {
        let dim = self.dim;
        assert_eq!(values.len(), rows.len() * dim, "values length != rows * dim");
        self.for_each_page(rows, scratch, false, |st, page, _, group| {
            let pg = &mut st.pages[page];
            let data = pg.data.as_mut().expect("page resident");
            for &k in group {
                let k = k as usize;
                let slot = (rows[k] as usize % self.rows_per_page) * dim;
                data[slot..slot + dim].copy_from_slice(&values[k * dim..(k + 1) * dim]);
            }
            pg.dirty = true;
        });
    }

    fn restore_row(&self, row: u32, values: &[f32], clock: u64) {
        self.write_row(row, values);
        self.clocks[row as usize].store(clock, Ordering::Release);
    }

    fn has_optimizer_state(&self) -> bool {
        self.state.lock().pages.iter().any(|p| p.has_accum)
    }

    fn read_accum(&self, row: u32, out: &mut [f32]) -> bool {
        assert_eq!(out.len(), self.dim, "output buffer length != dim");
        self.with_row(row, |st, page, slot| match &st.pages[page].accum {
            Some(a) => {
                out.copy_from_slice(&a[slot..slot + self.dim]);
                true
            }
            None => {
                out.fill(0.0);
                false
            }
        })
    }

    fn restore_accum(&self, row: u32, values: &[f32]) {
        assert_eq!(values.len(), self.dim, "values length != dim");
        self.with_row(row, |st, page, slot| {
            Self::ensure_accum(st, page);
            let pg = &mut st.pages[page];
            let accum = pg.accum.as_mut().expect("accumulator allocated above");
            accum[slot..slot + self.dim].copy_from_slice(values);
            pg.dirty = true;
        });
    }

    fn total_updates(&self) -> u64 {
        self.clocks.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    fn heap_bytes(&self) -> usize {
        // Resident pages only: spilled partitions are *not* RAM and are
        // reported separately via `spilled_bytes`.
        self.state.lock().resident_bytes as usize + self.clocks.len() * 8
    }

    fn lock_acquisitions(&self) -> u64 {
        self.lock_acquisitions.load(Ordering::Relaxed)
    }

    fn spilled_bytes(&self) -> u64 {
        self.state.lock().spilled_bytes
    }

    fn capacity_stats(&self) -> CapacityStats {
        let st = self.state.lock();
        CapacityStats {
            fault_loads: st.loads,
            evictions: st.evictions,
            writebacks: st.writebacks,
            resident_bytes: st.resident_bytes,
            spilled_bytes: st.spilled_bytes,
            budget_bytes: self.budget_bytes,
        }
    }

    // A spillable store cannot copy rows without the tier lock — eviction
    // frees page buffers, and there is no epoch reclamation to keep a
    // lock-free reader's view alive. The snapshot capability therefore
    // keeps the locked page-grouped path (every group still counts a lock
    // acquisition, so `hotpath.lock_acquisitions` stays meaningful under
    // `--storage tiered`) and classifies rows by what the buffer manager
    // had to do: already-resident pages serve "snapshot" rows, faulting
    // pages are the fallback. Bytes are identical to `read_rows` either
    // way.

    fn read_row_snapshot(&self, row: u32, out: &mut [f32]) -> u64 {
        let (clock, resident) = self.read_one(row, out);
        let counter = if resident { &self.snapshot_rows } else { &self.fallback_rows };
        counter.fetch_add(1, Ordering::Relaxed);
        clock
    }

    fn read_rows_snapshot(
        &self,
        rows: &[u32],
        out: &mut [f32],
        clocks: &mut [u64],
        scratch: &mut BatchScratch,
    ) {
        assert_eq!(out.len(), rows.len() * self.dim, "output buffer length != rows * dim");
        assert_eq!(clocks.len(), rows.len(), "clocks length != rows");
        let (mut snapshots, mut fallbacks) = (0u64, 0u64);
        self.for_each_page(rows, scratch, true, |st, page, resident, group| {
            self.copy_group(st, page, group, rows, out, clocks);
            *if resident { &mut snapshots } else { &mut fallbacks } += group.len() as u64;
        });
        if snapshots > 0 {
            self.snapshot_rows.fetch_add(snapshots, Ordering::Relaxed);
        }
        if fallbacks > 0 {
            self.fallback_rows.fetch_add(fallbacks, Ordering::Relaxed);
        }
    }

    fn read_path_stats(&self) -> ReadPathStats {
        ReadPathStats {
            snapshot_rows: self.snapshot_rows.load(Ordering::Relaxed),
            // Page copies happen under the tier lock; there is nothing to
            // tear and so nothing to retry.
            retries: 0,
            fallback_rows: self.fallback_rows.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::ShardedTable;

    fn tiny_cfg(budget_bytes: usize, rows_per_page: usize) -> TieredConfig {
        TieredConfig {
            budget_bytes,
            dir: None,
            rows_per_page,
        }
    }

    /// A table with a private spill dir, `budget_bytes` of RAM and
    /// `rows_per_page`-row pages.
    fn tiny_table(
        num_rows: usize,
        dim: usize,
        init_scale: f32,
        seed: u64,
        budget_bytes: usize,
        rows_per_page: usize,
    ) -> TieredTable {
        TieredTable::new(num_rows, dim, init_scale, seed, tiny_cfg(budget_bytes, rows_per_page))
            .expect("spill file")
    }

    fn read_all_bits(store: &dyn RowStore) -> Vec<u32> {
        let mut out = Vec::new();
        let mut buf = vec![0.0f32; store.dim()];
        for r in 0..store.num_rows() as u32 {
            store.read_row(r, &mut buf);
            out.extend(buf.iter().map(|x| x.to_bits()));
        }
        out
    }

    #[test]
    fn init_bit_identical_to_sharded_table() {
        let mem = ShardedTable::new(300, 6, 0.05, 42);
        // 4 rows/page, budget of 2 pages => heavy spilling from the start.
        let tiered = tiny_table(300, 6, 0.05, 42, 2 * 4 * 6 * 4, 4);
        assert_eq!(read_all_bits(&mem), read_all_bits(&tiered));
        assert!(tiered.spilled_bytes() > 0, "budget should force spilling");
    }

    #[test]
    fn eviction_and_reload_preserve_dirty_updates() {
        let budget = 2 * 4 * 4 * 4; // two 4-row dim-4 pages
        let t = tiny_table(64, 4, 0.0, 1, budget, 4);
        let opt = SparseOpt::sgd(0.5);
        // Touch every row so every page cycles through eviction at least
        // once with dirty contents.
        for r in 0..64u32 {
            t.apply_grad(r, &[1.0, 2.0, 3.0, 4.0], &opt);
        }
        let mut buf = vec![0.0f32; 4];
        for r in 0..64u32 {
            assert_eq!(t.read_row(r, &mut buf), 1);
            assert_eq!(buf, vec![-0.5, -1.0, -1.5, -2.0], "row {r}");
        }
        let stats = t.capacity_stats();
        assert!(stats.fault_loads > 0, "expected page faults: {stats:?}");
        assert!(stats.writebacks > 0, "expected dirty write-backs: {stats:?}");
        assert!(
            stats.resident_bytes <= budget as u64,
            "resident pool over budget at rest: {stats:?}"
        );
    }

    #[test]
    fn batched_ops_bit_identical_to_sharded_table_under_eviction() {
        let rows: Vec<u32> = vec![3, 61, 3, 17, 44, 3, 60, 9, 9];
        let dim = 3;
        let grads: Vec<f32> = (0..rows.len() * dim).map(|i| i as f32 * 0.21 - 1.3).collect();
        for opt in [SparseOpt::sgd(0.07), SparseOpt::adagrad(0.5)] {
            let mem = ShardedTable::new(64, dim, 0.1, 9);
            let tiered = tiny_table(64, dim, 0.1, 9, dim * 4 * 4, 2);
            let mut s1 = BatchScratch::default();
            let mut s2 = BatchScratch::default();
            let mut c1 = vec![0u64; rows.len()];
            let mut c2 = vec![0u64; rows.len()];
            let mut o1 = vec![0.0f32; rows.len() * dim];
            let mut o2 = vec![0.0f32; rows.len() * dim];
            mem.read_rows(&rows, &mut o1, &mut c1, &mut s1);
            tiered.read_rows(&rows, &mut o2, &mut c2, &mut s2);
            assert_eq!(o1.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                       o2.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
            assert_eq!(c1, c2);
            mem.apply_grads(&rows, &grads, &opt, &mut c1, &mut s1);
            tiered.apply_grads(&rows, &grads, &opt, &mut c2, &mut s2);
            assert_eq!(c1, c2, "batch clocks under {opt:?}");
            assert_eq!(read_all_bits(&mem), read_all_bits(&tiered), "values under {opt:?}");
            let mut a1 = vec![0.0f32; dim];
            let mut a2 = vec![0.0f32; dim];
            for r in 0..64u32 {
                mem.read_accum(r, &mut a1);
                tiered.read_accum(r, &mut a2);
                assert_eq!(
                    a1.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    a2.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "row {r} accum under {opt:?}"
                );
                assert_eq!(RowStore::clock(&mem, r), tiered.clock(r));
            }
        }
    }

    #[test]
    fn checkpoint_spanning_both_tiers_matches_in_memory_image() {
        // A checkpoint captured while some pages are spilled must be
        // byte-identical to one captured from the fully resident store.
        let mem = ShardedTable::new(96, 4, 0.1, 5);
        let tiered = tiny_table(96, 4, 0.1, 5, 3 * 4 * 4 * 4, 4);
        let opt = SparseOpt::adagrad(0.3);
        for r in (0..96u32).step_by(7) {
            mem.apply_grad(r, &[0.5, -0.5, 1.0, 0.0], &opt);
            tiered.apply_grad(r, &[0.5, -0.5, 1.0, 0.0], &opt);
        }
        let mut img_mem = Vec::new();
        let mut img_tiered = Vec::new();
        crate::checkpoint::save_table(&mem, &mut img_mem).unwrap();
        crate::checkpoint::save_table(&tiered, &mut img_tiered).unwrap();
        assert_eq!(img_mem, img_tiered, "checkpoint images diverge");
    }

    #[test]
    fn torn_spill_file_detected_and_rejected() {
        let dir = std::env::temp_dir().join(format!(
            "hetgmp-torn-{}-{}",
            std::process::id(),
            DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let cfg = TieredConfig {
            budget_bytes: 4 * 4 * 4, // one 4-row dim-4 page
            dir: Some(dir.clone()),
            rows_per_page: 4,
        };
        let t = TieredTable::new(16, 4, 0.1, 3, cfg).expect("spill file");
        let spill = dir.join(SPILL_FILE);
        assert_eq!(fs::metadata(&spill).unwrap().len(), 4 * t.slot_bytes);
        // Pages 1..4 are spilled at construction; their slots verify clean.
        for page in 1..4 {
            t.verify_page(page).expect("intact image verifies");
        }
        let image_len = image_len(4, 4, false);
        let slot = |page: u64| page * t.slot_bytes;
        let mut intact = vec![0u8; image_len];
        t.file.read_exact_at(&mut intact, slot(3)).unwrap();

        // A torn write leaves the tail of the image unwritten: zeroing its
        // last bytes must flip the checksum.
        t.file.write_all_at(&[0u8; 5], slot(3) + image_len as u64 - 5).unwrap();
        let err = t.verify_page(3).unwrap_err();
        assert!(err.contains("checksum"), "{err}");

        // Another page's image in this slot is rejected on the page id,
        // even though its own checksum is intact.
        let mut other = vec![0u8; image_len];
        t.file.read_exact_at(&mut other, slot(2)).unwrap();
        t.file.write_all_at(&other, slot(3)).unwrap();
        let err = t.verify_page(3).unwrap_err();
        assert!(err.contains("page id 2 != expected 3"), "{err}");

        // A corrupted byte mid-payload is equally rejected...
        let mut flipped = intact.clone();
        flipped[image_len / 2] ^= 0xFF;
        t.file.write_all_at(&flipped, slot(3)).unwrap();
        let err = t.verify_page(3).unwrap_err();
        assert!(err.contains("checksum"), "{err}");

        // ...and the fault path refuses to load it rather than serving
        // corrupt rows.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut buf = vec![0.0f32; 4];
            t.read_row(3 * 4, &mut buf); // first row of page 3
        }));
        assert!(result.is_err(), "corrupt page load must not succeed");

        // The spill file is process scratch: dropping the table removes
        // it and leaves the caller's directory behind, empty.
        drop(t);
        assert!(!spill.exists(), "spill file outlived its table");
        fs::remove_dir(&dir).expect("caller's dir is left in place, empty");
    }

    #[test]
    fn checksum_changes_with_any_single_byte() {
        // 8-byte words plus a 3-byte tail: every position, word or tail,
        // must move the hash.
        let base: Vec<u8> = (0..35u8).collect();
        let h = fnv1a(&base);
        for i in 0..base.len() {
            let mut b = base.clone();
            b[i] ^= 0x01;
            assert_ne!(fnv1a(&b), h, "flip at byte {i} went unnoticed");
        }
    }

    #[test]
    fn resident_and_spilled_bytes_are_disjoint_and_complete() {
        // 1-page budget
        let t = tiny_table(100, 8, 0.1, 2, 5 * 8 * 4, 5);
        let stats = t.capacity_stats();
        let total_value_bytes = (100 * 8 * 4) as u64;
        assert_eq!(stats.resident_bytes + stats.spilled_bytes, total_value_bytes);
        assert_eq!(t.spilled_bytes(), stats.spilled_bytes);
        // heap_bytes counts resident data + clocks, never spilled pages.
        assert_eq!(t.heap_bytes(), stats.resident_bytes as usize + 100 * 8);
        assert_eq!(stats.budget_bytes, (5 * 8 * 4) as u64);
    }

    #[test]
    fn epoch_plan_beats_lru_on_cyclic_sweep() {
        // The classic LRU-pathological workload: cyclically sweep one more
        // page than fits. LRU evicts exactly the page needed next and
        // faults on every access; Belady-from-plan keeps part of the
        // working set pinned down and faults strictly less.
        let dim = 4;
        let rpp = 2;
        let pages = 4usize;
        let budget = 2 * rpp * dim * 4; // two of four pages fit
        let sweep: Vec<u32> = (0..pages as u32).cycle().take(40).collect();

        let faults_with = |plan: bool| {
            let t = tiny_table(pages * rpp, dim, 0.1, 7, budget, rpp);
            if plan {
                t.set_epoch_plan(&sweep);
            }
            let mut scratch = BatchScratch::default();
            let mut out = vec![0.0f32; dim];
            let mut clocks = vec![0u64; 1];
            for &p in &sweep {
                let row = [p * rpp as u32];
                t.read_rows(&row, &mut out, &mut clocks, &mut scratch);
            }
            t.capacity_stats().fault_loads
        };
        let lru = faults_with(false);
        let belady = faults_with(true);
        assert!(
            belady < lru,
            "plan-driven eviction should fault less: belady={belady} lru={lru}"
        );
    }

    #[test]
    fn plan_does_not_change_results() {
        let dim = 3;
        let rows: Vec<u32> = (0..48u32).rev().collect();
        let grads: Vec<f32> = (0..rows.len() * dim).map(|i| (i as f32).sin()).collect();
        let run = |plan: bool| {
            let t = tiny_table(48, dim, 0.1, 11, 2 * dim * 4 * 4, 4);
            if plan {
                let seq: Vec<u32> = (0..t.num_pages() as u32).rev().collect();
                t.set_epoch_plan(&seq);
            }
            let mut scratch = BatchScratch::default();
            let mut clocks = vec![0u64; rows.len()];
            t.apply_grads(&rows, &grads, &SparseOpt::adagrad(0.2), &mut clocks, &mut scratch);
            read_all_bits(&t)
        };
        assert_eq!(run(false), run(true), "eviction policy leaked into results");
    }

    #[test]
    fn lock_acquisitions_amortised_per_page_group() {
        let t = tiny_table(64, 4, 0.0, 1, usize::MAX, 8);
        let rows: Vec<u32> = (0..64u32).collect(); // 8 pages, 8 rows each
        let mut scratch = BatchScratch::default();
        let mut out = vec![0.0f32; rows.len() * 4];
        let mut clocks = vec![0u64; rows.len()];
        let before = t.lock_acquisitions();
        t.read_rows(&rows, &mut out, &mut clocks, &mut scratch);
        assert_eq!(t.lock_acquisitions() - before, 8);
    }
}
