//! A reusable sum-AllReduce across worker threads.
//!
//! Semantics match one NCCL `ncclAllReduce(sum)` call: every participant
//! contributes a same-length f32 vector and receives the element-wise sum.
//! Implementation is a two-phase generation barrier (contribute → collect)
//! so the group can be reused every iteration without re-allocation races.
//!
//! The group reduces whatever bits it is handed; under a lossy
//! `--sync-format` the *contribution* is what crosses the wire, so the
//! trainer runs each local gradient through [`crate::DenseQuantizer`]
//! before contributing (identically at every pipeline depth) and charges
//! the collective at [`crate::SyncFormat::dense_wire_bytes`].

use parking_lot::{Condvar, Mutex};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Sum,
    Max,
    /// One-rendezvous combination of a `Sum` on the vector plus a scalar
    /// max and a boolean OR carried in the aux lanes — the BSP trainer's
    /// fused sync point (see [`AllReduceGroup::fused_mean_max`]).
    Fused,
}

struct State {
    /// Element-wise combine op for the current round (all participants of a
    /// round must use the same op).
    op: Op,
    /// Combined result for the current generation.
    sum: Vec<f32>,
    /// Buffered per-participant contributions for `Sum` rounds; the round's
    /// last arrival reduces them in a value-sorted order so the float
    /// result depends only on the *multiset* of contributions, never on
    /// thread arrival order (float addition is not associative — arrival-
    /// order accumulation would make same-seed runs diverge by ulps that
    /// chaos-amplify over thousands of iterations).
    parts: Vec<Vec<f32>>,
    /// Scalar max lane for `Fused` rounds (exact: f64 max is order-free).
    aux_max: f64,
    /// Boolean OR lane for `Fused` rounds.
    aux_or: bool,
    /// Number of contributions received this generation.
    arrived: usize,
    /// Number of participants that have collected the result.
    collected: usize,
    /// Generation counter (bumped when a round completes collection).
    generation: u64,
}

/// Rank-ordered token ring state (see [`AllReduceGroup::in_rank_order`]).
struct RingState {
    /// Next ticket allowed to run; tickets are issued as
    /// `round(rank) * n + rank`, so within every round the critical
    /// sections execute in ascending rank order.
    next: u64,
    /// Per-rank round counters (how many times each rank has entered).
    counts: Vec<u64>,
}

/// A sum-AllReduce group over `n` participants.
pub struct AllReduceGroup {
    n: usize,
    state: Mutex<State>,
    cv: Condvar,
    ring: Mutex<RingState>,
    ring_cv: Condvar,
}

impl AllReduceGroup {
    /// Creates a group for `n` participants.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "group must have at least one participant");
        Self {
            n,
            state: Mutex::new(State {
                op: Op::Sum,
                sum: Vec::new(),
                parts: Vec::new(),
                aux_max: f64::NEG_INFINITY,
                aux_or: false,
                arrived: 0,
                collected: 0,
                generation: 0,
            }),
            cv: Condvar::new(),
            ring: Mutex::new(RingState {
                next: 0,
                counts: vec![0; n],
            }),
            ring_cv: Condvar::new(),
        }
    }

    /// Number of participants.
    pub fn num_participants(&self) -> usize {
        self.n
    }

    /// Contributes `data` and blocks until all `n` participants have
    /// contributed; `data` is overwritten with the element-wise sum.
    ///
    /// Every participant must pass the same length each round.
    ///
    /// # Panics
    /// Panics on length disagreement within a round.
    pub fn allreduce_sum(&self, data: &mut [f32]) {
        self.allreduce(data, Op::Sum);
    }

    /// Element-wise max AllReduce (used e.g. to implement simulated-clock
    /// barriers: everyone leaves with the latest clock).
    pub fn allreduce_max(&self, data: &mut [f32]) {
        self.allreduce(data, Op::Max);
    }

    fn allreduce(&self, data: &mut [f32], op: Op) {
        self.combine(data, op, f64::NEG_INFINITY, false);
    }

    /// One rendezvous combining the vector reduction with the aux lanes.
    /// Returns `(max of all clocks, OR of all votes)`.
    fn combine(&self, data: &mut [f32], op: Op, clock: f64, vote: bool) -> (f64, bool) {
        // Sum and Fused both buffer per-participant parts (Fused's vector
        // lane *is* a sum — the aux lanes ride along for free).
        let buffers_parts = matches!(op, Op::Sum | Op::Fused) && self.n > 1;
        let mut st = self.state.lock();

        // A fast participant may re-enter for the next round while the
        // previous round is still in its collection phase (`arrived == n`);
        // it must wait for the round to drain (generation bump resets
        // `arrived` to 0) or it would pollute the previous round's sum.
        while st.arrived == self.n {
            self.cv.wait(&mut st);
        }
        let my_generation = st.generation;

        if st.arrived == 0 {
            st.op = op;
            st.sum.clear();
            st.sum.extend_from_slice(data);
            st.parts.clear();
            st.aux_max = clock;
            st.aux_or = vote;
        } else {
            assert_eq!(st.sum.len(), data.len(), "allreduce length mismatch");
            assert_eq!(st.op, op, "mixed ops within one allreduce round");
            if op == Op::Max {
                // Max is exact and commutative: accumulate in place.
                for (s, &x) in st.sum.iter_mut().zip(data.iter()) {
                    if x > *s {
                        *s = x;
                    }
                }
            }
            st.aux_max = st.aux_max.max(clock);
            st.aux_or |= vote;
        }
        if buffers_parts {
            st.parts.push(data.to_vec());
        }
        st.arrived += 1;

        if st.arrived == self.n {
            if buffers_parts {
                // Deterministic reduction: sum each element's contributions
                // in ascending value order (see `State::parts`).
                let st = &mut *st;
                let mut col = vec![0.0f32; self.n];
                for (i, s) in st.sum.iter_mut().enumerate() {
                    for (c, p) in col.iter_mut().zip(st.parts.iter()) {
                        *c = p[i];
                    }
                    col.sort_by(f32::total_cmp);
                    *s = col.iter().sum();
                }
            }
            // Round complete: open the collection phase.
            self.cv.notify_all();
        } else {
            while st.arrived != self.n && st.generation == my_generation {
                self.cv.wait(&mut st);
            }
            // Exiting via a generation bump is impossible for a contributor
            // of this round (the bump requires this thread's collection),
            // so `st.sum` below is this round's sum.
        }

        data.copy_from_slice(&st.sum);
        let aux = (st.aux_max, st.aux_or);
        st.collected += 1;
        if st.collected == self.n {
            st.arrived = 0;
            st.collected = 0;
            st.generation += 1;
            self.cv.notify_all();
        }
        aux
    }

    /// AllReduce followed by division by `n` (mean of the contributions).
    pub fn allreduce_mean(&self, data: &mut [f32]) {
        self.allreduce_sum(data);
        let inv = 1.0 / self.n as f32;
        for x in data {
            *x *= inv;
        }
    }

    /// Collective OR: every participant contributes a vote and all of them
    /// receive `true` iff *any* participant voted `true`. This is the
    /// abort/recovery agreement used at iteration boundaries — a worker
    /// that must stop (strict-audit trip) or that just recovered from a
    /// fault announces it here, so the whole group leaves the loop at the
    /// same boundary and nobody strands a peer inside a blocking
    /// collective.
    pub fn agree(&self, vote: bool) -> bool {
        let mut flag = [if vote { 1.0f32 } else { 0.0 }];
        self.allreduce_max(&mut flag);
        flag[0] > 0.0
    }

    /// Pure thread rendezvous: returns once every participant has arrived.
    /// Charges nothing and moves no data — the trainer uses it to fence
    /// phases *within* an iteration (all reads drain before any gradient
    /// lands in the shared table; a crash rollback completes before any
    /// peer reads), which makes same-seed runs reproducible.
    pub fn barrier(&self) {
        let mut z = [0.0f32];
        self.allreduce_max(&mut z);
    }

    /// Fused dense-sync collective: one rendezvous that mean-reduces
    /// `data`, max-reduces `clock` and OR-reduces `vote`.
    ///
    /// Bit-identical to `allreduce_mean(data)` on the vector lane (same
    /// value-sorted sum, same `1/n` f32 multiply), and exact on the aux
    /// lanes (f64 max / bool OR are order-free) — so the BSP trainer syncs
    /// gradients and simulated clocks in a single generation-barrier round
    /// trip instead of an `allreduce_mean` + `allreduce_max` pair, without
    /// perturbing any training math.
    pub fn fused_mean_max(&self, data: &mut [f32], clock: f64, vote: bool) -> (f64, bool) {
        let aux = self.combine(data, Op::Fused, clock, vote);
        let inv = 1.0 / self.n as f32;
        for x in data.iter_mut() {
            *x *= inv;
        }
        aux
    }

    /// Runs `f` in a rank-ordered critical section: within each round every
    /// participant's closure executes serially in ascending rank order.
    ///
    /// The trainer serializes its embedding write-backs through this token
    /// ring: a canonical rank-ascending order of shared-table mutations (so
    /// float accumulation order, hence every stored value, is reproducible)
    /// at a fraction of the cost of `n` full barriers, one per rank's turn.
    /// Each rank blocks only until its ticket comes up, not on every peer's
    /// turn boundary.
    ///
    /// Rounds are implicit: a rank's `k`-th call gets ticket `k*n + rank`,
    /// so the ring is reusable every iteration without a reset call. All
    /// participants must call it the same number of times.
    pub fn in_rank_order<R>(&self, rank: usize, f: impl FnOnce() -> R) -> R {
        assert!(rank < self.n, "rank out of range");
        if self.n == 1 {
            return f();
        }
        let ticket = {
            let mut ring = self.ring.lock();
            let t = ring.counts[rank] * self.n as u64 + rank as u64;
            ring.counts[rank] += 1;
            while ring.next != t {
                self.ring_cv.wait(&mut ring);
            }
            t
        };
        let out = f();
        let mut ring = self.ring.lock();
        debug_assert_eq!(ring.next, ticket);
        ring.next += 1;
        self.ring_cv.notify_all();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn single_participant_identity() {
        let g = AllReduceGroup::new(1);
        let mut v = vec![1.0, 2.0, 3.0];
        g.allreduce_sum(&mut v);
        assert_eq!(v, vec![1.0, 2.0, 3.0]);
        g.allreduce_mean(&mut v);
        assert_eq!(v, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn sums_across_threads() {
        let g = Arc::new(AllReduceGroup::new(4));
        let handles: Vec<_> = (0..4)
            .map(|k| {
                let g = Arc::clone(&g);
                std::thread::spawn(move || {
                    let mut v = vec![k as f32; 8];
                    g.allreduce_sum(&mut v);
                    v
                })
            })
            .collect();
        for h in handles {
            let v = h.join().unwrap();
            assert_eq!(v, vec![6.0; 8]); // 0+1+2+3
        }
    }

    #[test]
    fn mean_across_threads() {
        let g = Arc::new(AllReduceGroup::new(2));
        let handles: Vec<_> = [1.0f32, 3.0]
            .into_iter()
            .map(|x| {
                let g = Arc::clone(&g);
                std::thread::spawn(move || {
                    let mut v = vec![x; 4];
                    g.allreduce_mean(&mut v);
                    v
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), vec![2.0; 4]);
        }
    }

    #[test]
    fn reusable_across_rounds() {
        let g = Arc::new(AllReduceGroup::new(3));
        let handles: Vec<_> = (0..3)
            .map(|k| {
                let g = Arc::clone(&g);
                std::thread::spawn(move || {
                    let mut results = Vec::new();
                    for round in 0..50u32 {
                        let mut v = vec![(k + round) as f32];
                        g.allreduce_sum(&mut v);
                        results.push(v[0]);
                    }
                    results
                })
            })
            .collect();
        for h in handles {
            let results = h.join().unwrap();
            for (round, &r) in results.iter().enumerate() {
                // Σ_k (k + round) = 3 + 3·round
                assert_eq!(r, (3 + 3 * round) as f32);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn zero_participants_panics() {
        AllReduceGroup::new(0);
    }

    #[test]
    fn agree_is_a_collective_or() {
        let g = Arc::new(AllReduceGroup::new(3));
        // One dissenting vote flips everyone.
        let handles: Vec<_> = (0..3)
            .map(|k| {
                let g = Arc::clone(&g);
                std::thread::spawn(move || {
                    let unanimous_no = g.agree(false);
                    let one_yes = g.agree(k == 1);
                    (unanimous_no, one_yes)
                })
            })
            .collect();
        for h in handles {
            let (no, yes) = h.join().unwrap();
            assert!(!no);
            assert!(yes);
        }
    }

    #[test]
    fn fused_matches_separate_collectives_bitwise() {
        // The fused rendezvous must be indistinguishable (to the bit) from
        // the three separate collectives it replaces.
        let n = 4;
        let g_sep = Arc::new(AllReduceGroup::new(n));
        let g_fused = Arc::new(AllReduceGroup::new(n));
        let handles: Vec<_> = (0..n)
            .map(|k| {
                let g_sep = Arc::clone(&g_sep);
                let g_fused = Arc::clone(&g_fused);
                std::thread::spawn(move || {
                    // Awkward values so sorted-sum order actually matters.
                    let base: Vec<f32> = (0..16)
                        .map(|i| ((k * 37 + i * 13) as f32).sin() * 1e3f32.powi((k as i32 % 3) - 1))
                        .collect();
                    let clock = 1.5 * (k as f64 + 1.0);
                    let vote = k == 2;

                    let mut sep = base.clone();
                    g_sep.allreduce_mean(&mut sep);
                    let mut c = [clock as f32];
                    g_sep.allreduce_max(&mut c);
                    let agreed = g_sep.agree(vote);

                    let mut fused = base;
                    let (max_clock, or) = g_fused.fused_mean_max(&mut fused, clock, vote);
                    for (a, b) in sep.iter().zip(fused.iter()) {
                        assert_eq!(a.to_bits(), b.to_bits());
                    }
                    assert_eq!(max_clock, 6.0);
                    assert_eq!(c[0], 6.0);
                    assert_eq!(or, agreed);
                    assert!(or);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn fused_reusable_and_false_votes_stay_false() {
        let g = Arc::new(AllReduceGroup::new(3));
        let handles: Vec<_> = (0..3)
            .map(|k| {
                let g = Arc::clone(&g);
                std::thread::spawn(move || {
                    for round in 0..20u32 {
                        let mut v = vec![(k + round as usize) as f32; 4];
                        let (mx, or) =
                            g.fused_mean_max(&mut v, (k as f64) + round as f64, false);
                        assert_eq!(v[0], (3 + 3 * round) as f32 / 3.0);
                        assert_eq!(mx, 2.0 + round as f64);
                        assert!(!or);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn in_rank_order_serializes_ascending_per_round() {
        use std::sync::Mutex as StdMutex;
        let n = 4;
        let g = Arc::new(AllReduceGroup::new(n));
        let order = Arc::new(StdMutex::new(Vec::new()));
        let rounds = 25u64;
        let handles: Vec<_> = (0..n)
            .map(|rank| {
                let g = Arc::clone(&g);
                let order = Arc::clone(&order);
                std::thread::spawn(move || {
                    for _ in 0..rounds {
                        g.in_rank_order(rank, || order.lock().unwrap().push(rank));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let order = order.lock().unwrap();
        assert_eq!(order.len(), n * rounds as usize);
        for (i, chunk) in order.chunks(n).enumerate() {
            assert_eq!(chunk, &[0, 1, 2, 3], "round {i} ran out of order");
        }
    }

    #[test]
    fn in_rank_order_single_participant_runs_inline() {
        let g = AllReduceGroup::new(1);
        assert_eq!(g.in_rank_order(0, || 42), 42);
    }

    #[test]
    fn barrier_orders_phases() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let g = Arc::new(AllReduceGroup::new(4));
        let arrived = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let g = Arc::clone(&g);
                let arrived = Arc::clone(&arrived);
                std::thread::spawn(move || {
                    arrived.fetch_add(1, Ordering::SeqCst);
                    g.barrier();
                    // After the barrier every pre-barrier increment is visible.
                    arrived.load(Ordering::SeqCst)
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 4);
        }
    }
}
