//! LRU factor cache: keeps factorizations resident between requests.
//!
//! A cache entry bundles everything the solve path needs — the permutation
//! and numeric factor with its [`SolvePlan`] ([`SparseCholeskySolver`]),
//! the precomputed [`SubtreeSchedule`] for the engine's executor width,
//! the entry's [`BatchLane`], and a pool of reusable [`SolveWorkspace`]s —
//! behind one `Arc`, so a request holds the entry alive even if it is
//! evicted mid-solve. Eviction is strict LRU under a configurable byte
//! budget; the most recently inserted entry is always admitted (a single
//! factor larger than the budget still gets cached, it just evicts
//! everything else).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use trisolv_core::{
    SolvePlan, SolveWorkspace, SparseCholeskySolver, SparseCholeskySolverF32, SubtreeSchedule,
};
use trisolv_factor::SupernodePartition;
use trisolv_graph::Permutation;
use trisolv_matrix::{CscMatrix, DenseMatrix};

use crate::batch::BatchLane;
use crate::engine::EngineError;
use crate::fingerprint::Fingerprint;

/// How many idle workspaces an entry keeps for reuse.
const WORKSPACE_POOL_CAP: usize = 4;

/// Lock, recovering from poison. Cache state is a map of immutable
/// `Arc<FactorEntry>`s plus monotone counters — a panic mid-critical-section
/// cannot leave it torn, so inheriting the guard is always safe (and one
/// panicked request must not take the whole cache down with it).
fn lock_cache<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The resident numeric representation of a cached factor: the full `f64`
/// solver, or its demoted `f32` twin.
///
/// Factorization always runs in `f64`; the `F32` lane exists only as a
/// cache-insert demotion (`--precision f32|auto`). Direct solves on the
/// narrow lane stream half the factor bytes and answer at `f32` accuracy;
/// certified solves refine back to the full `f64` componentwise target
/// against the retained matrix (falling back to an `f64` refactorization
/// when refinement stagnates — see the engine's precision ladder).
#[derive(Clone)]
pub enum SolverLane {
    /// Full-precision resident factor.
    F64(SparseCholeskySolver),
    /// Demoted resident factor (half the value bytes).
    F32(SparseCholeskySolverF32),
}

impl From<SparseCholeskySolver> for SolverLane {
    fn from(s: SparseCholeskySolver) -> SolverLane {
        SolverLane::F64(s)
    }
}

impl From<SparseCholeskySolverF32> for SolverLane {
    fn from(s: SparseCholeskySolverF32) -> SolverLane {
        SolverLane::F32(s)
    }
}

impl SolverLane {
    /// Matrix order.
    pub fn n(&self) -> usize {
        match self {
            SolverLane::F64(s) => s.factor_matrix().n(),
            SolverLane::F32(s) => s.factor_matrix().n(),
        }
    }

    /// Nonzeros in the numeric factor (at or below the diagonal).
    pub fn factor_nnz(&self) -> usize {
        match self {
            SolverLane::F64(s) => s.factor_matrix().nnz(),
            SolverLane::F32(s) => s.factor_matrix().nnz(),
        }
    }

    /// Total stored factor values (Σ trapezoid height·width).
    pub fn value_count(&self) -> usize {
        match self {
            SolverLane::F64(s) => s.factor_matrix().value_count(),
            SolverLane::F32(s) => s.factor_matrix().value_count(),
        }
    }

    /// The supernode partition the factor is stored in.
    pub fn partition(&self) -> &SupernodePartition {
        match self {
            SolverLane::F64(s) => s.factor_matrix().partition(),
            SolverLane::F32(s) => s.factor_matrix().partition(),
        }
    }

    /// Bytes per stored factor value: 8 for `f64`, 4 for `f32`. This is
    /// what makes the cache's byte accounting honest about demotion — a
    /// fixed budget holds roughly twice as many demoted factors.
    pub fn bytes_per_value(&self) -> usize {
        match self {
            SolverLane::F64(_) => 8,
            SolverLane::F32(_) => 4,
        }
    }

    /// `true` for the demoted lane.
    pub fn is_f32(&self) -> bool {
        matches!(self, SolverLane::F32(_))
    }

    /// Human-readable precision tag (`"f64"` / `"f32"`).
    pub fn precision_name(&self) -> &'static str {
        match self {
            SolverLane::F64(_) => "f64",
            SolverLane::F32(_) => "f32",
        }
    }

    /// The solve plan built at factor time.
    pub fn plan(&self) -> &SolvePlan {
        match self {
            SolverLane::F64(s) => s.plan(),
            SolverLane::F32(s) => s.plan(),
        }
    }

    /// The combined permutation (fill-reducing ∘ postorder).
    pub fn perm(&self) -> &Permutation {
        match self {
            SolverLane::F64(s) => s.perm(),
            SolverLane::F32(s) => s.perm(),
        }
    }

    /// Diagonal perturbations recorded by the (f64) factorization.
    pub fn perturbations(&self) -> &[(usize, f64)] {
        match self {
            SolverLane::F64(s) => s.factor_matrix().perturbations(),
            SolverLane::F32(s) => s.factor_matrix().perturbations(),
        }
    }

    /// Sequential solve on whichever lane is resident (`f64` in, `f64`
    /// out; the narrow lane converts at its boundaries).
    pub fn solve(&self, b: &DenseMatrix) -> DenseMatrix {
        match self {
            SolverLane::F64(s) => s.solve(b),
            SolverLane::F32(s) => s.solve(b),
        }
    }

    /// Digest of the resident factor's value blocks at their native
    /// width (two-lane FNV over the stored bit patterns).
    pub fn digest(&self) -> Fingerprint {
        match self {
            SolverLane::F64(s) => {
                let f = s.factor_matrix();
                Fingerprint::of_value_slices((0..f.nsup()).map(|s| f.block(s).as_slice()))
            }
            SolverLane::F32(s) => {
                let f = s.factor_matrix();
                Fingerprint::of_value_slices_f32((0..f.nsup()).map(|s| f.values(s)))
            }
        }
    }

    /// The full-precision solver, when resident.
    pub fn as_f64(&self) -> Option<&SparseCholeskySolver> {
        match self {
            SolverLane::F64(s) => Some(s),
            SolverLane::F32(_) => None,
        }
    }

    /// The demoted solver, when resident.
    pub fn as_f32(&self) -> Option<&SparseCholeskySolverF32> {
        match self {
            SolverLane::F64(_) => None,
            SolverLane::F32(s) => Some(s),
        }
    }
}

/// A resident factorization plus everything needed to serve solves on it.
pub struct FactorEntry {
    /// Content hash this entry is keyed by.
    pub fingerprint: Fingerprint,
    /// Matrix order.
    pub n: usize,
    /// The original matrix this entry was factored from — retained for
    /// iterative refinement (residuals need `A`, not `L`) and for
    /// self-healing refactorization after integrity-check failures.
    pub matrix: CscMatrix,
    /// Permutation + supernodal Cholesky factor + solve plan, in whichever
    /// precision lane this entry is resident.
    pub solver: SolverLane,
    /// Subtree-to-thread schedule precomputed for the engine's configured
    /// executor width, so batched solves never rebuild it.
    pub schedule: SubtreeSchedule,
    /// Micro-batching rendezvous for this factor's solve requests.
    pub lane: BatchLane<EngineError>,
    /// Estimated resident size, used for the eviction budget.
    pub bytes: usize,
    /// Digest of the factor's value blocks taken at construction; the
    /// integrity cadence re-digests and compares (see
    /// [`FactorEntry::verify`]).
    pub checksum: Fingerprint,
    /// Solves served by this entry (drives the verify cadence).
    solves: AtomicU64,
    workspaces: Mutex<Vec<SolveWorkspace>>,
    workspaces32: Mutex<Vec<SolveWorkspace<f32>>>,
}

impl FactorEntry {
    /// Bundle a factored solver into a cache entry, precomputing the
    /// subtree schedule for a `solver_threads`-wide executor and digesting
    /// the factor values for later integrity checks.
    pub fn new(
        fingerprint: Fingerprint,
        matrix: CscMatrix,
        solver: impl Into<SolverLane>,
        solver_threads: usize,
        lane: BatchLane<EngineError>,
    ) -> FactorEntry {
        let solver = solver.into();
        let n = solver.n();
        let bytes =
            FactorEntry::estimate_bytes(solver.partition(), solver.bytes_per_value(), &matrix);
        let schedule = solver.plan().subtree_schedule(solver_threads.max(1));
        let checksum = solver.digest();
        FactorEntry {
            fingerprint,
            n,
            matrix,
            solver,
            schedule,
            lane,
            bytes,
            checksum,
            solves: AtomicU64::new(0),
            workspaces: Mutex::new(Vec::new()),
            workspaces32: Mutex::new(Vec::new()),
        }
    }

    /// The resident-size estimate charged against the cache budget for a
    /// factor stored in `part` at `bytes_per_value` per value, retaining
    /// `matrix`: the *stored* trapezoid values at their native width (8 B
    /// f64, 4 B f32 — demotion halves the dominant term), plus supernode
    /// row lists (8 B per trapezoid row; the dense blocks carry no
    /// per-nonzero indices), the retained f64 matrix arrays (~16 B/nnz),
    /// and plan/permutation/supernode metadata (~96 B/row). Relaxed
    /// supernodes trade padded values against fewer row-list entries.
    pub fn estimate_bytes(
        part: &SupernodePartition,
        bytes_per_value: usize,
        matrix: &CscMatrix,
    ) -> usize {
        let (values, rows) = (0..part.nsup()).fold((0, 0), |(v, r), s| {
            (v + part.height(s) * part.width(s), r + part.height(s))
        });
        values * bytes_per_value + rows * 8 + matrix.nnz() * 16 + part.n() * 96
    }

    /// Re-digest the factor values and compare against the checksum taken
    /// at construction. `false` means the resident factor no longer matches
    /// what was inserted — silent corruption.
    pub fn verify(&self) -> bool {
        self.solver.digest() == self.checksum
    }

    /// Count one solve against this entry; returns the new total. The
    /// engine uses the running count to trigger periodic verification.
    pub fn note_solve(&self) -> u64 {
        self.solves.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Fault-injection hook (`cache.torn`): a clone of this entry whose
    /// factor has one value's lowest mantissa bit flipped but whose
    /// *checksum is the original* — exactly what silent in-memory
    /// corruption of a resident factor looks like to the integrity check.
    pub fn corrupted_clone(
        &self,
        solver_threads: usize,
        lane: BatchLane<EngineError>,
    ) -> FactorEntry {
        let mut solver = self.solver.clone();
        match &mut solver {
            SolverLane::F64(s) => {
                let f = s.factor_matrix_mut();
                if f.nsup() > 0 {
                    if let Some(v) = f.block_mut(0).as_mut_slice().first_mut() {
                        *v = f64::from_bits(v.to_bits() ^ 1);
                    }
                }
            }
            SolverLane::F32(s) => {
                let f = s.factor_matrix_mut();
                if f.nsup() > 0 {
                    if let Some(v) = f.values_mut(0).first_mut() {
                        *v = f32::from_bits(v.to_bits() ^ 1);
                    }
                }
            }
        }
        let mut entry = FactorEntry::new(
            self.fingerprint,
            self.matrix.clone(),
            solver,
            solver_threads,
            lane,
        );
        entry.checksum = self.checksum;
        entry
    }

    /// The solve plan built at factor time (shared with the solver).
    pub fn plan(&self) -> &SolvePlan {
        self.solver.plan()
    }

    /// Take a pooled `f64` workspace (or make a fresh one sized for
    /// `nrhs`). Workspaces auto-grow, so any pooled one fits any batch
    /// width.
    pub fn take_workspace(&self, nrhs: usize) -> SolveWorkspace {
        let pooled = lock_cache(&self.workspaces).pop();
        pooled.unwrap_or_else(|| SolveWorkspace::new(self.solver.plan(), nrhs))
    }

    /// Return an `f64` workspace to the pool (dropped if the pool is full).
    pub fn put_workspace(&self, ws: SolveWorkspace) {
        let mut pool = lock_cache(&self.workspaces);
        if pool.len() < WORKSPACE_POOL_CAP {
            pool.push(ws);
        }
    }

    /// Take a pooled `f32` workspace for the demoted lane's threaded
    /// executor (or make a fresh one sized for `nrhs`).
    pub fn take_workspace32(&self, nrhs: usize) -> SolveWorkspace<f32> {
        let pooled = lock_cache(&self.workspaces32).pop();
        pooled.unwrap_or_else(|| SolveWorkspace::new(self.solver.plan(), nrhs))
    }

    /// Return an `f32` workspace to the pool (dropped if the pool is full).
    pub fn put_workspace32(&self, ws: SolveWorkspace<f32>) {
        let mut pool = lock_cache(&self.workspaces32);
        if pool.len() < WORKSPACE_POOL_CAP {
            pool.push(ws);
        }
    }
}

/// Outcome of a cache insert: whether the entry was newly admitted, and
/// which resident entries the byte budget pushed out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Admitted {
    /// `true` if the entry was not previously resident.
    pub fresh: bool,
    /// Fingerprints evicted by the LRU policy to make room.
    pub evicted: Vec<Fingerprint>,
}

/// Counters and occupancy reported by `STATS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found a resident factor.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted by the LRU policy (explicit evictions not counted).
    pub evictions: u64,
    /// Resident entry count.
    pub entries: usize,
    /// Estimated resident bytes across all entries.
    pub resident_bytes: usize,
}

struct Slot {
    entry: Arc<FactorEntry>,
    last_used: u64,
}

struct CacheInner {
    map: HashMap<Fingerprint, Slot>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    resident_bytes: usize,
}

/// Thread-safe LRU cache of [`FactorEntry`]s under a byte budget.
pub struct FactorCache {
    budget_bytes: usize,
    inner: Mutex<CacheInner>,
}

impl FactorCache {
    /// An empty cache with the given byte budget.
    pub fn new(budget_bytes: usize) -> FactorCache {
        FactorCache {
            budget_bytes,
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                tick: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
                resident_bytes: 0,
            }),
        }
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// Look up a factor, marking it most-recently-used. Counts a hit or a
    /// miss.
    pub fn get(&self, fp: Fingerprint) -> Option<Arc<FactorEntry>> {
        let mut g = lock_cache(&self.inner);
        g.tick += 1;
        let tick = g.tick;
        match g.map.get_mut(&fp) {
            Some(slot) => {
                slot.last_used = tick;
                let entry = Arc::clone(&slot.entry);
                g.hits += 1;
                Some(entry)
            }
            None => {
                g.misses += 1;
                None
            }
        }
    }

    /// Is the factor resident? (No hit/miss accounting, no LRU touch.)
    pub fn peek(&self, fp: Fingerprint) -> Option<Arc<FactorEntry>> {
        let g = lock_cache(&self.inner);
        g.map.get(&fp).map(|s| Arc::clone(&s.entry))
    }

    /// Insert an entry (most-recently-used), then evict least-recently-used
    /// *other* entries until the estimated resident size fits the budget.
    /// The outcome reports `fresh == false` (resident entry kept) if the
    /// fingerprint was already cached, and lists every LRU victim so the
    /// persistence layer can delete their snapshots.
    pub fn insert(&self, entry: Arc<FactorEntry>) -> Admitted {
        let mut g = lock_cache(&self.inner);
        g.tick += 1;
        let tick = g.tick;
        if let Some(slot) = g.map.get_mut(&entry.fingerprint) {
            slot.last_used = tick;
            return Admitted {
                fresh: false,
                evicted: Vec::new(),
            };
        }
        g.resident_bytes += entry.bytes;
        let new_fp = entry.fingerprint;
        g.map.insert(
            new_fp,
            Slot {
                entry,
                last_used: tick,
            },
        );
        let mut evicted = Vec::new();
        while g.resident_bytes > self.budget_bytes && g.map.len() > 1 {
            let victim = g
                .map
                .iter()
                .filter(|(fp, _)| **fp != new_fp)
                .min_by_key(|(_, s)| s.last_used)
                .map(|(fp, _)| *fp)
                .expect("len > 1 so another entry exists");
            let gone = g.map.remove(&victim).unwrap();
            g.resident_bytes -= gone.entry.bytes;
            g.evictions += 1;
            evicted.push(victim);
        }
        Admitted {
            fresh: true,
            evicted,
        }
    }

    /// Swap the resident entry for `entry.fingerprint` in place, keeping
    /// its LRU position (self-healing must not perturb eviction order).
    /// Falls back to a plain insert when the fingerprint is not resident.
    /// Returns `true` when an existing entry was replaced.
    pub fn replace(&self, entry: Arc<FactorEntry>) -> bool {
        {
            let mut g = lock_cache(&self.inner);
            if let Some(slot) = g.map.get_mut(&entry.fingerprint) {
                let old_bytes = slot.entry.bytes;
                let new_bytes = entry.bytes;
                slot.entry = entry;
                g.resident_bytes = g.resident_bytes - old_bytes + new_bytes;
                return true;
            }
        }
        self.insert(entry);
        false
    }

    /// Drop a factor explicitly. Returns whether it was resident.
    pub fn evict(&self, fp: Fingerprint) -> bool {
        let mut g = lock_cache(&self.inner);
        match g.map.remove(&fp) {
            Some(slot) => {
                g.resident_bytes -= slot.entry.bytes;
                true
            }
            None => false,
        }
    }

    /// All resident entries (unordered; no LRU touch). Used by quiescence
    /// checks that want to inspect every lane.
    pub fn entries(&self) -> Vec<Arc<FactorEntry>> {
        let g = lock_cache(&self.inner);
        g.map.values().map(|s| Arc::clone(&s.entry)).collect()
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        let g = lock_cache(&self.inner);
        CacheStats {
            hits: g.hits,
            misses: g.misses,
            evictions: g.evictions,
            entries: g.map.len(),
            resident_bytes: g.resident_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchOptions;
    use trisolv_matrix::gen;

    fn entry_for(spec: &str) -> Arc<FactorEntry> {
        let a = gen::from_spec(spec).unwrap();
        let fp = Fingerprint::of_matrix(&a);
        let solver = SparseCholeskySolver::factor(&a).unwrap();
        Arc::new(FactorEntry::new(
            fp,
            a,
            solver,
            2,
            BatchLane::new(BatchOptions::default()),
        ))
    }

    #[test]
    fn hit_miss_accounting_and_peek() {
        let cache = FactorCache::new(usize::MAX);
        let e = entry_for("grid2d:6");
        let fp = e.fingerprint;
        assert!(cache.get(fp).is_none());
        assert!(cache.insert(Arc::clone(&e)).fresh);
        assert!(!cache.insert(e).fresh, "re-insert reports already cached");
        assert!(cache.get(fp).is_some());
        assert!(cache.peek(fp).is_some());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!(s.resident_bytes > 0);
    }

    #[test]
    fn lru_eviction_under_budget() {
        let a = entry_for("grid2d:8");
        let b = entry_for("grid2d:9");
        let c = entry_for("grid2d:10");
        // Budget fits roughly two of the three entries.
        let cache = FactorCache::new(a.bytes + b.bytes + c.bytes / 2);
        cache.insert(Arc::clone(&a));
        cache.insert(Arc::clone(&b));
        // Touch `a` so `b` is the LRU victim.
        assert!(cache.get(a.fingerprint).is_some());
        let admitted = cache.insert(Arc::clone(&c));
        assert!(admitted.fresh);
        assert_eq!(admitted.evicted, vec![b.fingerprint], "victim is reported");
        assert!(
            cache.peek(a.fingerprint).is_some(),
            "recently used survives"
        );
        assert!(cache.peek(b.fingerprint).is_none(), "LRU entry evicted");
        assert!(cache.peek(c.fingerprint).is_some(), "new entry admitted");
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn checksum_verifies_and_detects_corruption() {
        let e = entry_for("grid2d:7");
        assert!(e.verify(), "fresh entry must verify");
        assert_eq!(e.note_solve(), 1);
        assert_eq!(e.note_solve(), 2);
        let bad = e.corrupted_clone(2, BatchLane::new(BatchOptions::default()));
        assert_eq!(bad.fingerprint, e.fingerprint);
        assert_eq!(bad.checksum, e.checksum, "corruption keeps the old digest");
        assert!(!bad.verify(), "flipped bit must be detected");
    }

    #[test]
    fn replace_swaps_in_place_keeping_lru_position() {
        let a = entry_for("grid2d:8");
        let b = entry_for("grid2d:9");
        let cache = FactorCache::new(usize::MAX);
        cache.insert(Arc::clone(&a));
        cache.insert(Arc::clone(&b));
        let bytes_before = cache.stats().resident_bytes;
        let healed = Arc::new(a.corrupted_clone(2, BatchLane::new(BatchOptions::default())));
        assert!(cache.replace(Arc::clone(&healed)));
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.stats().resident_bytes, bytes_before);
        let got = cache.peek(a.fingerprint).unwrap();
        assert!(Arc::ptr_eq(&got, &healed), "lookup sees the replacement");
        // replacing a non-resident fingerprint degrades to insert
        let c = entry_for("grid2d:10");
        assert!(!cache.replace(Arc::clone(&c)));
        assert!(cache.peek(c.fingerprint).is_some());
    }

    #[test]
    fn oversized_entry_still_admitted() {
        let cache = FactorCache::new(1);
        let e = entry_for("grid2d:6");
        cache.insert(Arc::clone(&e));
        assert!(cache.peek(e.fingerprint).is_some());
        assert!(cache.evict(e.fingerprint));
        assert!(!cache.evict(e.fingerprint));
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().resident_bytes, 0);
    }

    fn lane_entry(a: &CscMatrix, f32_lane: bool) -> Arc<FactorEntry> {
        let fp = Fingerprint::of_matrix(a);
        let solver = SparseCholeskySolver::factor(a).unwrap();
        let lane = if f32_lane {
            SolverLane::F32(solver.demote())
        } else {
            SolverLane::F64(solver)
        };
        Arc::new(FactorEntry::new(
            fp,
            a.clone(),
            lane,
            2,
            BatchLane::new(BatchOptions::default()),
        ))
    }

    #[test]
    fn relaxed_supernodes_do_not_grow_cache_entries() {
        // Cache density guard: the production partition rule may pad
        // values only as far as the row indices it drops pay for them, so
        // a byte budget keeps holding as many entries as under fundamental
        // supernodes (budgets sized from entry estimates depend on it).
        let fundamental_and_relaxed = |a: &CscMatrix| {
            let g = trisolv_graph::Graph::from_sym_lower(a);
            let p = trisolv_graph::nd::nested_dissection(&g, Default::default());
            let part = trisolv_factor::seqchol::analyze_with_perm(a, &p).part;
            let relaxed = part.amalgamate(trisolv_core::seq::RELAX.0, trisolv_core::seq::RELAX.1);
            (part, relaxed)
        };
        // the production solver stores its factor in exactly that partition
        let a = gen::from_spec("mesh2d:12:3").unwrap();
        let e = lane_entry(&a, false);
        let (_, relaxed) = fundamental_and_relaxed(&a);
        assert_eq!(e.solver.partition().nsup(), relaxed.nsup());
        assert_eq!(e.bytes, FactorEntry::estimate_bytes(&relaxed, 8, &a));

        let mut specs = vec!["grid2d:112".to_string(), "grid3d:20".to_string()];
        specs.extend((1..=16).map(|s| format!("mesh2d:51:{s}")));
        for spec in specs {
            let a = gen::from_spec(&spec).unwrap();
            let (fundamental, relaxed) = fundamental_and_relaxed(&a);
            let before = FactorEntry::estimate_bytes(&fundamental, 8, &a);
            let after = FactorEntry::estimate_bytes(&relaxed, 8, &a);
            assert!(
                after as f64 <= 1.01 * before as f64,
                "{spec}: relaxed entry {after} B vs fundamental {before} B"
            );
        }
    }

    #[test]
    fn demotion_saves_exactly_four_bytes_per_stored_value() {
        let a = gen::from_spec("grid2d:24").unwrap();
        let e64 = lane_entry(&a, false);
        let e32 = lane_entry(&a, true);
        assert_eq!(e64.solver.value_count(), e32.solver.value_count());
        // Only the value width differs between the lanes' accounting: the
        // retained matrix, row lists, and per-row metadata are charged
        // identically.
        assert_eq!(e64.bytes - e32.bytes, 4 * e64.solver.value_count());
    }

    #[test]
    fn fixed_budget_holds_more_f32_factors_before_evicting() {
        // Same structure, distinct fingerprints: scaling an SPD matrix by
        // a positive constant keeps it SPD and leaves the factor shape
        // (hence the entry size) unchanged.
        let base = gen::grid3d_laplacian(12, 12, 12);
        let variants: Vec<CscMatrix> = (0..5)
            .map(|k| {
                let vals: Vec<f64> = base.values().iter().map(|v| v * (1.0 + k as f64)).collect();
                CscMatrix::from_parts(
                    base.nrows(),
                    base.ncols(),
                    base.colptr().to_vec(),
                    base.rowidx().to_vec(),
                    vals,
                )
                .unwrap()
            })
            .collect();
        let e64: Vec<_> = variants.iter().map(|a| lane_entry(a, false)).collect();
        let e32: Vec<_> = variants.iter().map(|a| lane_entry(a, true)).collect();
        let (b64, b32) = (e64[0].bytes, e32[0].bytes);
        assert!(e64.iter().all(|e| e.bytes == b64), "uniform entry size");
        assert!(e32.iter().all(|e| e.bytes == b32), "uniform entry size");

        // A budget that admits exactly two f64 residents...
        let budget = 2 * b64 + b64 / 4;
        let cache = FactorCache::new(budget);
        for e in &e64[..3] {
            cache.insert(Arc::clone(e));
        }
        assert_eq!(cache.stats().entries, 2, "third f64 insert evicts");

        // ...holds at least three f32 residents: the factor payload itself
        // halves exactly; the retained matrix and symbolic structure are
        // overhead both lanes pay, which is what keeps the entry-level
        // gain below the ideal 2x on small problems.
        let n32 = (budget / b32).min(e32.len() - 1);
        assert!(n32 >= 3, "f32 capacity gain too small: {b64} vs {b32}");
        let cache = FactorCache::new(budget);
        for e in e32.iter().take(n32) {
            cache.insert(Arc::clone(e));
        }
        assert_eq!(cache.stats().entries, n32, "all narrow entries resident");
        cache.insert(Arc::clone(&e32[n32]));
        assert_eq!(
            cache.stats().entries,
            n32,
            "one-past-capacity f32 insert finally evicts"
        );
    }
}
