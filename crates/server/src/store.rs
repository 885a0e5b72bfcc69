//! Crash-consistent on-disk factor store with warm restart (DESIGN.md §16).
//!
//! The paper's economics — pay factorization once, amortize it over many
//! triangular solves — should survive a process death. Each sealed cache
//! entry is snapshotted by a dedicated **write-behind thread** (the hot
//! path never blocks on disk; `save` is an `Arc` clone plus a channel
//! send) into a fingerprint-named, versioned file holding the CSC matrix,
//! the factor's numeric values, and the factorization policy, protected by
//! the two-lane FNV-1a checksum family from the integrity work:
//!
//! ```text
//! <fingerprint:32 hex>.factor
//!   magic    b"TSVF"                      4 bytes
//!   version  u16 LE                       2 bytes
//!   payload                               (see encode_snapshot)
//!   trailer  Fingerprint::of_bytes(payload)   16 bytes
//! ```
//!
//! Writes follow the temp-file → `fsync` → atomic-rename protocol, so a
//! reader never observes a half-written snapshot under its final name; a
//! crash can only leave a stray `.tmp` (debris, unlinked at recovery) or —
//! if the crash lands between `rename` and the directory sync on a
//! power-cut — a truncated file the trailer checksum rejects. A tiny
//! advisory `MANIFEST` (oldest-first `fingerprint bytes` lines) preserves
//! eviction order across restarts for the byte budget; the directory scan
//! is the source of truth, so a lost or stale manifest costs nothing but
//! ordering.
//!
//! What is deliberately **not** persisted: the `SolvePlan`, the
//! `SubtreeSchedule`, the permutation, and the supernode partition. All of
//! them are pure functions of the matrix structure (DESIGN.md §12), so
//! recovery re-runs the deterministic symbolic pipeline via
//! [`SparseCholeskySolver::from_factor_values`] and restores only the
//! numeric values verbatim — a warm-restarted server answers bit-identically
//! to one that never died, and the format does not have to version every
//! internal scheduling structure. The one structural rule that *is*
//! versioned is the supernode partition the values are laid out in:
//! version 3 means the relaxed production partition. Version-1/2 files
//! (fundamental partition) are verified as usual, then refactored from
//! their matrix instead of restored, and flagged
//! [`RecoveredFactor::upgraded`] so the engine rewrites them.
//!
//! The recovery scan classifies every `*.factor` file as good (loaded),
//! torn (short file or trailer-checksum mismatch), corrupt (checksum
//! passes but the content is inconsistent — foreign writer, fingerprint
//! mismatch, factor digest mismatch), or stale (a newer version or another
//! factorization policy); bad files are unlinked and counted, never
//! panicked on. Fault sites `store.torn`, `store.stall`, and
//! `store.bitflip` drill exactly the torn-write and silent-corruption
//! artifacts through the always-compiled [`FaultPlan`].

use std::collections::HashSet;
use std::fs::{self, File};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use trisolv_core::{SparseCholeskySolver, SparseCholeskySolverF32};
use trisolv_factor::seqchol::FactorOptions;
use trisolv_matrix::CscMatrix;

use crate::cache::{FactorEntry, SolverLane};
use crate::fault::{FaultAction, FaultPlan, FaultSite};
use crate::fingerprint::Fingerprint;
use crate::protocol::{Builder, Cursor};

/// Leading magic of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"TSVF";
/// Current snapshot format version. Version 2 added the precision tag and
/// native-width (`f32`) factor payloads; version 3 keeps the version-2
/// layout but its values are stored in the relaxed production partition
/// ([`trisolv_core::seq::RELAX`]) — the version number implies the
/// partition rule. Version-1 (implicitly `f64`) and version-2 files still
/// load — recovery, not rejection, for every file an older server wrote:
/// their matrix is verified and refactored into the recorded lane, and
/// the engine rewrites them as version 3.
pub const SNAPSHOT_VERSION: u16 = 3;
/// First version whose factor values are in the relaxed partition.
const RELAXED_SINCE: u16 = 3;
/// Precision-tag byte: full-precision `f64` factor payload.
pub const PRECISION_F64: u8 = 0;
/// Precision-tag byte: demoted `f32` factor payload.
pub const PRECISION_F32: u8 = 1;
/// Snapshot file extension (files are named `<fingerprint>.factor`).
pub const SNAPSHOT_EXT: &str = "factor";

const HEADER_LEN: usize = 6;
const TRAILER_LEN: usize = 16;
const MANIFEST: &str = "MANIFEST";

/// Persistence configuration (`trisolv serve --persist-dir`).
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Directory the snapshots live in (created if missing).
    pub dir: PathBuf,
    /// On-disk byte budget across all snapshots; the oldest are unlinked
    /// when it overflows. The newest snapshot is always kept.
    pub budget_bytes: u64,
}

impl StoreOptions {
    /// Options for `dir` with an unlimited byte budget.
    pub fn new(dir: impl Into<PathBuf>) -> StoreOptions {
        StoreOptions {
            dir: dir.into(),
            budget_bytes: u64::MAX,
        }
    }
}

/// Why the recovery scan refused a snapshot file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Short file or trailer-checksum mismatch: a torn write or flipped
    /// bits (the checksum cannot tell the two apart).
    Torn,
    /// The checksum passed but the content is inconsistent: foreign
    /// writer, fingerprint/name mismatch, or the rebuilt factor failed its
    /// digest.
    Corrupt,
    /// Wrong format version or factorization policy.
    Stale,
}

/// A snapshot the recovery scan accepted: the solver is already rebuilt
/// (deterministic symbolic pipeline + persisted numeric values) and its
/// factor digest verified against the persisted checksum.
pub struct RecoveredFactor {
    /// Content hash of the matrix (and the snapshot's file name).
    pub fingerprint: Fingerprint,
    /// The original matrix, retained for refinement and self-healing.
    pub matrix: CscMatrix,
    /// The rebuilt solver in its persisted precision lane; bit-identical
    /// to the one that was persisted, or, for an upgraded file, to a fresh
    /// [`SparseCholeskySolver::factor`] in that lane (version-1 snapshots
    /// are always `f64`).
    pub solver: SolverLane,
    /// The factor-integrity checksum carried in the snapshot (for an
    /// upgraded file, the digest of the refactored values).
    pub checksum: Fingerprint,
    /// The file predates the relaxed partition (version 1 or 2): its
    /// values were not reused, the solver was refactored from the
    /// verified matrix, and the file should be rewritten as the current
    /// version.
    pub upgraded: bool,
}

struct Ledger {
    /// `(fingerprint, file bytes)` oldest-first; drives budget eviction.
    entries: Vec<(Fingerprint, u64)>,
}

impl Ledger {
    fn total(&self) -> u64 {
        self.entries.iter().map(|(_, b)| b).sum()
    }

    fn touch(&mut self, fp: Fingerprint, bytes: u64) {
        self.entries.retain(|(f, _)| *f != fp);
        self.entries.push((fp, bytes));
    }

    fn remove(&mut self, fp: Fingerprint) {
        self.entries.retain(|(f, _)| *f != fp);
    }
}

enum Msg {
    Save(Arc<FactorEntry>),
    Delete(Fingerprint),
    Flush(Sender<()>),
}

/// The write-behind snapshot store. One instance per server; `save` and
/// `delete` are cheap sends to the writer thread, `recover` is a blocking
/// startup scan.
pub struct FactorStore {
    dir: PathBuf,
    budget: u64,
    tx: Mutex<Option<Sender<Msg>>>,
    writer: Mutex<Option<JoinHandle<()>>>,
    ledger: Arc<Mutex<Ledger>>,
    writes: Arc<AtomicU64>,
    recovered: AtomicU64,
    dropped: AtomicU64,
}

impl FactorStore {
    /// Open (creating if needed) the snapshot directory and start the
    /// write-behind thread. Call [`FactorStore::recover`] before serving
    /// traffic to load surviving snapshots.
    pub fn open(opts: StoreOptions, fault: FaultPlan) -> io::Result<Arc<FactorStore>> {
        fs::create_dir_all(&opts.dir)?;
        let (tx, rx) = mpsc::channel::<Msg>();
        let ledger = Arc::new(Mutex::new(Ledger {
            entries: Vec::new(),
        }));
        let writes = Arc::new(AtomicU64::new(0));
        let store = Arc::new(FactorStore {
            dir: opts.dir.clone(),
            budget: opts.budget_bytes,
            tx: Mutex::new(Some(tx)),
            writer: Mutex::new(None),
            ledger: Arc::clone(&ledger),
            writes: Arc::clone(&writes),
            recovered: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        });
        let dir = opts.dir;
        let budget = opts.budget_bytes;
        let handle = std::thread::Builder::new()
            .name("tsv-store-writer".to_string())
            .spawn(move || {
                while let Ok(msg) = rx.recv() {
                    match msg {
                        Msg::Save(entry) => {
                            writer_save(&dir, budget, &fault, &ledger, &writes, &entry)
                        }
                        Msg::Delete(fp) => {
                            let mut g = lock(&ledger);
                            g.remove(fp);
                            let _ = fs::remove_file(snapshot_path(&dir, fp));
                            write_manifest(&dir, &g.entries);
                        }
                        Msg::Flush(ack) => {
                            let _ = ack.send(());
                        }
                    }
                }
            })?;
        *store.writer.lock().unwrap_or_else(|e| e.into_inner()) = Some(handle);
        Ok(store)
    }

    /// The snapshot directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Queue a snapshot of a sealed cache entry. Costs one `Arc` clone and
    /// a channel send on the caller; encoding and disk I/O happen on the
    /// writer thread.
    pub fn save(&self, entry: Arc<FactorEntry>) {
        self.send(Msg::Save(entry));
    }

    /// Queue deletion of a snapshot (explicit `EVICT` or LRU eviction).
    pub fn delete(&self, fp: Fingerprint) {
        self.send(Msg::Delete(fp));
    }

    /// Wait until every queued save/delete has been applied (the writer
    /// processes messages in order, so a flush ack means the queue ahead
    /// of it drained). Returns `false` on timeout.
    pub fn flush(&self, timeout: Duration) -> bool {
        let (ack_tx, ack_rx) = mpsc::channel();
        self.send(Msg::Flush(ack_tx));
        ack_rx.recv_timeout(timeout).is_ok()
    }

    fn send(&self, msg: Msg) {
        let g = self.tx.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(tx) = g.as_ref() {
            let _ = tx.send(msg);
        }
    }

    /// Completed snapshot writes (temp → fsync → rename all succeeded).
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    /// Snapshots loaded by the recovery scan.
    pub fn recovered_count(&self) -> u64 {
        self.recovered.load(Ordering::Relaxed)
    }

    /// Files the recovery scan unlinked (torn, corrupt, stale, or orphan
    /// `.tmp` debris).
    pub fn dropped_count(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Scan the directory, verify every snapshot, and return the survivors
    /// oldest-first (manifest order where known). Torn/corrupt/stale files
    /// and orphaned `.tmp`s are unlinked and counted — never panicked on.
    /// Survivors beyond the byte budget are unlinked oldest-first.
    pub fn recover(&self) -> Vec<RecoveredFactor> {
        let mut named: Vec<(Fingerprint, PathBuf)> = Vec::new();
        let entries = match fs::read_dir(&self.dir) {
            Ok(it) => it,
            Err(_) => return Vec::new(),
        };
        for dent in entries.flatten() {
            let path = dent.path();
            let name = dent.file_name();
            let name = name.to_string_lossy();
            if name.ends_with(".tmp") {
                // debris of a crash mid-protocol: the write never committed
                let _ = fs::remove_file(&path);
                self.dropped.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            match parse_snapshot_name(&name) {
                Some(fp) => named.push((fp, path)),
                None => {
                    if name != MANIFEST && name.ends_with(&format!(".{SNAPSHOT_EXT}")) {
                        // a .factor file not named by a fingerprint cannot
                        // be trusted; treat as corrupt
                        let _ = fs::remove_file(&path);
                        self.dropped.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        // manifest order first (oldest-first), unknown files after
        let manifest = read_manifest(&self.dir);
        named.sort_by_key(|(fp, _)| manifest.iter().position(|m| m == fp).unwrap_or(usize::MAX));

        let mut out = Vec::new();
        let mut ledger = lock(&self.ledger);
        for (fp, path) in named {
            let bytes = match fs::read(&path) {
                Ok(b) => b,
                Err(_) => {
                    let _ = fs::remove_file(&path);
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
            };
            match decode_snapshot(&bytes, fp) {
                Ok(rec) => {
                    ledger.touch(fp, bytes.len() as u64);
                    self.recovered.fetch_add(1, Ordering::Relaxed);
                    out.push(rec);
                }
                Err(_reason) => {
                    let _ = fs::remove_file(&path);
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        // budget: unlink oldest survivors until the directory fits
        let mut evicted: HashSet<Fingerprint> = HashSet::new();
        while ledger.total() > self.budget && ledger.entries.len() > 1 {
            let (fp, _) = ledger.entries.remove(0);
            let _ = fs::remove_file(snapshot_path(&self.dir, fp));
            evicted.insert(fp);
        }
        if !evicted.is_empty() {
            out.retain(|r| !evicted.contains(&r.fingerprint));
        }
        write_manifest(&self.dir, &ledger.entries);
        out
    }
}

impl Drop for FactorStore {
    fn drop(&mut self) {
        // close the channel so the writer exits, then join it
        self.tx.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(h) = self.writer.lock().unwrap_or_else(|e| e.into_inner()).take() {
            let _ = h.join();
        }
    }
}

fn lock(m: &Mutex<Ledger>) -> std::sync::MutexGuard<'_, Ledger> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One write-behind save: encode, trip the `store` fault site, write
/// atomically, update the ledger/manifest, and enforce the byte budget.
fn writer_save(
    dir: &Path,
    budget: u64,
    fault: &FaultPlan,
    ledger: &Mutex<Ledger>,
    writes: &AtomicU64,
    entry: &FactorEntry,
) {
    let mut bytes = encode_snapshot(entry);
    let final_path = snapshot_path(dir, entry.fingerprint);
    // Stall is honored in place by trip() — that is the window the SIGKILL
    // crash drill aims at.
    match fault.trip(FaultSite::Store) {
        Some(FaultAction::Torn) => {
            // a crash between write and fsync: a truncated snapshot visible
            // under its final name, which recovery must reject
            let cut = (bytes.len() * 2 / 3).max(1).min(bytes.len() - 1);
            let _ = fs::write(&final_path, &bytes[..cut]);
            return;
        }
        Some(FaultAction::BitFlip) => {
            // silent corruption after the trailer checksum was computed
            let mid = HEADER_LEN + (bytes.len() - HEADER_LEN - TRAILER_LEN) / 2;
            bytes[mid] ^= 0x10;
        }
        _ => {}
    }
    if write_atomic(dir, &final_path, &bytes).is_err() {
        // disk trouble is not worth crashing the server over; the entry
        // simply stays memory-only
        return;
    }
    writes.fetch_add(1, Ordering::Relaxed);
    let mut g = lock(ledger);
    g.touch(entry.fingerprint, bytes.len() as u64);
    while g.total() > budget && g.entries.len() > 1 {
        let (fp, _) = g.entries.remove(0);
        let _ = fs::remove_file(snapshot_path(dir, fp));
    }
    write_manifest(dir, &g.entries);
}

/// temp-file → fsync → atomic rename → best-effort directory sync.
fn write_atomic(dir: &Path, final_path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = final_path.with_extension(format!("{SNAPSHOT_EXT}.tmp"));
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, final_path)?;
    // make the rename itself durable; failure here only risks losing the
    // newest snapshot on power-cut, never exposing a torn one
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

fn snapshot_path(dir: &Path, fp: Fingerprint) -> PathBuf {
    dir.join(format!("{fp}.{SNAPSHOT_EXT}"))
}

/// `<32 hex>.factor` → the fingerprint, `None` for anything else.
fn parse_snapshot_name(name: &str) -> Option<Fingerprint> {
    let hex = name.strip_suffix(&format!(".{SNAPSHOT_EXT}"))?;
    if hex.len() != 32 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    let a = u64::from_str_radix(&hex[..16], 16).ok()?;
    let b = u64::from_str_radix(&hex[16..], 16).ok()?;
    Some(Fingerprint(a, b))
}

fn write_manifest(dir: &Path, entries: &[(Fingerprint, u64)]) {
    let mut text = String::new();
    for (fp, bytes) in entries {
        text.push_str(&format!("{fp} {bytes}\n"));
    }
    let tmp = dir.join("MANIFEST.tmp");
    if fs::write(&tmp, text).is_ok() {
        let _ = fs::rename(&tmp, dir.join(MANIFEST));
    }
}

fn read_manifest(dir: &Path) -> Vec<Fingerprint> {
    let Ok(text) = fs::read_to_string(dir.join(MANIFEST)) else {
        return Vec::new();
    };
    text.lines()
        .filter_map(|l| parse_snapshot_name(&format!("{}.{SNAPSHOT_EXT}", l.split(' ').next()?)))
        .collect()
}

/// Encode a sealed cache entry into the full snapshot file image
/// (header + payload + trailer checksum). The factor payload is written at
/// its resident width: `f64` blocks for a full-precision entry, raw `f32`
/// bits for a demoted one — half the bytes, and the bit-exact resident
/// values either way.
pub fn encode_snapshot(entry: &FactorEntry) -> Vec<u8> {
    let m = &entry.matrix;
    let opts = FactorOptions::default();
    let tag = if entry.solver.is_f32() {
        PRECISION_F32
    } else {
        PRECISION_F64
    };
    let mut b = Builder::new()
        .fingerprint(entry.fingerprint)
        .u8(u8::from(opts.regularize))
        .f64(opts.beta)
        .u8(tag)
        .u64(m.nrows() as u64)
        .u64(m.nnz() as u64)
        .usize_slice(m.colptr())
        .usize_slice(m.rowidx())
        .f64_slice(m.values())
        .fingerprint(entry.checksum)
        .u64(entry.solver.value_count() as u64);
    match &entry.solver {
        SolverLane::F64(solver) => {
            let f = solver.factor_matrix();
            for s in 0..f.nsup() {
                b = b.f64_slice(f.block(s).as_slice());
            }
        }
        SolverLane::F32(solver) => {
            let f = solver.factor_matrix();
            for s in 0..f.nsup() {
                b = b.f32_slice(f.values(s));
            }
        }
    }
    let perts = entry.solver.perturbations();
    b = b.u64(perts.len() as u64);
    for &(col, delta) in perts {
        b = b.u64(col as u64).f64(delta);
    }
    let payload = b.build();
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    let trailer = Fingerprint::of_bytes(&payload);
    out.extend_from_slice(&payload);
    out.extend_from_slice(&trailer.to_bytes());
    out
}

/// Decode and fully verify a snapshot file image: header, trailer checksum,
/// payload consistency, fingerprint identity, and — after rebuilding the
/// solver through the deterministic symbolic pipeline — the factor digest.
pub fn decode_snapshot(bytes: &[u8], expect: Fingerprint) -> Result<RecoveredFactor, DropReason> {
    if bytes.len() < HEADER_LEN + TRAILER_LEN {
        return Err(DropReason::Torn);
    }
    if bytes[..4] != SNAPSHOT_MAGIC {
        return Err(DropReason::Corrupt);
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    // Backward, not forward, compatible: every version this server has
    // ever written still loads; files from a *newer* server are stale.
    if version == 0 || version > SNAPSHOT_VERSION {
        return Err(DropReason::Stale);
    }
    let payload = &bytes[HEADER_LEN..bytes.len() - TRAILER_LEN];
    let trailer = Fingerprint::from_bytes(bytes[bytes.len() - TRAILER_LEN..].try_into().unwrap());
    if Fingerprint::of_bytes(payload) != trailer {
        return Err(DropReason::Torn);
    }
    // The checksum passed, so any decode failure below means an
    // inconsistent writer, not a torn write.
    let mut c = Cursor::new(payload);
    let parsed: Result<RecoveredFactor, String> = (|| {
        let fp = c.fingerprint()?;
        if fp != expect {
            return Err("snapshot fingerprint does not match its file name".to_string());
        }
        let regularize = c.u8()? != 0;
        let beta = c.f64()?;
        let opts = FactorOptions::default();
        if regularize != opts.regularize || beta.to_bits() != opts.beta.to_bits() {
            // wrong factorization policy: values would not match what this
            // server would compute — classified as stale below
            return Err("policy".to_string());
        }
        // Version 1 predates the precision tag; those files are `f64` by
        // construction.
        let tag = if version >= 2 { c.u8()? } else { PRECISION_F64 };
        if tag != PRECISION_F64 && tag != PRECISION_F32 {
            return Err("unknown precision tag".to_string());
        }
        let n = c.u64()? as usize;
        let nnz = c.u64()? as usize;
        if n.checked_add(1).is_none() || nnz > payload.len() {
            return Err("implausible dimensions".to_string());
        }
        let colptr = c.usize_vec(n + 1)?;
        let rowidx = c.usize_vec(nnz)?;
        let values = c.f64_vec(nnz)?;
        let matrix =
            CscMatrix::from_parts(n, n, colptr, rowidx, values).map_err(|e| e.to_string())?;
        if Fingerprint::of_matrix(&matrix) != fp {
            return Err("matrix content does not match fingerprint".to_string());
        }
        let checksum = c.fingerprint()?;
        let nvals = c.u64()? as usize;
        let values = if tag == PRECISION_F32 {
            Values::F32(c.f32_vec(nvals)?)
        } else {
            Values::F64(c.f64_vec(nvals)?)
        };
        let perts = read_perturbations(&mut c, n)?;
        c.finish()?;
        // the digest streams over values, so the flat payload digests
        // exactly like the per-supernode blocks it was taken from
        let digest = match &values {
            Values::F64(v) => Fingerprint::of_value_slices([v.as_slice()]),
            Values::F32(v) => Fingerprint::of_value_slices_f32([v.as_slice()]),
        };
        if digest != checksum {
            return Err("persisted factor does not match its checksum".to_string());
        }
        if version < RELAXED_SINCE {
            // The values are laid out in the fundamental partition, which
            // this server no longer builds: refactor from the verified
            // matrix into the recorded lane and let the engine re-snapshot.
            let solver = SparseCholeskySolver::factor(&matrix).map_err(|e| e.to_string())?;
            let solver = if tag == PRECISION_F32 {
                SolverLane::F32(solver.demote())
            } else {
                SolverLane::F64(solver)
            };
            return Ok(RecoveredFactor {
                fingerprint: fp,
                checksum: solver.digest(),
                matrix,
                solver,
                upgraded: true,
            });
        }
        let solver =
            match values {
                Values::F64(v) => SparseCholeskySolver::from_factor_values(&matrix, &v, perts)
                    .map(SolverLane::F64),
                Values::F32(v) => SparseCholeskySolverF32::from_factor_values(&matrix, &v, perts)
                    .map(SolverLane::F32),
            }
            .map_err(|e| e.to_string())?;
        Ok(RecoveredFactor {
            fingerprint: fp,
            matrix,
            solver,
            checksum,
            upgraded: false,
        })
    })();
    parsed.map_err(|reason| {
        if reason == "policy" {
            DropReason::Stale
        } else {
            DropReason::Corrupt
        }
    })
}

/// A snapshot's factor values at their persisted width.
enum Values {
    F64(Vec<f64>),
    F32(Vec<f32>),
}

/// The perturbation ledger tail shared by both precision lanes (always
/// persisted in `f64`: the recorded diagonal boosts are a property of the
/// factorization, not of the storage width).
fn read_perturbations(c: &mut Cursor<'_>, n: usize) -> Result<Vec<(usize, f64)>, String> {
    let npert = c.u64()? as usize;
    let mut perts = Vec::with_capacity(npert.min(n));
    for _ in 0..npert {
        let col = c.u64()? as usize;
        let delta = c.f64()?;
        perts.push((col, delta));
    }
    Ok(perts)
}

/// Byte offsets of every section boundary inside an encoded snapshot:
/// after the header, and after each payload section (identity+policy,
/// matrix arrays, factor checksum+values, perturbations), ending at the
/// trailer. Test aid for the torn-file drill — truncating the file at any
/// of these offsets ±1 must be rejected by [`decode_snapshot`]. Replays
/// the layout of whichever version the header declares.
pub fn section_boundaries(bytes: &[u8]) -> Vec<usize> {
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    let payload = &bytes[HEADER_LEN..bytes.len() - TRAILER_LEN];
    let mut c = Cursor::new(payload);
    let mut marks = vec![HEADER_LEN];
    let _ = (|| -> Result<(), String> {
        let _ = c.fingerprint()?;
        let _ = c.u8()?;
        let _ = c.f64()?;
        let tag = if version >= 2 { c.u8()? } else { PRECISION_F64 };
        marks.push(HEADER_LEN + (payload.len() - c.remaining()));
        let n = c.u64()? as usize;
        let nnz = c.u64()? as usize;
        let _ = c.usize_vec(n + 1)?;
        let _ = c.usize_vec(nnz)?;
        let _ = c.f64_vec(nnz)?;
        marks.push(HEADER_LEN + (payload.len() - c.remaining()));
        let _ = c.fingerprint()?;
        let nvals = c.u64()? as usize;
        if tag == PRECISION_F32 {
            let _ = c.f32_vec(nvals)?;
        } else {
            let _ = c.f64_vec(nvals)?;
        }
        marks.push(HEADER_LEN + (payload.len() - c.remaining()));
        let npert = c.u64()? as usize;
        for _ in 0..npert {
            let _ = c.u64()?;
            let _ = c.f64()?;
        }
        marks.push(HEADER_LEN + (payload.len() - c.remaining()));
        Ok(())
    })();
    marks.push(bytes.len());
    marks
}
