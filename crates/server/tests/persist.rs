//! Durability tests for the crash-consistent factor store: snapshot
//! round-trips, the torn-file table (every section boundary ±1), fault
//! injection at the `store` site, byte-budget eviction, and deletion.
//!
//! The contract under test (DESIGN.md §16): recovery loads exactly the
//! snapshots whose trailer checksum verifies, unlinks everything else with
//! a counted reason, and never panics on any file content whatsoever.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use trisolv_core::SparseCholeskySolver;
use trisolv_factor::seqchol::{analyze_with_perm, factor_supernodal, FactorOptions};
use trisolv_graph::{nd, Graph};
use trisolv_matrix::{gen, CscMatrix};
use trisolv_server::batch::{BatchLane, BatchOptions};
use trisolv_server::protocol::Builder;
use trisolv_server::store::{
    decode_snapshot, encode_snapshot, section_boundaries, DropReason, FactorStore, StoreOptions,
    PRECISION_F32, PRECISION_F64, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
use trisolv_server::{Engine, EngineOptions, FactorEntry, FaultPlan, Fingerprint, SolverLane};

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

fn f32_entry_for(spec: &str) -> Arc<FactorEntry> {
    let a = gen::from_spec(spec).unwrap();
    let fp = Fingerprint::of_matrix(&a);
    let solver = SparseCholeskySolver::factor(&a).unwrap().demote();
    Arc::new(FactorEntry::new(
        fp,
        a,
        SolverLane::F32(solver),
        2,
        BatchLane::new(BatchOptions::default()),
    ))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("trisolv-persist-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// The reason `decode_snapshot` refused `bytes` (panics if it decoded).
fn drop_reason(bytes: &[u8], fp: Fingerprint) -> DropReason {
    match decode_snapshot(bytes, fp) {
        Err(r) => r,
        Ok(_) => panic!("snapshot decoded but a drop was expected"),
    }
}

fn snapshot_files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|d| d.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".factor"))
        .collect();
    names.sort();
    names
}

#[test]
fn snapshot_round_trips_through_save_and_recover() {
    let dir = temp_dir("roundtrip");
    let entry = entry_for("grid2d:9");
    let fp = entry.fingerprint;
    let b = gen::random_rhs(entry.n, 3, 11);
    let want = entry.solver.solve(&b);
    {
        let store = FactorStore::open(StoreOptions::new(&dir), FaultPlan::default()).unwrap();
        store.save(Arc::clone(&entry));
        assert!(store.flush(Duration::from_secs(10)));
        assert_eq!(store.writes(), 1);
    }
    assert_eq!(snapshot_files(&dir), vec![format!("{fp}.factor")]);

    // a fresh store (a "restarted server") recovers it, bit-identical
    let store = FactorStore::open(StoreOptions::new(&dir), FaultPlan::default()).unwrap();
    let recovered = store.recover();
    assert_eq!(store.recovered_count(), 1);
    assert_eq!(store.dropped_count(), 0);
    assert_eq!(recovered.len(), 1);
    let rec = &recovered[0];
    assert_eq!(rec.fingerprint, fp);
    assert_eq!(rec.checksum, entry.checksum);
    assert_eq!(rec.matrix, entry.matrix);
    let got = rec.solver.solve(&b);
    assert_eq!(got, want, "recovered factor must solve bit-identically");
}

#[test]
fn torn_file_table_drops_every_truncation_without_panicking() {
    let entry = entry_for("grid2d:7");
    let fp = entry.fingerprint;
    let bytes = encode_snapshot(&entry);
    assert!(
        decode_snapshot(&bytes, fp).is_ok(),
        "pristine image decodes"
    );

    let marks = section_boundaries(&bytes);
    assert!(marks.len() >= 5, "all sections were walked: {marks:?}");
    assert_eq!(*marks.last().unwrap(), bytes.len());
    for &m in &marks {
        for cut in [m.saturating_sub(1), m, m + 1] {
            if cut >= bytes.len() {
                continue; // not a truncation
            }
            let err = drop_reason(&bytes[..cut], fp);
            assert!(
                matches!(err, DropReason::Torn | DropReason::Corrupt),
                "cut at {cut}: {err:?}"
            );
        }
    }

    // the empty file (crash before any write hit the disk)
    assert_eq!(drop_reason(&[], fp), DropReason::Torn);

    // a single flipped payload byte: the trailer checksum catches it
    for off in [6, bytes.len() / 2, bytes.len() - 17] {
        let mut flipped = bytes.clone();
        flipped[off] ^= 0x01;
        assert_eq!(drop_reason(&flipped, fp), DropReason::Torn, "flip at {off}");
    }

    // a version from the future is stale, not corrupt
    let mut future = bytes.clone();
    future[4] = 0xff;
    assert_eq!(drop_reason(&future, fp), DropReason::Stale);

    // wrong magic
    let mut magic = bytes.clone();
    magic[0] = b'X';
    assert_eq!(drop_reason(&magic, fp), DropReason::Corrupt);

    // a valid snapshot under the wrong name must not be trusted
    let other = entry_for("grid2d:8");
    assert_eq!(drop_reason(&bytes, other.fingerprint), DropReason::Corrupt);
}

#[test]
fn recovery_scan_unlinks_bad_files_and_keeps_good_ones() {
    let dir = temp_dir("scan");
    let good = entry_for("grid2d:8");
    let bytes = encode_snapshot(&good);
    fs::write(dir.join(format!("{}.factor", good.fingerprint)), &bytes).unwrap();

    // torn copy of a different entry, under its real name
    let torn_entry = entry_for("grid2d:6");
    let torn_bytes = encode_snapshot(&torn_entry);
    fs::write(
        dir.join(format!("{}.factor", torn_entry.fingerprint)),
        &torn_bytes[..torn_bytes.len() * 2 / 3],
    )
    .unwrap();
    // orphaned tmp debris, an empty snapshot, and an untrusted name
    fs::write(
        dir.join("0123456789abcdef0123456789abcdef.factor.tmp"),
        b"x",
    )
    .unwrap();
    fs::write(dir.join("00000000000000000000000000000000.factor"), b"").unwrap();
    fs::write(dir.join("not-a-fingerprint.factor"), b"junk").unwrap();

    let store = FactorStore::open(StoreOptions::new(&dir), FaultPlan::default()).unwrap();
    let recovered = store.recover();
    assert_eq!(recovered.len(), 1);
    assert_eq!(recovered[0].fingerprint, good.fingerprint);
    assert_eq!(store.recovered_count(), 1);
    assert_eq!(store.dropped_count(), 4, "torn + tmp + empty + bad name");
    assert_eq!(
        snapshot_files(&dir),
        vec![format!("{}.factor", good.fingerprint)],
        "everything else was unlinked"
    );
}

#[test]
fn injected_store_faults_are_caught_at_recovery() {
    // store.torn leaves a truncated file under the final name (a simulated
    // crash between write and fsync); store.bitflip flips a payload byte
    // after the trailer was computed (silent corruption). Both must be
    // dropped by the next recovery scan.
    for (spec, tag) in [
        ("store.torn=every:1", "torn"),
        ("store.bitflip=every:1", "flip"),
    ] {
        let dir = temp_dir(&format!("fault-{tag}"));
        let entry = entry_for("grid2d:7");
        {
            let store = FactorStore::open(StoreOptions::new(&dir), FaultPlan::parse(spec).unwrap())
                .unwrap();
            store.save(Arc::clone(&entry));
            assert!(store.flush(Duration::from_secs(10)));
        }
        assert_eq!(snapshot_files(&dir).len(), 1, "{tag}: file landed");
        let store = FactorStore::open(StoreOptions::new(&dir), FaultPlan::default()).unwrap();
        assert!(store.recover().is_empty(), "{tag}: snapshot must not load");
        assert_eq!(store.dropped_count(), 1, "{tag}");
        assert!(snapshot_files(&dir).is_empty(), "{tag}: bad file unlinked");
    }
}

#[test]
fn byte_budget_evicts_oldest_snapshot_first() {
    let dir = temp_dir("budget");
    let a = entry_for("grid2d:6");
    let b = entry_for("grid2d:7");
    let c = entry_for("grid2d:8");
    // room for the two newest snapshots but not all three
    let mut opts = StoreOptions::new(&dir);
    opts.budget_bytes = (encode_snapshot(&b).len() + encode_snapshot(&c).len()) as u64 + 64;
    {
        let store = FactorStore::open(opts.clone(), FaultPlan::default()).unwrap();
        for e in [&a, &b, &c] {
            store.save(Arc::clone(e));
        }
        assert!(store.flush(Duration::from_secs(10)));
        assert_eq!(store.writes(), 3, "eviction happens after the write");
    }
    let files = snapshot_files(&dir);
    assert!(
        !files.contains(&format!("{}.factor", a.fingerprint)),
        "oldest evicted: {files:?}"
    );
    assert!(files.contains(&format!("{}.factor", c.fingerprint)));

    // recovery enforces the same budget and keeps the newest survivors
    let store = FactorStore::open(opts, FaultPlan::default()).unwrap();
    let fps: Vec<Fingerprint> = store.recover().iter().map(|r| r.fingerprint).collect();
    assert!(fps.contains(&c.fingerprint));
    assert!(!fps.contains(&a.fingerprint));
}

#[test]
fn f32_snapshot_round_trips_in_the_narrow_lane() {
    let dir = temp_dir("f32-roundtrip");
    let entry = f32_entry_for("grid2d:9");
    let fp = entry.fingerprint;
    let b = gen::random_rhs(entry.n, 3, 13);
    let want = entry.solver.solve(&b);

    // a demoted factor snapshots at its resident width: half the value
    // bytes of the same entry stored in f64
    let narrow = encode_snapshot(&entry);
    let wide = encode_snapshot(&entry_for("grid2d:9"));
    assert!(
        narrow.len() < wide.len(),
        "f32 snapshot ({}) must be smaller than f64 ({})",
        narrow.len(),
        wide.len()
    );

    {
        let store = FactorStore::open(StoreOptions::new(&dir), FaultPlan::default()).unwrap();
        store.save(Arc::clone(&entry));
        assert!(store.flush(Duration::from_secs(10)));
    }
    let store = FactorStore::open(StoreOptions::new(&dir), FaultPlan::default()).unwrap();
    let recovered = store.recover();
    assert_eq!(recovered.len(), 1);
    let rec = &recovered[0];
    assert_eq!(rec.fingerprint, fp);
    assert!(rec.solver.is_f32(), "precision lane survives the restart");
    assert_eq!(rec.checksum, entry.checksum);
    let got = rec.solver.solve(&b);
    assert_eq!(got, want, "recovered f32 factor must solve bit-identically");

    // the torn-file contract holds for the narrow layout too
    let marks = section_boundaries(&narrow);
    assert_eq!(*marks.last().unwrap(), narrow.len());
    for &m in &marks {
        if m < narrow.len() {
            assert!(matches!(
                drop_reason(&narrow[..m], fp),
                DropReason::Torn | DropReason::Corrupt
            ));
        }
    }
}

/// Byte offset of the version-2 precision-tag byte inside a snapshot image:
/// 6-byte header, then fingerprint (16) + regularize (1) + beta (8).
const TAG_OFFSET: usize = 6 + 16 + 1 + 8;

/// Rebuild a snapshot image with `mutate` applied to the payload and a
/// freshly computed trailer, so only the mutation (not the checksum)
/// decides the verdict.
fn resealed(bytes: &[u8], version: u16, mutate: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut payload = bytes[6..bytes.len() - 16].to_vec();
    mutate(&mut payload);
    let trailer = Fingerprint::of_bytes(&payload).to_bytes();
    let mut out = Vec::with_capacity(6 + payload.len() + 16);
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&payload);
    out.extend_from_slice(&trailer);
    out
}

#[test]
fn version_one_snapshot_still_recovers_as_f64() {
    // A version-1 file is exactly the version-2 layout minus the precision
    // tag; synthesize one from a real f64 snapshot and demand full recovery
    // — files an older server wrote must keep loading forever.
    let dir = temp_dir("v1");
    let entry = entry_for("grid2d:8");
    let fp = entry.fingerprint;
    let bytes = encode_snapshot(&entry);
    assert_eq!(
        bytes[TAG_OFFSET], PRECISION_F64,
        "tag sits where documented"
    );
    let v1 = resealed(&bytes, 1, |payload| {
        payload.remove(TAG_OFFSET - 6);
    });

    let rec = decode_snapshot(&v1, fp).expect("version-1 image decodes");
    assert!(!rec.solver.is_f32(), "tagless snapshots are f64");
    let b = gen::random_rhs(entry.n, 2, 5);
    assert_eq!(rec.solver.solve(&b), entry.solver.solve(&b));

    // and through the full store scan, not just the codec
    std::fs::write(dir.join(format!("{fp}.factor")), &v1).unwrap();
    let store = FactorStore::open(StoreOptions::new(&dir), FaultPlan::default()).unwrap();
    let recovered = store.recover();
    assert_eq!(store.recovered_count(), 1);
    assert_eq!(store.dropped_count(), 0);
    assert_eq!(recovered[0].fingerprint, fp);
}

#[test]
fn unknown_precision_tag_is_corrupt_and_future_version_is_stale() {
    let entry = entry_for("grid2d:7");
    let fp = entry.fingerprint;
    let bytes = encode_snapshot(&entry);

    // a tag this server never writes, under a valid trailer: the writer is
    // inconsistent, not the disk
    let bad_tag = resealed(&bytes, 2, |payload| {
        payload[TAG_OFFSET - 6] = 7;
    });
    assert_eq!(drop_reason(&bad_tag, fp), DropReason::Corrupt);

    // the next version exactly (not just 0xff..): stale, never parsed
    let mut next = bytes.clone();
    next[4..6].copy_from_slice(&(SNAPSHOT_VERSION + 1).to_le_bytes());
    assert_eq!(drop_reason(&next, fp), DropReason::Stale);

    // version 0 was never produced by any writer
    let mut v0 = bytes;
    v0[4..6].copy_from_slice(&0u16.to_le_bytes());
    assert_eq!(drop_reason(&v0, fp), DropReason::Stale);
}

#[test]
fn delete_unlinks_the_snapshot() {
    let dir = temp_dir("delete");
    let entry = entry_for("grid2d:6");
    let store = FactorStore::open(StoreOptions::new(&dir), FaultPlan::default()).unwrap();
    store.save(Arc::clone(&entry));
    assert!(store.flush(Duration::from_secs(10)));
    assert_eq!(snapshot_files(&dir).len(), 1);
    store.delete(entry.fingerprint);
    assert!(store.flush(Duration::from_secs(10)));
    assert!(snapshot_files(&dir).is_empty());
    assert!(store.recover().is_empty());
}

/// A snapshot image exactly as a version-1 or version-2 server wrote it:
/// the factor values in the *fundamental* supernode partition of the
/// default ordering (the layout before the relaxed production partition),
/// in `f64` or demoted to `f32` (version 2 only), under that version's
/// header. Returns the image and its factor-value count.
fn pre_relaxation_image(a: &CscMatrix, version: u16, f32_lane: bool) -> (Vec<u8>, usize) {
    assert!(version == 2 || !f32_lane, "version 1 predates the f32 lane");
    let perm = nd::nested_dissection(&Graph::from_sym_lower(a), nd::NdOptions::default());
    let an = analyze_with_perm(a, &perm);
    let f = factor_supernodal(&an.pa, &an.part).unwrap();
    let opts = FactorOptions::default();
    let mut b = Builder::new()
        .fingerprint(Fingerprint::of_matrix(a))
        .u8(u8::from(opts.regularize))
        .f64(opts.beta);
    if version >= 2 {
        b = b.u8(if f32_lane {
            PRECISION_F32
        } else {
            PRECISION_F64
        });
    }
    b = b
        .u64(a.nrows() as u64)
        .u64(a.nnz() as u64)
        .usize_slice(a.colptr())
        .usize_slice(a.rowidx())
        .f64_slice(a.values());
    if f32_lane {
        let d = f.demote();
        b = b
            .fingerprint(Fingerprint::of_value_slices_f32(
                (0..d.nsup()).map(|s| d.values(s)),
            ))
            .u64(d.value_count() as u64);
        for s in 0..d.nsup() {
            b = b.f32_slice(d.values(s));
        }
    } else {
        b = b
            .fingerprint(Fingerprint::of_value_slices(
                (0..f.nsup()).map(|s| f.block(s).as_slice()),
            ))
            .u64(f.value_count() as u64);
        for s in 0..f.nsup() {
            b = b.f64_slice(f.block(s).as_slice());
        }
    }
    b = b.u64(f.perturbations().len() as u64);
    for &(col, delta) in f.perturbations() {
        b = b.u64(col as u64).f64(delta);
    }
    let payload = b.build();
    let mut out = Vec::with_capacity(6 + payload.len() + 16);
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&payload);
    out.extend_from_slice(&Fingerprint::of_bytes(&payload).to_bytes());
    (out, f.value_count())
}

#[test]
fn pre_relaxation_snapshots_are_refactored_and_rewritten_as_current() {
    // Files written before the relaxed partition hold values in the
    // fundamental layout. Recovery must not reuse them (the value count
    // does not even match), but must not drop the file either: it
    // refactors from the verified matrix into the recorded lane, counts
    // the entry as recovered, and the engine rewrites the file.
    let a = gen::from_spec("grid2d:12").unwrap();
    let fp = Fingerprint::of_matrix(&a);
    let fresh = SparseCholeskySolver::factor(&a).unwrap();
    let b = gen::random_rhs(a.ncols(), 2, 21);
    for (version, f32_lane) in [(1u16, false), (2, false), (2, true)] {
        let tag = format!("v{version}-fundamental-{f32_lane}");
        let (image, nvals) = pre_relaxation_image(&a, version, f32_lane);
        assert_ne!(
            nvals,
            fresh.factor_matrix().value_count(),
            "{tag}: the old layout differs from the production one"
        );
        let want = if f32_lane {
            fresh.demote().solve(&b)
        } else {
            fresh.solve(&b)
        };

        let rec = decode_snapshot(&image, fp).expect("pre-relaxation image recovers");
        assert!(rec.upgraded, "{tag}");
        assert_eq!(rec.solver.is_f32(), f32_lane, "{tag}: recorded lane kept");
        assert_eq!(
            rec.solver.solve(&b),
            want,
            "{tag}: answers like a fresh factor"
        );
        assert_eq!(rec.checksum, rec.solver.digest(), "{tag}");

        // through the store scan and the engine's warm restart
        let dir = temp_dir(&tag);
        fs::write(dir.join(format!("{fp}.factor")), &image).unwrap();
        let store = FactorStore::open(StoreOptions::new(&dir), FaultPlan::default()).unwrap();
        let engine = Engine::with_store(
            EngineOptions::default(),
            FaultPlan::default(),
            Some(Arc::clone(&store)),
        );
        assert!(store.flush(Duration::from_secs(10)));
        let stats = engine.stats();
        assert_eq!(stats.persist_recovered, 1, "{tag}");
        assert_eq!(stats.persist_dropped, 0, "{tag}");
        assert_eq!(
            store.writes(),
            1,
            "{tag}: rewritten by the write-behind thread"
        );
        let bytes = fs::read(dir.join(format!("{fp}.factor"))).unwrap();
        assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), SNAPSHOT_VERSION);
        let rec = decode_snapshot(&bytes, fp).expect("rewritten snapshot decodes");
        assert!(!rec.upgraded, "{tag}: the rewrite restores values verbatim");
        assert_eq!(rec.solver.is_f32(), f32_lane, "{tag}");
        assert_eq!(rec.solver.solve(&b), want, "{tag}");
    }
}
