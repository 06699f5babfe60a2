//! Workspace-level tests for kernel snapshots: every policy's snapshot
//! must survive the filesystem and resume exactly, and corrupt or foreign
//! buffers must be rejected.

use dew_core::lru_tree::LruTreeSimulator;
use dew_core::plru_tree::PlruTreeSimulator;
use dew_core::slru_tree::SlruTreeSimulator;
use dew_core::snapshot::SnapshotError;
use dew_core::{DewOptions, MultiAssocTree, PassConfig, TreePolicy};
use dew_workloads::mediabench::App;

/// LRU kernel options with the CRCB-style duplicate elision on or off.
fn lru_options(dup_elision: bool) -> DewOptions {
    DewOptions {
        dup_elision,
        ..DewOptions::for_policy(TreePolicy::Lru)
    }
}

#[test]
fn snapshot_survives_disk_and_resumes_exactly() {
    let trace = App::G721Encode.generate(40_000, 12);
    let records = trace.records();
    let (head, tail) = records.split_at(records.len() / 2);
    let pass = PassConfig::new(2, 0, 10, 4).expect("valid");

    let single_pass = || MultiAssocTree::for_pass(pass, DewOptions::default(), false);

    // Uninterrupted run.
    let mut straight = single_pass().expect("sound");
    straight.run(records.iter().copied());

    // Checkpoint through a file, as a batch job would.
    let mut first_half = single_pass().expect("sound");
    first_half.run(head.iter().copied());
    let dir = std::env::temp_dir().join("dew_snapshot_test");
    std::fs::create_dir_all(&dir).expect("tempdir");
    let path = dir.join(format!("ckpt{}.dewm", std::process::id()));
    std::fs::write(&path, first_half.to_snapshot()).expect("write snapshot");
    drop(first_half);

    let bytes = std::fs::read(&path).expect("read snapshot");
    let mut resumed = MultiAssocTree::from_snapshot(&bytes).expect("restore");
    resumed.run(tail.iter().copied());
    let _ = std::fs::remove_file(&path);

    assert_eq!(resumed.pass_results(4), straight.pass_results(4));
    assert_eq!(resumed.counters(), straight.counters());
}

#[test]
fn fused_fifo_kernel_snapshot_resumes_exactly() {
    // The arena kernel behind the fused FIFO sweep (and its checkpoint
    // resume path): checkpoint mid-trace, restore into a fresh
    // kernel, continue — results and counters must match an uninterrupted
    // run bit for bit, instrumented or not.
    let trace = App::JpegDecode.generate(30_000, 5);
    let records = trace.records();
    let (head, tail) = records.split_at(records.len() / 3);
    for instrument in [false, true] {
        let mut straight =
            MultiAssocTree::new(4, (0, 7), (0, 3), DewOptions::default(), instrument)
                .expect("valid");
        straight.run(records.iter().copied());

        let mut first = MultiAssocTree::new(4, (0, 7), (0, 3), DewOptions::default(), instrument)
            .expect("valid");
        first.run(head.iter().copied());
        let bytes = first.to_snapshot();
        drop(first);
        let mut resumed = MultiAssocTree::from_snapshot(&bytes).expect("restore");
        resumed.run(tail.iter().copied());

        assert_eq!(resumed.results(), straight.results());
        for assoc in [1u32, 2, 4, 8] {
            assert_eq!(resumed.pass_results(assoc), straight.pass_results(assoc));
            assert_eq!(resumed.pass_counters(assoc), straight.pass_counters(assoc));
        }
    }
}

#[test]
fn fused_lru_kernel_snapshot_resumes_exactly() {
    let trace = App::Mpeg2Encode.generate(30_000, 8);
    let records = trace.records();
    let (head, tail) = records.split_at(2 * records.len() / 3);
    let opts = lru_options(true);
    for instrument in [false, true] {
        let mut straight =
            LruTreeSimulator::new(3, (0, 6), (0, 2), opts, instrument).expect("valid");
        straight.run(records.iter().copied());

        let mut first = LruTreeSimulator::new(3, (0, 6), (0, 2), opts, instrument).expect("valid");
        first.run(head.iter().copied());
        let bytes = first.to_snapshot();
        drop(first);
        let mut resumed = LruTreeSimulator::from_snapshot(&bytes).expect("restore");
        resumed.run(tail.iter().copied());

        assert_eq!(resumed.results(), straight.results());
        for assoc in [1u32, 2, 4] {
            assert_eq!(resumed.pass_results(assoc), straight.pass_results(assoc));
            assert_eq!(resumed.pass_counters(assoc), straight.pass_counters(assoc));
        }
    }
}

#[test]
fn kernel_snapshots_reject_foreign_and_corrupt_buffers() {
    let fifo = MultiAssocTree::new(2, (0, 4), (0, 2), DewOptions::default(), false).expect("valid");
    let lru = LruTreeSimulator::new(2, (0, 4), (0, 2), lru_options(false), false).expect("valid");
    let fifo_bytes = fifo.to_snapshot();
    let lru_bytes = lru.to_snapshot();
    // Each kernel's magic protects it from the other's bytes — and a
    // valid-but-wrong sibling magic gets the dedicated policy-mismatch
    // diagnosis (naming both formats), not a generic bad-magic error.
    match MultiAssocTree::from_snapshot(&lru_bytes) {
        Err(SnapshotError::PolicyMismatch { expected, found }) => {
            assert_eq!(&expected, b"DEWM");
            assert_eq!(&found, b"DEWL");
        }
        other => panic!("expected PolicyMismatch, got {other:?}"),
    }
    match LruTreeSimulator::from_snapshot(&fifo_bytes) {
        Err(SnapshotError::PolicyMismatch { expected, found }) => {
            assert_eq!(&expected, b"DEWL");
            assert_eq!(&found, b"DEWM");
        }
        other => panic!("expected PolicyMismatch, got {other:?}"),
    }
    // An unrelated magic stays a plain BadMagic.
    let mut foreign = fifo_bytes.clone();
    foreign[..4].copy_from_slice(b"DEWX");
    assert!(matches!(
        MultiAssocTree::from_snapshot(&foreign),
        Err(SnapshotError::BadMagic)
    ));
    // Truncation and trailing garbage are rejected, not misread.
    assert!(MultiAssocTree::from_snapshot(&fifo_bytes[..fifo_bytes.len() - 1]).is_err());
    assert!(LruTreeSimulator::from_snapshot(&lru_bytes[..8]).is_err());
    let mut padded = fifo_bytes.clone();
    padded.push(0);
    assert!(MultiAssocTree::from_snapshot(&padded).is_err());
    // A bare 26-byte header describing a huge arena is rejected before
    // the arena is allocated: 2^21 - 1 nodes with lanes up to 16 ways
    // (about 0.5 GiB), and one node whose widest lane is 2^31 ways (32 GiB).
    let header = |magic: &[u8; 4], version: u8, fields: [u32; 5], flags: u8| {
        let mut image = magic.to_vec();
        image.push(version);
        for v in fields {
            image.extend_from_slice(&v.to_le_bytes());
        }
        image.push(flags);
        assert_eq!(image.len(), 26);
        image
    };
    let wide_forest = [2, 0, 20, 0, 4];
    let wide_lane = [2, 0, 0, 0, 31];
    // Each format twice: its last dense version and its sparse one.
    let formats = [
        (b"DEWM", 2),
        (b"DEWM", 3),
        (b"DEWL", 1),
        (b"DEWL", 2),
        (b"DEWP", 2),
        (b"DEWP", 3),
        (b"DEWU", 2),
        (b"DEWU", 3),
    ];
    for (magic, version) in formats {
        for fields in [wide_forest, wide_lane] {
            for flags in [0, 1, 31] {
                let image = header(magic, version, fields, flags);
                let decoded = match magic {
                    b"DEWM" => MultiAssocTree::from_snapshot(&image).err(),
                    b"DEWL" => LruTreeSimulator::from_snapshot(&image).err(),
                    b"DEWP" => PlruTreeSimulator::from_snapshot(&image).err(),
                    _ => SlruTreeSimulator::from_snapshot(&image).err(),
                };
                assert!(
                    matches!(decoded, Some(SnapshotError::Corrupt(_))),
                    "{fields:?} flags {flags} under {}: {decoded:?}",
                    String::from_utf8_lossy(magic)
                );
            }
        }
    }
}

#[test]
fn snapshot_size_tracks_the_forest_footprint() {
    let pass = PassConfig::new(2, 0, 8, 4).expect("valid");
    let mut tree = MultiAssocTree::for_pass(pass, DewOptions::default(), false).expect("sound");
    // Ways that were never filled cost one bitmap bit each.
    let fresh = tree.to_snapshot().len();
    assert!(fresh < tree.footprint_bytes() / 2);
    // Four blocks per finest set fill every way of every node.
    tree.run_blocks(&(0..4 << 8).collect::<Vec<u64>>());
    let snapshot = tree.to_snapshot();
    // Ways dominate: (2^9 - 1) nodes x 4 entries x 8 bytes, plus the MRA
    // lane, the bitmaps and FIFO pointers; the snapshot of a filled forest
    // must be within 3x of the in-memory footprint and never trivially
    // small.
    assert!(snapshot.len() > tree.footprint_bytes() / 2);
    assert!(snapshot.len() < tree.footprint_bytes() * 3);
    assert!(fresh < snapshot.len() / 2);
}
