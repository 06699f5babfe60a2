//! Golden digests of every [`TrafficSpec`] stream.
//!
//! `dew serve` jobs describe their input as a spec and regenerate it on
//! every open, so the stream a spec names is part of the protocol: a job
//! must simulate the same records whichever build serves it. The digests
//! below pin the address and kind of every record for each mix at several
//! seeds and lengths; a change to the generator, the shared Zipf table or
//! its guide-table sampler that moves one record fails here. They were
//! computed with the original per-open table and binary-search sampler.

use dew_workloads::traffic::{MixKind, TrafficSpec};

/// FNV-1a over each record's little-endian address and its `din` label.
fn digest(spec: TrafficSpec) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for r in spec.records() {
        for b in r.addr.to_le_bytes().into_iter().chain([r.kind.din_label()]) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `(kind, seed, requests, digest)`.
const GOLDEN: [(MixKind, u64, u64, u64); 36] = [
    (MixKind::Zipf, 0x0, 1, 0x270ea328c3b387da),
    (MixKind::Zipf, 0x0, 5000, 0x99a262af6add5109),
    (MixKind::Zipf, 0x0, 50000, 0xae7e2fc80d7e7771),
    (MixKind::Zipf, 0x1, 1, 0xc373498234a570e0),
    (MixKind::Zipf, 0x1, 5000, 0x35e8ec2ebf7a3801),
    (MixKind::Zipf, 0x1, 50000, 0x39d51cf43e41095f),
    (MixKind::Zipf, 0x5eedcafe, 1, 0xb245101d7b1c3b63),
    (MixKind::Zipf, 0x5eedcafe, 5000, 0x8fb8afafbe58909d),
    (MixKind::Zipf, 0x5eedcafe, 50000, 0x83ffa8f4b0bea1f8),
    (MixKind::Loop, 0x0, 1, 0xe604823a249029bf),
    (MixKind::Loop, 0x0, 5000, 0x0475337c1d577c05),
    (MixKind::Loop, 0x0, 50000, 0x0ae070710cc05265),
    (MixKind::Loop, 0x1, 1, 0xe604823a249029bf),
    (MixKind::Loop, 0x1, 5000, 0x0475337c1d577c05),
    (MixKind::Loop, 0x1, 50000, 0x0ae070710cc05265),
    (MixKind::Loop, 0x5eedcafe, 1, 0xe604823a249029bf),
    (MixKind::Loop, 0x5eedcafe, 5000, 0x0475337c1d577c05),
    (MixKind::Loop, 0x5eedcafe, 50000, 0x0ae070710cc05265),
    (MixKind::Scan, 0x0, 1, 0x3b2c3adf41cd576f),
    (MixKind::Scan, 0x0, 5000, 0x2f7f73793f1ec991),
    (MixKind::Scan, 0x0, 50000, 0xa3efa56db085070d),
    (MixKind::Scan, 0x1, 1, 0x3b2c3adf41cd576f),
    (MixKind::Scan, 0x1, 5000, 0x2f7f73793f1ec991),
    (MixKind::Scan, 0x1, 50000, 0xa3efa56db085070d),
    (MixKind::Scan, 0x5eedcafe, 1, 0x3b2c3adf41cd576f),
    (MixKind::Scan, 0x5eedcafe, 5000, 0x2f7f73793f1ec991),
    (MixKind::Scan, 0x5eedcafe, 50000, 0xa3efa56db085070d),
    (MixKind::Mix, 0x0, 1, 0x270ea328c3b387da),
    (MixKind::Mix, 0x0, 5000, 0xdd2e1b776a4ef394),
    (MixKind::Mix, 0x0, 50000, 0x0ba530c3810c6527),
    (MixKind::Mix, 0x1, 1, 0xc373498234a570e0),
    (MixKind::Mix, 0x1, 5000, 0x8fd13849a6fa3d1e),
    (MixKind::Mix, 0x1, 50000, 0xdbbfd0c64e8dd499),
    (MixKind::Mix, 0x5eedcafe, 1, 0xb245101d7b1c3b63),
    (MixKind::Mix, 0x5eedcafe, 5000, 0x2027ffdc09aedf2c),
    (MixKind::Mix, 0x5eedcafe, 50000, 0x6a41ecfd4556eece),
];

#[test]
fn every_mix_replays_its_golden_stream() {
    for (kind, seed, requests, want) in GOLDEN {
        let spec = TrafficSpec {
            kind,
            requests,
            seed,
        };
        assert_eq!(
            digest(spec),
            want,
            "{kind} seed {seed:#x}, {requests} requests"
        );
    }
}
