//! Property-based tests for the artifact store: round-trip fidelity and
//! truncated-file recovery for arbitrary payloads and cut points.

#![recursion_limit = "2048"]

use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

use mps_store::{ArtifactKey, Dec, Enc, Store};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn fresh_store(tag: &str) -> Store {
    let dir = std::env::temp_dir().join(format!(
        "mps-store-prop-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    Store::open(dir).unwrap()
}

fn artifact_file(store: &Store, key: &ArtifactKey) -> std::path::PathBuf {
    let dir = store.root().join("artifacts");
    let entries: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .collect();
    assert_eq!(
        entries.len(),
        1,
        "expected exactly one artifact for {key:?}"
    );
    entries.into_iter().next().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // put → get returns the payload byte for byte, for arbitrary content
    // (including bytes that look like newlines, headers or footers).
    #[test]
    fn payload_round_trips(payload in proptest::collection::vec(0u8..=255, 0..512)) {
        let s = fresh_store("rt");
        let k = ArtifactKey::new("prop", "case");
        s.put(&k, &payload).unwrap();
        prop_assert_eq!(s.get(&k).unwrap(), payload);
        prop_assert_eq!(s.stats().hits, 1);
    }

    // Codec round-trip: an encoded f64 table decodes to bit-identical
    // values through a store put/get cycle.
    #[test]
    fn f64_tables_round_trip_bit_exactly(vals in proptest::collection::vec(-1.0e12f64..1.0e12, 0..128)) {
        let s = fresh_store("f64");
        let k = ArtifactKey::new("prop", "f64s");
        let mut e = Enc::new();
        e.f64s(&vals);
        s.put(&k, &e.into_bytes()).unwrap();
        let bytes = s.get(&k).unwrap();
        let mut d = Dec::new(&bytes, "f64s");
        let got = d.f64s().unwrap();
        d.finish().unwrap();
        let want_bits: Vec<u64> = vals.iter().map(|v| v.to_bits()).collect();
        let got_bits: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(got_bits, want_bits);
    }

    // Truncating the on-disk record at ANY byte boundary must be detected:
    // get() degrades to a miss (quarantining the file), never panics and
    // never returns wrong data — and a fresh put() heals the slot.
    #[test]
    fn any_truncation_recovers(payload in proptest::collection::vec(0u8..=255, 1..256), cut_frac in 0.0f64..1.0) {
        let s = fresh_store("trunc");
        let k = ArtifactKey::new("prop", "trunc");
        s.put(&k, &payload).unwrap();
        let path = artifact_file(&s, &k);
        let full = std::fs::read(&path).unwrap();
        let cut = ((full.len() - 1) as f64 * cut_frac) as usize;
        std::fs::write(&path, &full[..cut]).unwrap();
        // Cutting exactly at the payload/footer boundary of a record
        // can never reproduce a valid footer, so any Some() would be a
        // detection failure…
        prop_assert!(s.get(&k).is_none(), "truncated record served as valid (cut at {})", cut);
        prop_assert!(s.stats().corrupt >= 1, "truncation must be counted as corruption");
        s.put(&k, &payload).unwrap();
        prop_assert_eq!(s.get(&k).unwrap(), payload);
    }

    // A single flipped bit anywhere in the payload region is caught by
    // the checksum.
    #[test]
    fn any_bit_flip_is_caught(payload in proptest::collection::vec(0u8..=255, 8..128), pos_frac in 0.0f64..1.0, bit in 0u32..8) {
        let s = fresh_store("flip");
        let k = ArtifactKey::new("prop", "flip");
        s.put(&k, &payload).unwrap();
        let path = artifact_file(&s, &k);
        let mut bytes = std::fs::read(&path).unwrap();
        let header_end = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        let payload_region = header_end..bytes.len() - 16;
        let span = payload_region.end - payload_region.start;
        let pos = payload_region.start + ((span - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= 1 << bit;
        std::fs::write(&path, &bytes).unwrap();
        prop_assert!(s.get(&k).is_none(), "bit flip at {} must not serve", pos);
    }
}
