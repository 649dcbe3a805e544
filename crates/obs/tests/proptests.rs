//! Property tests for the pure, always-compiled half of `mps-obs`: the
//! JSONL codec (every sink-writable record must parse back exactly,
//! including escaped strings and counter-delta maps).
//!
//! No `obs` feature gating: nothing here touches the live registry, so
//! the tests run identically in both build configurations.

use proptest::prelude::*;
use std::collections::BTreeMap;

use mps_obs::jsonl::{encode_event, encode_span, parse, parse_all, Record};

/// Characters the string generator draws from — deliberately front-loaded
/// with everything the JSONL escaper has to handle: quotes, backslashes,
/// control characters, multi-byte unicode, and the braces/colons that
/// would confuse a sloppy parser.
const PALETTE: &[char] = &[
    '"', '\\', '\n', '\t', '\r', '{', '}', ':', ',', '[', ']', 'a', 'Z', '0', ' ', '_', '.', 'é',
    '≠', '🦀', '\u{1}', '\u{7f}',
];

/// Builds a string from palette indices (the stub has no string
/// strategies, so strings are assembled from generated integer vectors).
fn string_from(indices: &[usize]) -> String {
    indices
        .iter()
        .map(|&i| PALETTE[i % PALETTE.len()])
        .collect()
}

/// Builds a counter-delta map with guaranteed-nonzero values from
/// parallel name-index / value vectors (the stub has no tuple
/// strategies).
fn counters_from(name_idx: &[usize], vals: &[u64]) -> BTreeMap<String, u64> {
    name_idx
        .iter()
        .enumerate()
        .map(|(n, &i)| {
            let v = if vals.is_empty() {
                1
            } else {
                vals[n % vals.len()]
            };
            // Distinct keys (suffix n) keep the expected map size honest.
            (format!("{}#{n}", string_from(&[i, i / 7])), v.max(1))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Every span the sink can write parses back field-for-field,
    // whatever the name contains and however many counter deltas rode
    // along.
    #[test]
    fn span_records_round_trip(
        id in 0u64..u64::MAX,
        has_parent in 0u8..2,
        parent in 0u64..u64::MAX,
        name_idx in prop::collection::vec(0usize..1000, 0..24),
        start_us in 0u64..u64::MAX / 2,
        dur_us in 0u64..u64::MAX / 2,
        counter_names in prop::collection::vec(0usize..1000, 0..8),
        counter_vals in prop::collection::vec(1u64..u64::MAX, 1..8),
    ) {
        let name = string_from(&name_idx);
        let parent = (has_parent == 1).then_some(parent);
        let counters = counters_from(&counter_names, &counter_vals);
        let line = encode_span(id, parent, &name, start_us, dur_us, &counters);
        prop_assert!(!line.contains('\n'), "one record = one line: {line:?}");
        let rec = parse(&line)?;
        match rec {
            Record::Span { id: i, parent: p, name: n, start_us: s, dur_us: d, counters: c, worker: w } => {
                prop_assert_eq!(i, id);
                prop_assert_eq!(p, parent);
                prop_assert_eq!(n, name);
                prop_assert_eq!(s, start_us);
                prop_assert_eq!(d, dur_us);
                prop_assert_eq!(c, counters);
                prop_assert_eq!(w, None, "plain encoder never tags a worker");
            }
            Record::Event { .. } => prop_assert!(false, "span decoded as event"),
        }
    }

    // Events round-trip too, including field values full of escapes.
    #[test]
    fn event_records_round_trip(
        name_idx in prop::collection::vec(0usize..1000, 0..16),
        field_idx in prop::collection::vec(0usize..1000, 0..6),
    ) {
        let name = string_from(&name_idx);
        let fields: Vec<(String, String)> = field_idx
            .iter()
            .enumerate()
            .map(|(n, &i)| (format!("k{n}"), string_from(&[i, i / 3, i / 9])))
            .collect();
        let borrowed: Vec<(&str, String)> =
            fields.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
        let line = encode_event(&name, &borrowed);
        let rec = parse(&line)?;
        match rec {
            Record::Event { name: n, fields: f } => {
                prop_assert_eq!(n, name);
                prop_assert_eq!(f.len(), fields.len());
                for (k, v) in &fields {
                    prop_assert_eq!(f.get(k.as_str()), Some(v));
                }
            }
            Record::Span { .. } => prop_assert!(false, "event decoded as span"),
        }
    }

    // A whole trace (spans and events interleaved) survives
    // encode-all/parse-all.
    #[test]
    fn traces_round_trip_as_a_whole(
        kinds in prop::collection::vec(0u8..2, 1..12),
        seed in 0u64..u64::MAX / 2,
    ) {
        let lines: Vec<String> = kinds
            .iter()
            .enumerate()
            .map(|(i, &k)| {
                if k == 0 {
                    let mut counters = BTreeMap::new();
                    counters.insert(format!("c{i}"), seed % 997 + 1);
                    encode_span(i as u64, (i > 0).then(|| i as u64 - 1), &format!("s\"{i}\\"),
                                seed % 1000, seed % 777, &counters)
                } else {
                    encode_event(&format!("e\n{i}"), &[("v", format!("{seed}"))])
                }
            })
            .collect();
        let records = parse_all(&lines.join("\n"))?;
        prop_assert_eq!(records.len(), kinds.len());
        for (rec, &k) in records.iter().zip(kinds.iter()) {
            match (rec, k) {
                (Record::Span { .. }, 0) | (Record::Event { .. }, 1) => {}
                _ => prop_assert!(false, "record kind flipped in transit"),
            }
        }
    }
}
