//! Kernel counters on a narrow parallel build. The bit-identity of the
//! engine's counts against a naive count is tested inside `nexus-core`
//! (the engine's `kernel_equivalence` module); this binary holds only the
//! test that reads the process-global counters, so no concurrent test can
//! pollute its delta window.

use std::collections::HashMap;
use std::sync::Arc;

use nexus_core::{Candidate, CandidateRepr, CandidateSet, CandidateSource, Engine, Parallelism};
use nexus_table::{Bitmap, Codes};

/// A large full-selection set with narrow key spaces: `(O, T)` has 256
/// keys (u8) and `(O, T, City)` 10 240 (u16).
fn narrow_set() -> CandidateSet {
    let n = 80_000;
    let mut state = 0xFEEDu64;
    let mut column = |card: u32| {
        let codes = (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % card as u64) as u32
            })
            .collect();
        Codes {
            codes,
            cardinality: card,
            validity: None,
        }
    };
    let (o, t, city) = (column(4), column(64), column(40));
    let candidate = Candidate {
        name: "City::prop".to_string(),
        source: CandidateSource::Extracted {
            column: "City".to_string(),
        },
        repr: CandidateRepr::EntityLevel {
            column: "City".to_string(),
            map: (0..40).map(|e| e % 5).collect(),
            cardinality: 5,
        },
        entity_weights: None,
        bias: None,
    };
    CandidateSet {
        candidates: vec![candidate],
        column_codes: HashMap::from([("City".to_string(), Arc::new(city))]),
        o,
        t,
        mask: Bitmap::with_value(n, true),
        link_stats: HashMap::new(),
    }
}

#[test]
fn narrow_scan_counters_move() {
    // The scan-width counters must actually engage on a narrow build.
    let set = narrow_set();
    let before = nexus_info::kernel::counters().snapshot();
    let engine = Engine::with_parallelism(&set, Parallelism::Fixed(8));
    let _ = engine.stats(&set, 0);
    let d = nexus_info::kernel::counters().snapshot().delta(&before);
    assert!(d.narrow_scans >= 1, "narrow scans not recorded: {d:?}");
    assert!(d.builds_w8 >= 1, "u8 builds not recorded: {d:?}");
}
