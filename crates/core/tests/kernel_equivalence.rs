//! Kernel counters on a narrow parallel build. The bit-identity of the
//! kernel against the per-row scan is tested inside `nexus-core` (the
//! engine's `kernel_equivalence` module); this binary holds only the test
//! that reads the process-global counters, so no concurrent test can
//! pollute its delta window.

use std::collections::HashMap;
use std::sync::Arc;

use nexus_core::{Candidate, CandidateRepr, CandidateSet, CandidateSource, Engine, Parallelism};
use nexus_table::{Bitmap, Codes};

/// A large full-selection set whose fused `(T,O)` column stays at u8 width
/// (`|T|·|O|` = 256): selections exceed the kernel's parallel threshold,
/// so multi-thread engines scan one word span per thread and merge radix
/// sub-histograms.
fn narrow_parallel_set() -> CandidateSet {
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
fn narrow_and_merge_counters_move() {
    // The v2 counters must actually engage on a narrow parallel build:
    // u8 scans recorded, and the radix merge bill strictly below what the
    // v1 full-keyspace-per-chunk discipline would have paid.
    let set = narrow_parallel_set();
    let before = nexus_info::kernel::counters().snapshot();
    let engine = Engine::with_parallelism(&set, Parallelism::Fixed(8));
    let _ = engine.stats(&set, 0);
    let d = nexus_info::kernel::counters().snapshot().delta(&before);
    assert!(d.narrow_scans >= 1, "narrow scans not recorded: {d:?}");
    assert!(d.builds_w8 >= 1, "u8 fused builds not recorded: {d:?}");
    assert!(d.radix_merge_cells > 0, "no radix merges recorded: {d:?}");
    assert!(
        d.radix_merge_cells < d.full_merge_cells,
        "radix merge bill should undercut the v1 full-keyspace bill: {d:?}"
    );
}
