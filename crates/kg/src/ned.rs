//! Named Entity Disambiguation (NED): resolving table values to entities.
//!
//! The paper links non-numeric table values to KG entities with an
//! off-the-shelf linker and reports two realistic failure modes that drive
//! its missing-data machinery:
//!
//! * **surface-form mismatch** — `"Russian Federation"` vs the entity
//!   `"Russia"` (solved here by alias tables and name normalization);
//! * **ambiguity** — `"Ronaldo"` matching two footballers, which the linker
//!   declines to resolve (producing a missing link).
//!
//! This module reproduces both: normalized exact-match over canonical names
//! and aliases, with ambiguous surface forms left unlinked.

use std::collections::{HashMap, HashSet};

use nexus_runtime::ThreadPool;
use nexus_table::{Column, ColumnData};

use crate::graph::{EntityId, KnowledgeGraph};

/// Normalizes a surface form: lowercase, trimmed, punctuation stripped,
/// whitespace collapsed.
pub fn normalize(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut last_space = true;
    for ch in s.chars() {
        if ch.is_alphanumeric() {
            // Re-filter after lowercasing: e.g. 'İ' lowercases to "i\u{307}"
            // and the bare combining mark is not alphanumeric — keeping it
            // would break idempotency (a second pass would drop it).
            for c in ch.to_lowercase().filter(|c| c.is_alphanumeric()) {
                out.push(c);
                last_space = false;
            }
        } else if !last_space {
            out.push(' ');
            last_space = true;
        }
    }
    while out.ends_with(' ') {
        out.pop();
    }
    out
}

/// Outcome of linking a single surface form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkOutcome {
    /// Resolved to exactly one entity.
    Linked(EntityId),
    /// No candidate entity.
    NotFound,
    /// More than one candidate; the linker declines to guess.
    Ambiguous,
}

/// Aggregate linking statistics for a column.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Number of rows resolved to an entity.
    pub linked: usize,
    /// Number of rows with no candidate.
    pub not_found: usize,
    /// Number of rows with multiple candidates.
    pub ambiguous: usize,
    /// Number of null rows (nothing to link).
    pub null: usize,
}

impl LinkStats {
    /// Fraction of non-null rows that linked successfully.
    pub fn link_rate(&self) -> f64 {
        let denom = self.linked + self.not_found + self.ambiguous;
        if denom == 0 {
            0.0
        } else {
            self.linked as f64 / denom as f64
        }
    }
}

/// Levenshtein distance with an early-exit bound; `None` when the distance
/// exceeds `max`.
fn bounded_levenshtein(a: &str, b: &str, max: usize) -> Option<usize> {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut cur = vec![i + 1];
        let mut row_min = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            let v = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
            row_min = row_min.min(v);
            cur.push(v);
        }
        if row_min > max {
            return None;
        }
        prev = cur;
    }
    let d = prev[b.len()];
    (d <= max).then_some(d)
}

/// An entity linker over one knowledge graph.
///
/// Construction builds a normalized-name index (canonical names + aliases);
/// linking is then O(1) per distinct surface form.
#[derive(Debug)]
pub struct EntityLinker {
    index: HashMap<String, Vec<EntityId>>,
}

impl EntityLinker {
    /// Builds the linker index from a graph.
    pub fn new(kg: &KnowledgeGraph) -> Self {
        let mut index: HashMap<String, Vec<EntityId>> = HashMap::new();
        for id in kg.entity_ids() {
            let e = kg.entity(id);
            let mut push = |name: &str| {
                let key = normalize(name);
                if key.is_empty() {
                    return;
                }
                let v = index.entry(key).or_default();
                if !v.contains(&id) {
                    v.push(id);
                }
            };
            push(&e.name);
            for a in &e.aliases {
                push(a);
            }
        }
        EntityLinker { index }
    }

    /// Links one surface form.
    pub fn link(&self, surface: &str) -> LinkOutcome {
        match self.index.get(&normalize(surface)) {
            None => LinkOutcome::NotFound,
            Some(ids) if ids.len() == 1 => LinkOutcome::Linked(ids[0]),
            Some(_) => LinkOutcome::Ambiguous,
        }
    }

    /// Links one surface form, falling back to fuzzy matching (edit
    /// distance ≤ `max_distance` over normalized forms) when the exact
    /// lookup finds nothing. A fuzzy match is accepted only when exactly
    /// one entity sits at the minimum distance — two equally-near entities
    /// are as ambiguous as a shared alias.
    pub fn link_fuzzy(&self, surface: &str, max_distance: usize) -> LinkOutcome {
        match self.link(surface) {
            LinkOutcome::NotFound => {}
            exact => return exact,
        }
        let needle = normalize(surface);
        if needle.is_empty() {
            return LinkOutcome::NotFound;
        }
        let mut best = usize::MAX;
        let mut hits: Vec<EntityId> = Vec::new();
        for (key, ids) in &self.index {
            // Cheap length bound before the DP.
            if key.len().abs_diff(needle.len()) > max_distance {
                continue;
            }
            let d = bounded_levenshtein(&needle, key, max_distance);
            let Some(d) = d else { continue };
            match d.cmp(&best) {
                std::cmp::Ordering::Less => {
                    best = d;
                    hits = ids.clone();
                }
                std::cmp::Ordering::Equal => hits.extend(ids.iter().copied()),
                std::cmp::Ordering::Greater => {}
            }
        }
        hits.dedup();
        match hits.len() {
            0 => LinkOutcome::NotFound,
            1 => LinkOutcome::Linked(hits[0]),
            _ => LinkOutcome::Ambiguous,
        }
    }

    /// Links a column once per dictionary entry.
    ///
    /// One pass over the rows (on `pool`, in chunks merged in chunk
    /// order) counts the valid rows of each entry and records the entries'
    /// first-seen order; each entry is then resolved once and
    /// [`LinkStats`] comes from the counts. Non-Utf8 columns are not
    /// linkable (the paper only links non-numerical values): every row
    /// counts as null.
    pub fn link_dictionary(&self, col: &Column, pool: &ThreadPool) -> DictionaryLinks {
        let ColumnData::Utf8(arr) = col.data() else {
            return DictionaryLinks {
                entries: Vec::new(),
                first_seen: Vec::new(),
                stats: LinkStats {
                    null: col.len(),
                    ..LinkStats::default()
                },
            };
        };
        let tally = col.dict_tally(pool).expect("Utf8 columns have a tally");
        let mut stats = LinkStats {
            null: col.null_count(),
            ..LinkStats::default()
        };
        let entries = arr
            .dict()
            .iter()
            .zip(&tally.counts)
            .map(|(surface, &rows)| {
                let rows = rows as usize;
                match self.link(surface) {
                    LinkOutcome::Linked(id) => {
                        stats.linked += rows;
                        return Some(id);
                    }
                    LinkOutcome::NotFound => stats.not_found += rows,
                    LinkOutcome::Ambiguous => stats.ambiguous += rows,
                }
                None
            })
            .collect();
        DictionaryLinks {
            entries,
            first_seen: tally.first_seen,
            stats,
        }
    }

    /// Links every row of a string column: the per-row expansion of
    /// [`EntityLinker::link_dictionary`].
    ///
    /// Returns per-row links (`None` for null / not-found / ambiguous rows)
    /// and aggregate statistics.
    pub fn link_column(&self, col: &Column) -> (Vec<Option<EntityId>>, LinkStats) {
        let links = self.link_dictionary(col, &ThreadPool::default());
        let rows = match col.data() {
            ColumnData::Utf8(arr) => (0..col.len())
                .map(|i| {
                    if col.is_null(i) {
                        None
                    } else {
                        links.entries[arr.codes()[i] as usize]
                    }
                })
                .collect(),
            _ => vec![None; col.len()],
        };
        (rows, links.stats)
    }
}

/// A column linked per dictionary entry (see
/// [`EntityLinker::link_dictionary`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DictionaryLinks {
    /// `entries[c]` is the entity dictionary entry `c` resolves to, `None`
    /// when it is not found or ambiguous. Empty for non-Utf8 columns.
    pub entries: Vec<Option<EntityId>>,
    /// The dictionary entries held by valid rows, in order of their first
    /// valid row.
    pub first_seen: Vec<u32>,
    /// Row-level linking statistics.
    pub stats: LinkStats,
}

impl DictionaryLinks {
    /// The distinct linked entities in order of their first row.
    ///
    /// An entity first appears at the first row of the earliest entry that
    /// links to it, so mapping the entries' first-seen order through the
    /// links and keeping each entity's first occurrence gives per-row
    /// first-appearance order, aliases included.
    pub fn entities(&self) -> Vec<EntityId> {
        let mut seen = HashSet::new();
        self.first_seen
            .iter()
            .filter_map(|&c| self.entries[c as usize])
            .filter(|&id| seen.insert(id))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> KnowledgeGraph {
        let mut kg = KnowledgeGraph::new();
        let ru = kg.add_entity("Russia", "Country");
        kg.add_alias(ru, "Russian Federation");
        kg.add_entity("United States", "Country");
        // Two "Ronaldo"s -> ambiguity.
        let r1 = kg.add_entity("Ronaldo Luís Nazário de Lima", "Person");
        kg.add_alias(r1, "Ronaldo");
        let r2 = kg.add_entity("Cristiano Ronaldo", "Person");
        kg.add_alias(r2, "Ronaldo");
        kg
    }

    #[test]
    fn normalize_forms() {
        assert_eq!(normalize("  Russian   Federation "), "russian federation");
        assert_eq!(normalize("U.S.A."), "u s a");
        assert_eq!(normalize("CÔTE-D'IVOIRE"), "côte d ivoire");
        assert_eq!(normalize(""), "");
        assert_eq!(normalize("---"), "");
    }

    #[test]
    fn canonical_and_alias_link() {
        let kg = toy();
        let linker = EntityLinker::new(&kg);
        assert_eq!(linker.link("Russia"), LinkOutcome::Linked(0));
        assert_eq!(linker.link("russian federation"), LinkOutcome::Linked(0));
        assert_eq!(linker.link("RUSSIA"), LinkOutcome::Linked(0));
        assert_eq!(linker.link("Atlantis"), LinkOutcome::NotFound);
    }

    #[test]
    fn ambiguity_declines() {
        let kg = toy();
        let linker = EntityLinker::new(&kg);
        assert_eq!(linker.link("Ronaldo"), LinkOutcome::Ambiguous);
        // Full names still resolve uniquely.
        assert!(matches!(
            linker.link("Cristiano Ronaldo"),
            LinkOutcome::Linked(_)
        ));
    }

    #[test]
    fn link_column_stats() {
        let kg = toy();
        let linker = EntityLinker::new(&kg);
        let col = Column::from_opt_strs(&[
            Some("Russia"),
            Some("Russian Federation"),
            Some("Ronaldo"),
            Some("Narnia"),
            None,
        ]);
        let (links, stats) = linker.link_column(&col);
        assert_eq!(links[0], Some(0));
        assert_eq!(links[1], Some(0));
        assert_eq!(links[2], None);
        assert_eq!(links[3], None);
        assert_eq!(links[4], None);
        assert_eq!(
            stats,
            LinkStats {
                linked: 2,
                not_found: 1,
                ambiguous: 1,
                null: 1
            }
        );
        assert!((stats.link_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn dictionary_links_order_entities_by_first_row() {
        let kg = toy();
        let linker = EntityLinker::new(&kg);
        // "United States" first appears at row 2, Russia at row 1 through
        // its alias (its canonical entry only at row 3).
        let col = Column::from_opt_strs(&[
            None,
            Some("Russian Federation"),
            Some("United States"),
            Some("Russia"),
            Some("Ronaldo"),
        ]);
        let links = linker.link_dictionary(&col, &ThreadPool::default());
        assert_eq!(links.first_seen, vec![0, 1, 2, 3]);
        assert_eq!(links.entries, vec![Some(0), Some(1), Some(0), None]);
        assert_eq!(links.entities(), vec![0, 1]);
        assert_eq!(
            links.stats,
            LinkStats {
                linked: 3,
                not_found: 0,
                ambiguous: 1,
                null: 1
            }
        );
        assert_eq!(linker.link_column(&col).1, links.stats);
    }

    #[test]
    fn fuzzy_linking_repairs_typos() {
        let kg = toy();
        let linker = EntityLinker::new(&kg);
        // One typo away from "russia".
        assert_eq!(linker.link_fuzzy("Rusia", 1), LinkOutcome::Linked(0));
        assert_eq!(linker.link_fuzzy("Russai", 2), LinkOutcome::Linked(0));
        // Exact matches short-circuit.
        assert_eq!(linker.link_fuzzy("Russia", 1), LinkOutcome::Linked(0));
        // Too far: still not found.
        assert_eq!(linker.link_fuzzy("Atlantis", 1), LinkOutcome::NotFound);
        // Ambiguity propagates through the fuzzy path too.
        assert_eq!(linker.link_fuzzy("Ronaldo", 1), LinkOutcome::Ambiguous);
    }

    #[test]
    fn bounded_levenshtein_basics() {
        assert_eq!(bounded_levenshtein("abc", "abc", 2), Some(0));
        assert_eq!(bounded_levenshtein("abc", "abd", 2), Some(1));
        assert_eq!(bounded_levenshtein("abc", "b", 2), Some(2));
        assert_eq!(bounded_levenshtein("abc", "xyz", 2), None);
        assert_eq!(bounded_levenshtein("", "ab", 2), Some(2));
    }

    #[test]
    fn numeric_column_unlinkable() {
        let kg = toy();
        let linker = EntityLinker::new(&kg);
        let col = Column::from_i64(vec![1, 2]);
        let (links, stats) = linker.link_column(&col);
        assert!(links.iter().all(|l| l.is_none()));
        assert_eq!(stats.link_rate(), 0.0);
        let dict = linker.link_dictionary(&col, &ThreadPool::default());
        assert!(dict.entities().is_empty());
        assert_eq!(dict.stats.null, 2);
    }

    #[test]
    fn all_null_text_column_links_nothing() {
        // An all-null text column has an empty dictionary.
        let kg = toy();
        let linker = EntityLinker::new(&kg);
        let col = Column::from_opt_strs(&[None::<&str>; 3]);
        for threads in [1, 2] {
            let pool = ThreadPool::new(nexus_runtime::Parallelism::Fixed(threads));
            let dict = linker.link_dictionary(&col, &pool);
            assert!(dict.entries.is_empty() && dict.first_seen.is_empty());
            assert!(dict.entities().is_empty());
            assert_eq!(dict.stats.null, 3);
            assert_eq!(
                dict.stats.linked + dict.stats.not_found + dict.stats.ambiguous,
                0
            );
        }
        let (links, stats) = linker.link_column(&col);
        assert_eq!(links, vec![None; 3]);
        assert_eq!(stats.null, 3);
    }
}
