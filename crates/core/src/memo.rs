//! Sub-query memoization with single-flight admission.
//!
//! The server's result cache only hits on byte-identical full requests,
//! but different requests over the same dataset keep rebuilding the same
//! fine-grained units: per-column joint-count contingency tables,
//! marginal entropy/CMI terms, KG extraction columns, and every
//! per-candidate value the engine derives from them. [`MemoStore`] pushes
//! the fingerprint-LRU discipline below the request level and caches
//! those units directly. It is the engine's only cache: a served run uses
//! the server's store, and any other run gets a private one.
//!
//! # Key schema
//!
//! A [`MemoKey`] is `(kind, dataset_fp, set_fp, weights_fp, name)`:
//!
//! * `kind` — what the value is ([`MemoKind`]); keys of different kinds
//!   never alias even when the fingerprints agree.
//! * `dataset_fp` — the *content* fingerprint of the dataset (table, KG,
//!   and extraction-column names), so reloading the same bytes reuses
//!   entries and any content change misses.
//! * `set_fp` — the candidate-set fingerprint: the context mask's actual
//!   words (not its popcount — two masks selecting the same number of
//!   rows but different rows must not alias), plus the outcome and
//!   exposure codes with their validity.
//! * `weights_fp` — the fingerprint of whatever else the value depends
//!   on (see the table below; `0` when nothing).
//! * `name` — the column / term / candidate name, kept as a string so
//!   distinct names can never hash-collide into one entry.
//!
//! What each kind puts in the last three slots:
//!
//! | kind | `set_fp` | `weights_fp` | `name` |
//! |---|---|---|---|
//! | `Contingency` | set | `0` | extraction column |
//! | `CmiTerm` | set | `0` | `"baseline"` |
//! | `Extraction` | options fingerprint | `0` | extraction column |
//! | `Stats`, `Calibrated` | set | candidate content + IPW weights | candidate |
//! | `MiPair` | set | both candidates' content | both names, in call order |
//! | `IpwWeights` | set | candidate content + covariate maps | candidate |
//!
//! A candidate's *content* is `(column, map)` for an entity-level
//! candidate. A row-level candidate's codes are its named base column
//! binned over the set's context rows, so its content is the binnings the
//! set was built with. `Calibrated` needs the name as well as the content:
//! its permutation null is seeded from the name. `MiPair` keeps the call
//! order because the MI fold's f64 sums depend on the orientation. The
//! IPW weights' `set_fp` stands for the column's in-context row mass they
//! are normalized by.
//!
//! Only `Extraction` uses [`NexusOptions::fingerprint`]: extraction runs
//! before any query and depends on options only. The other kinds key on
//! the values an option produces (a mask, a map, chosen covariates), never
//! on the options themselves. The options fingerprint also hashes fields
//! that change no memoized value, `max_explanation_size` among them, so
//! keying on it would make every request with a new `top_k` miss.
//!
//! A private store holds one engine's values only, so its keys carry `0`
//! for the dataset and the set, and no fingerprint pass over the table or
//! the set is needed.
//!
//! [`NexusOptions::fingerprint`]: crate::NexusOptions::fingerprint
//!
//! # Single-flight protocol
//!
//! Lookups go through [`MemoStore::claim`]: the first requester of a
//! missing key becomes the *builder* (it receives a [`BuildTicket`] and
//! computes the value exactly once); concurrent requesters of the same
//! key get [`Claim::Wait`] and park on a condvar via [`MemoStore::wait`]
//! instead of duplicating pool tasks — each such park is counted as a
//! `memo.coalesced_waits`. A builder that drops its ticket without
//! publishing (panic, abort) wakes the waiters and one of them is
//! elected the new builder, so a failed build never wedges the key.
//!
//! # Budget
//!
//! Published values are byte-accounted against a configurable budget
//! (`max_bytes`, `0` = unbounded). Enforcement evicts least-recently-used
//! entries, but never the entry just published and never an entry whose
//! key is *pinned* — i.e. has a live in-flight record because a builder
//! ticket is still open or waiters are still draining.
//!
//! # Counts
//!
//! Each store counts its own traffic under its state lock — per-kind
//! hits/misses/inserts/evictions plus coalesced waits — and
//! [`MemoStore::counts`] copies them out. Two stores in one process never
//! see each other's counts, and memo effectiveness is asserted the same
//! way as every kernel gain: with counters, never wall-clock.

use std::any::Any;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

use nexus_table::{Bitmap, Codes, Fnv64};

/// Number of [`MemoKind`] values (the dimension of [`MemoCounts`]' arrays).
const KINDS: usize = 7;

/// What kind of sub-query value a memo entry caches. Doubles as the index
/// into the per-kind arrays of [`MemoCounts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum MemoKind {
    /// A per-column joint-count contingency table.
    Contingency = 0,
    /// A marginal entropy / conditional-mutual-information term.
    CmiTerm = 1,
    /// A KG extraction column (row→entity codes + candidates).
    Extraction = 2,
    /// One candidate's entropy statistics (`CandStats`).
    Stats = 3,
    /// One candidate's permutation-calibrated `I(O;T|C,E)`.
    Calibrated = 4,
    /// The redundancy term `I(Eᵢ;Eⱼ)` of an ordered candidate pair.
    MiPair = 5,
    /// One flagged candidate's entity-level IPW weight vector.
    IpwWeights = 6,
}

impl MemoKind {
    /// All kinds, in counter-array index order.
    pub const ALL: [MemoKind; KINDS] = [
        MemoKind::Contingency,
        MemoKind::CmiTerm,
        MemoKind::Extraction,
        MemoKind::Stats,
        MemoKind::Calibrated,
        MemoKind::MiPair,
        MemoKind::IpwWeights,
    ];

    /// A stable lowercase label (used in dotted metric names).
    pub fn label(self) -> &'static str {
        match self {
            MemoKind::Contingency => "contingency",
            MemoKind::CmiTerm => "cmi_term",
            MemoKind::Extraction => "extraction",
            MemoKind::Stats => "stats",
            MemoKind::Calibrated => "calibrated",
            MemoKind::MiPair => "mi_pair",
            MemoKind::IpwWeights => "ipw_weights",
        }
    }
}

/// A store's traffic since its creation, per [`MemoKind`] (index with
/// `kind as usize`). Copied out by [`MemoStore::counts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoCounts {
    /// Lookups that found a published entry.
    pub hits: [u64; KINDS],
    /// Lookups that found nothing (the caller became the builder or a
    /// coalesced waiter).
    pub misses: [u64; KINDS],
    /// Values published.
    pub inserts: [u64; KINDS],
    /// Entries evicted by budget enforcement.
    pub evictions: [u64; KINDS],
    /// Lookups that blocked on another request's in-flight build instead
    /// of duplicating it.
    pub coalesced_waits: u64,
}

/// A type-erased memoized value. Values are immutable once published and
/// shared by `Arc`, so a hit is a pointer clone, never a recompute.
pub type MemoValue = Arc<dyn Any + Send + Sync>;

/// The composite key of one memo entry. See the module docs for the
/// schema and the aliasing guarantees of each component.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MemoKey {
    /// What kind of value this key names.
    pub kind: MemoKind,
    /// Dataset content fingerprint (table + KG + extraction columns).
    pub dataset_fp: u64,
    /// Candidate-set fingerprint (mask words + O/T codes), or the
    /// options fingerprint for extraction entries.
    pub set_fp: u64,
    /// Fingerprint of the value's other inputs: candidate content,
    /// weights, covariates (0 = none; see the module docs).
    pub weights_fp: u64,
    /// Column / term / candidate name (kept verbatim: names never
    /// hash-collide).
    pub name: String,
}

impl MemoKey {
    /// A key for a per-column unit of a candidate set.
    pub fn new(
        kind: MemoKind,
        dataset_fp: u64,
        set_fp: u64,
        weights_fp: u64,
        name: impl Into<String>,
    ) -> MemoKey {
        MemoKey {
            kind,
            dataset_fp,
            set_fp,
            weights_fp,
            name: name.into(),
        }
    }
}

/// Content fingerprint of dense categorical codes: every per-row code,
/// the cardinality, and the validity bitmap (present/absent included).
pub fn codes_fingerprint(codes: &Codes) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(codes.codes.len() as u64);
    for &c in &codes.codes {
        h.write_u32(c);
    }
    h.write_u32(codes.cardinality);
    match &codes.validity {
        None => h.write_u8(0),
        Some(v) => {
            h.write_u8(1);
            v.fingerprint_into(&mut h);
        }
    }
    h.finish()
}

/// The candidate-set fingerprint shared by every per-set memo entry: the
/// context mask's actual words plus the outcome and exposure codes.
pub fn set_fingerprint(mask: &Bitmap, o: &Codes, t: &Codes) -> u64 {
    let mut h = Fnv64::new();
    mask.fingerprint_into(&mut h);
    h.write_u64(codes_fingerprint(o));
    h.write_u64(codes_fingerprint(t));
    h.finish()
}

/// Fingerprint of an IPW weight vector (bit-exact over the f64s).
pub fn weights_fingerprint(weights: &[f64]) -> u64 {
    words_fingerprint(weights.len(), weights.iter().map(|w| w.to_bits()))
}

/// Fingerprint of an entity-level candidate map (every code, in order).
pub(crate) fn map_fingerprint(map: &[u32]) -> u64 {
    let words = map
        .chunks(2)
        .map(|pair| pair.iter().fold(0u64, |w, &c| w << 32 | c as u64));
    words_fingerprint(map.len(), words)
}

/// A digest of `len` and `words` for key material the engine hashes on
/// every lookup (candidate maps, IPW weights): one multiply and one
/// shift per 64-bit word, where byte-wise FNV-1a spends eight multiplies
/// (an 8× cost on a 320-entity map). Each step is a bijection of the
/// state, so inputs of one length that differ in one word never collide.
fn words_fingerprint(len: usize, words: impl Iterator<Item = u64>) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = (len as u64).wrapping_mul(K);
    for w in words {
        let x = (h ^ w).wrapping_mul(K);
        h = x ^ (x >> 32);
    }
    h
}

/// One published entry.
struct Entry {
    value: MemoValue,
    bytes: u64,
    last_used: u64,
}

/// The in-flight record of a key being built or drained. Its existence
/// pins the key against eviction.
struct Inflight {
    /// A [`BuildTicket`] is open for this key.
    builder_live: bool,
    /// Parked [`MemoStore::wait`] calls still to drain.
    waiters: usize,
}

struct State {
    map: HashMap<MemoKey, Entry>,
    inflight: HashMap<MemoKey, Inflight>,
    /// Logical LRU clock (bumped on insert and on every hit).
    clock: u64,
    resident_bytes: u64,
    counts: MemoCounts,
}

/// The byte-budgeted, single-flight sub-query memo store.
pub struct MemoStore {
    state: Mutex<State>,
    cond: Condvar,
    max_bytes: u64,
}

impl std::fmt::Debug for MemoStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.state.lock().expect("memo state");
        f.debug_struct("MemoStore")
            .field("entries", &s.map.len())
            .field("resident_bytes", &s.resident_bytes)
            .field("inflight", &s.inflight.len())
            .field("max_bytes", &self.max_bytes)
            .finish()
    }
}

/// The outcome of a [`MemoStore::claim`].
pub enum Claim<'a> {
    /// The value is published; here is a shared handle.
    Hit(MemoValue),
    /// The caller is the builder: compute the value and publish it
    /// through the ticket (or drop the ticket to abandon).
    Build(BuildTicket<'a>),
    /// Another request is building this key; call [`MemoStore::wait`].
    Wait,
}

/// The outcome of a [`MemoStore::wait`].
pub enum WaitOutcome<'a> {
    /// The builder published; here is the value.
    Ready(MemoValue),
    /// The builder abandoned and this waiter was elected the new builder.
    Build(BuildTicket<'a>),
}

/// Exclusive permission to build one key. Publish exactly once via
/// [`BuildTicket::publish`]; dropping without publishing abandons the
/// build and wakes the waiters so one of them takes over. The key stays
/// pinned against eviction for as long as the ticket is open.
pub struct BuildTicket<'a> {
    store: &'a MemoStore,
    key: MemoKey,
    published: bool,
}

impl<'a> BuildTicket<'a> {
    /// The key this ticket builds.
    pub fn key(&self) -> &MemoKey {
        &self.key
    }

    /// Publishes the built value (accounted as `bytes` against the
    /// budget) and wakes every waiter. Consumes the ticket; the pin is
    /// released once the waiters have drained.
    pub fn publish(mut self, value: MemoValue, bytes: u64) {
        let mut s = self.store.state.lock().expect("memo state");
        s.clock += 1;
        let stamp = s.clock;
        s.resident_bytes += bytes;
        s.map.insert(
            self.key.clone(),
            Entry {
                value,
                bytes,
                last_used: stamp,
            },
        );
        s.counts.inserts[self.key.kind as usize] += 1;
        self.published = true;
        // The ticket's own in-flight record still pins the key, so
        // enforcement here can evict anything LRU *except* this entry
        // and other pinned keys.
        self.store.enforce_budget(&mut s);
        release_flight(&mut s, &self.key, |rec| rec.builder_live = false);
        drop(s);
        self.store.cond.notify_all();
    }
}

impl Drop for BuildTicket<'_> {
    fn drop(&mut self) {
        if self.published {
            return;
        }
        // Abandoned build (panic or early return): clear the builder
        // flag and wake the waiters so one of them is elected builder.
        let mut s = self.store.state.lock().expect("memo state");
        release_flight(&mut s, &self.key, |rec| rec.builder_live = false);
        drop(s);
        self.store.cond.notify_all();
    }
}

/// Applies `f` to the key's in-flight record, then removes the record if
/// it no longer pins anything (no builder, no waiters).
fn release_flight(s: &mut State, key: &MemoKey, f: impl FnOnce(&mut Inflight)) {
    if let Some(rec) = s.inflight.get_mut(key) {
        f(rec);
        if !rec.builder_live && rec.waiters == 0 {
            s.inflight.remove(key);
        }
    }
}

impl MemoStore {
    /// A store with a byte budget (`0` = unbounded).
    pub fn new(max_bytes: u64) -> MemoStore {
        MemoStore {
            state: Mutex::new(State {
                map: HashMap::new(),
                inflight: HashMap::new(),
                clock: 0,
                resident_bytes: 0,
                counts: MemoCounts::default(),
            }),
            cond: Condvar::new(),
            max_bytes,
        }
    }

    /// The configured byte budget (`0` = unbounded).
    pub fn max_bytes(&self) -> u64 {
        self.max_bytes
    }

    /// Bytes currently accounted to published entries.
    pub fn resident_bytes(&self) -> u64 {
        self.state.lock().expect("memo state").resident_bytes
    }

    /// Number of published entries.
    pub fn resident_entries(&self) -> usize {
        self.state.lock().expect("memo state").map.len()
    }

    /// This store's traffic so far, copied under its lock.
    pub fn counts(&self) -> MemoCounts {
        self.state.lock().expect("memo state").counts
    }

    /// Claims `key`: a published value, a build ticket, or an order to
    /// wait on the in-flight builder. Never blocks.
    pub fn claim(&self, key: &MemoKey) -> Claim<'_> {
        let mut s = self.state.lock().expect("memo state");
        s.clock += 1;
        let stamp = s.clock;
        if let Some(entry) = s.map.get_mut(key) {
            entry.last_used = stamp;
            let value = entry.value.clone();
            s.counts.hits[key.kind as usize] += 1;
            return Claim::Hit(value);
        }
        s.counts.misses[key.kind as usize] += 1;
        if let Some(rec) = s.inflight.get_mut(key) {
            rec.waiters += 1;
            s.counts.coalesced_waits += 1;
            return Claim::Wait;
        }
        s.inflight.insert(
            key.clone(),
            Inflight {
                builder_live: true,
                waiters: 0,
            },
        );
        Claim::Build(BuildTicket {
            store: self,
            key: key.clone(),
            published: false,
        })
    }

    /// Blocks until the in-flight build of `key` resolves. Must be called
    /// exactly once after a [`Claim::Wait`] (the wait was registered at
    /// claim time). Returns the published value — or a build ticket when
    /// the original builder abandoned and this waiter takes over.
    pub fn wait(&self, key: &MemoKey) -> WaitOutcome<'_> {
        let mut s = self.state.lock().expect("memo state");
        loop {
            if s.map.contains_key(key) {
                s.clock += 1;
                let stamp = s.clock;
                let entry = s.map.get_mut(key).expect("entry just seen");
                entry.last_used = stamp;
                let value = entry.value.clone();
                release_flight(&mut s, key, |rec| rec.waiters -= 1);
                return WaitOutcome::Ready(value);
            }
            match s.inflight.get_mut(key) {
                Some(rec) if rec.builder_live => {
                    s = self.cond.wait(s).expect("memo state");
                }
                Some(rec) => {
                    // Builder abandoned: this waiter becomes the builder.
                    rec.builder_live = true;
                    rec.waiters -= 1;
                    return WaitOutcome::Build(BuildTicket {
                        store: self,
                        key: key.clone(),
                        published: false,
                    });
                }
                None => {
                    // The record vanished (value published and evicted
                    // again before this waiter ran): start over as a
                    // fresh builder.
                    s.inflight.insert(
                        key.clone(),
                        Inflight {
                            builder_live: true,
                            waiters: 0,
                        },
                    );
                    return WaitOutcome::Build(BuildTicket {
                        store: self,
                        key: key.clone(),
                        published: false,
                    });
                }
            }
        }
    }

    /// Single-flight get-or-build of one typed value. `build` runs at
    /// most once per key across all concurrent callers; everyone gets
    /// the same `Arc`.
    pub fn get_or_build<T, F>(&self, key: &MemoKey, build: F) -> Arc<T>
    where
        T: Any + Send + Sync,
        F: FnOnce() -> (Arc<T>, u64),
    {
        let mut claim = self.claim(key);
        loop {
            match claim {
                Claim::Hit(value) => {
                    return value.downcast::<T>().expect("memo value type mismatch")
                }
                Claim::Build(ticket) => {
                    let (value, bytes) = build();
                    ticket.publish(value.clone(), bytes);
                    return value;
                }
                Claim::Wait => match self.wait(key) {
                    WaitOutcome::Ready(value) => {
                        return value.downcast::<T>().expect("memo value type mismatch")
                    }
                    WaitOutcome::Build(ticket) => {
                        claim = Claim::Build(ticket);
                    }
                },
            }
        }
    }

    /// Non-counting lookup for diagnostics and tests: no LRU bump, no
    /// hit/miss counters.
    pub fn peek<T: Any + Send + Sync>(&self, key: &MemoKey) -> Option<Arc<T>> {
        let s = self.state.lock().expect("memo state");
        s.map
            .get(key)
            .map(|e| e.value.clone().downcast::<T>().expect("memo value type"))
    }

    /// Evicts least-recently-used entries until the budget holds,
    /// skipping pinned keys (live in-flight records). May leave the
    /// store over budget when everything left is pinned.
    fn enforce_budget(&self, s: &mut State) {
        if self.max_bytes == 0 {
            return;
        }
        while s.resident_bytes > self.max_bytes {
            let victim = s
                .map
                .iter()
                .filter(|(k, _)| !s.inflight.contains_key(k))
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            match victim {
                Some(key) => {
                    if let Some(entry) = s.map.remove(&key) {
                        s.resident_bytes -= entry.bytes;
                        s.counts.evictions[key.kind as usize] += 1;
                    }
                }
                None => break,
            }
        }
    }
}

/// A shareable memo handle: the store plus the dataset fingerprint every
/// key under this handle is scoped to. This is what the serve layer
/// threads through [`RunControl`](crate::RunControl).
#[derive(Debug, Clone)]
pub struct MemoHandle {
    /// The shared store.
    pub store: Arc<MemoStore>,
    /// Content fingerprint of the dataset requests run against.
    pub dataset_fp: u64,
}

impl MemoHandle {
    /// A handle scoping `store` to the dataset with fingerprint
    /// `dataset_fp`.
    pub fn new(store: Arc<MemoStore>, dataset_fp: u64) -> MemoHandle {
        MemoHandle { store, dataset_fp }
    }

    /// A fresh unbounded store that one engine owns alone. Nothing else
    /// shares it, so its keys need no dataset or set fingerprint: both
    /// are `0`.
    pub(crate) fn private() -> MemoHandle {
        MemoHandle::new(Arc::new(MemoStore::new(0)), 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn key(name: &str) -> MemoKey {
        MemoKey::new(MemoKind::Contingency, 1, 2, 0, name)
    }

    fn put(store: &MemoStore, name: &str, v: u64, bytes: u64) -> Arc<u64> {
        store.get_or_build(&key(name), || (Arc::new(v), bytes))
    }

    #[test]
    fn get_or_build_roundtrip_and_hit() {
        let store = MemoStore::new(0);
        let a = put(&store, "a", 41, 10);
        assert_eq!(*a, 41);
        let again = put(&store, "a", 99, 10); // builder must not run
        assert_eq!(*again, 41);
        assert!(Arc::ptr_eq(&a, &again));
        let c = store.counts();
        assert_eq!(c.hits[MemoKind::Contingency as usize], 1);
        assert_eq!(c.misses[MemoKind::Contingency as usize], 1);
        assert_eq!(c.inserts[MemoKind::Contingency as usize], 1);
        assert_eq!(store.resident_entries(), 1);
        assert_eq!(store.resident_bytes(), 10);
    }

    #[test]
    fn distinct_names_and_fingerprints_never_alias() {
        let store = MemoStore::new(0);
        put(&store, "a", 1, 8);
        put(&store, "b", 2, 8);
        let other_set = MemoKey {
            set_fp: 3,
            ..key("a")
        };
        store.get_or_build(&other_set, || (Arc::new(7u64), 8));
        assert_eq!(*store.peek::<u64>(&key("a")).unwrap(), 1);
        assert_eq!(*store.peek::<u64>(&key("b")).unwrap(), 2);
        assert_eq!(*store.peek::<u64>(&other_set).unwrap(), 7);
    }

    #[test]
    fn equal_popcount_masks_do_not_alias() {
        // The collision-safety satellite: two masks selecting the same
        // *number* of rows but different rows must produce different set
        // fingerprints, hence different memo entries.
        let o = Codes {
            codes: vec![0; 128],
            cardinality: 1,
            validity: None,
        };
        let t = o.clone();
        let low: Bitmap = (0..128).map(|i| i < 10).collect();
        let high: Bitmap = (0..128).map(|i| i >= 118).collect();
        assert_eq!(low.count_ones(), high.count_ones());
        let fp_low = set_fingerprint(&low, &o, &t);
        let fp_high = set_fingerprint(&high, &o, &t);
        assert_ne!(fp_low, fp_high);

        let store = MemoStore::new(0);
        let k_low = MemoKey::new(MemoKind::Contingency, 1, fp_low, 0, "col");
        let k_high = MemoKey::new(MemoKind::Contingency, 1, fp_high, 0, "col");
        store.get_or_build(&k_low, || (Arc::new(10u64), 8));
        store.get_or_build(&k_high, || (Arc::new(118u64), 8));
        assert_eq!(*store.peek::<u64>(&k_low).unwrap(), 10);
        assert_eq!(*store.peek::<u64>(&k_high).unwrap(), 118);
    }

    #[test]
    fn budget_evicts_lru_but_never_pinned_entries() {
        let store = MemoStore::new(150);
        let a = key("a");
        let ticket = match store.claim(&a) {
            Claim::Build(t) => t,
            _ => panic!("fresh key must be a build claim"),
        };
        ticket.publish(Arc::new(1u64), 60);
        assert_eq!(store.resident_entries(), 1);

        // Open a build ticket for "p" and keep it open while other
        // inserts push the store over budget: "p" publishes under its
        // own live in-flight record, so it is pinned when enforcement
        // runs at its publish.
        let p = key("p");
        let p_ticket = match store.claim(&p) {
            Claim::Build(t) => t,
            _ => panic!("fresh key must be a build claim"),
        };
        // Publish B and C, exceeding the budget (60+60+60 > 150): LRU
        // eviction must pick "a" (oldest, unpinned) and must never touch
        // the in-flight "p" record.
        put(&store, "b", 2, 60);
        put(&store, "c", 3, 60);
        assert!(store.peek::<u64>(&key("a")).is_none(), "a was LRU");
        assert!(store.peek::<u64>(&key("b")).is_some());
        assert!(store.peek::<u64>(&key("c")).is_some());

        // Now publish "p" (60 bytes): over budget again, but "p" is
        // pinned by its own still-open in-flight record, so enforcement
        // evicts "b" (now the LRU) and keeps "p".
        p_ticket.publish(Arc::new(4u64), 60);
        assert!(store.peek::<u64>(&p).is_some(), "pinned entry survived");
        assert!(
            store.peek::<u64>(&key("b")).is_none(),
            "unpinned LRU evicted instead"
        );
        assert!(store.peek::<u64>(&key("c")).is_some());
        assert!(store.resident_bytes() <= 150);
    }

    #[test]
    fn pinned_entries_exempt_even_when_over_budget() {
        // Budget so small nothing fits: a published-under-pin entry must
        // survive its own enforcement pass, and the store may sit over
        // budget rather than evict a pinned key.
        let store = MemoStore::new(10);
        let a = key("a");
        let ticket = match store.claim(&a) {
            Claim::Build(t) => t,
            _ => panic!("fresh key"),
        };
        // Register a waiter so the in-flight record outlives the publish
        // (waiters drain only through wait()).
        match store.claim(&a) {
            Claim::Wait => {}
            _ => panic!("second claim must coalesce"),
        }
        ticket.publish(Arc::new(1u64), 100);
        // Pinned by the undrained waiter: still resident despite 100 > 10.
        assert!(store.peek::<u64>(&a).is_some());
        assert_eq!(store.resident_bytes(), 100);
        // Drain the waiter; the pin clears. The *next* enforcement pass
        // (any publish) may now evict it.
        match store.wait(&a) {
            WaitOutcome::Ready(v) => {
                assert_eq!(*v.downcast::<u64>().unwrap(), 1)
            }
            WaitOutcome::Build(_) => panic!("value was published"),
        }
        put(&store, "b", 2, 4);
        assert!(store.peek::<u64>(&a).is_none(), "unpinned LRU evicted");
    }

    #[test]
    fn abandoned_build_elects_a_waiter() {
        let store = Arc::new(MemoStore::new(0));
        let a = key("a");
        let ticket = match store.claim(&a) {
            Claim::Build(t) => t,
            _ => panic!("fresh key"),
        };
        match store.claim(&a) {
            Claim::Wait => {}
            _ => panic!("second claim must coalesce"),
        }
        let waiter = {
            let store = store.clone();
            let a = a.clone();
            std::thread::spawn(move || match store.wait(&a) {
                WaitOutcome::Ready(_) => panic!("builder abandoned; waiter must take over"),
                WaitOutcome::Build(ticket) => {
                    ticket.publish(Arc::new(7u64), 8);
                }
            })
        };
        drop(ticket); // abandon without publishing
        waiter.join().unwrap();
        assert_eq!(*store.peek::<u64>(&a).unwrap(), 7);
    }

    #[test]
    fn concurrent_get_or_build_runs_builder_once() {
        let store = Arc::new(MemoStore::new(0));
        let builds = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let store = store.clone();
                let builds = builds.clone();
                std::thread::spawn(move || {
                    let k = MemoKey::new(MemoKind::CmiTerm, 9, 9, 0, "baseline");
                    let v = store.get_or_build(&k, || {
                        builds.fetch_add(1, Ordering::SeqCst);
                        // Let the other threads pile onto the in-flight
                        // record before publishing.
                        std::thread::sleep(std::time::Duration::from_millis(30));
                        (Arc::new(1234u64), 8)
                    });
                    assert_eq!(*v, 1234);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(builds.load(Ordering::SeqCst), 1, "single-flight");
        // The store's own counts are exact: one publish, and every lookup
        // either missed (builder or coalesced waiter) or hit.
        let c = store.counts();
        let kind = MemoKind::CmiTerm as usize;
        assert_eq!(c.inserts[kind], 1);
        assert_eq!(c.hits[kind] + c.misses[kind], 8);
        assert_eq!(c.misses[kind], 1 + c.coalesced_waits);
    }

    #[test]
    fn record_memo_counters() {
        let store = MemoStore::new(100);
        let contingency = MemoKind::Contingency as usize;
        let cmi = MemoKind::CmiTerm as usize;
        put(&store, "a", 1, 60);
        put(&store, "a", 1, 60);
        put(&store, "a", 1, 60);
        let b = MemoKey::new(MemoKind::CmiTerm, 1, 2, 0, "b");
        let ticket = match store.claim(&b) {
            Claim::Build(t) => t,
            _ => panic!("fresh key"),
        };
        assert!(matches!(store.claim(&b), Claim::Wait));
        // 60 + 60 > 100: publishing "b" evicts the LRU contingency "a".
        ticket.publish(Arc::new(2u64), 60);
        assert!(matches!(store.wait(&b), WaitOutcome::Ready(_)));
        let c = store.counts();
        assert_eq!(c.hits[contingency], 2);
        assert_eq!(c.misses[contingency], 1);
        assert_eq!(c.inserts[contingency], 1);
        assert_eq!(c.evictions[contingency], 1);
        assert_eq!(c.misses[cmi], 2, "the builder's and the waiter's claims");
        assert_eq!(c.inserts[cmi], 1);
        assert_eq!(c.evictions[cmi], 0);
        assert_eq!(c.coalesced_waits, 1);
        // Diagnostics lookups count nothing.
        let _ = store.peek::<u64>(&b);
        assert_eq!(store.counts(), c);
    }

    #[test]
    fn memo_kind_labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            MemoKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), MemoKind::ALL.len());
        for (i, kind) in MemoKind::ALL.iter().enumerate() {
            assert_eq!(*kind as usize, i, "ALL is in counter-array index order");
        }
    }

    #[test]
    fn stores_count_only_their_own_traffic() {
        let (a, b) = (MemoStore::new(0), MemoStore::new(0));
        put(&a, "x", 1, 8);
        put(&a, "x", 1, 8);
        assert_eq!(b.counts(), MemoCounts::default());
        assert_eq!(a.counts().hits[MemoKind::Contingency as usize], 1);
    }

    #[test]
    fn fingerprints_cover_codes_content() {
        let base = Codes {
            codes: vec![0, 1, 2, 0],
            cardinality: 3,
            validity: None,
        };
        let mut reordered = base.clone();
        reordered.codes.swap(0, 1);
        assert_ne!(codes_fingerprint(&base), codes_fingerprint(&reordered));
        let mut masked = base.clone();
        masked.validity = Some((0..4).map(|i| i != 3).collect());
        assert_ne!(codes_fingerprint(&base), codes_fingerprint(&masked));
        assert_eq!(codes_fingerprint(&base), codes_fingerprint(&base.clone()));
        assert_ne!(
            weights_fingerprint(&[1.0, 2.0]),
            weights_fingerprint(&[2.0, 1.0])
        );
        assert_ne!(weights_fingerprint(&[0.0]), weights_fingerprint(&[-0.0]));
        assert_eq!(weights_fingerprint(&[]), weights_fingerprint(&[]));
        assert_ne!(map_fingerprint(&[1, 2, 3]), map_fingerprint(&[2, 1, 3]));
        assert_ne!(map_fingerprint(&[1, 2, 3]), map_fingerprint(&[1, 2, 4]));
        // An odd tail and a trailing zero code differ by length.
        assert_ne!(map_fingerprint(&[1, 2, 0]), map_fingerprint(&[1, 2]));
        assert_ne!(map_fingerprint(&[0]), map_fingerprint(&[]));
    }
}
