//! The four workloads: what each generates, how a run loads it, and the
//! request budget every client loop runs under.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use nexus_core::{NexusOptions, Parallelism};
use nexus_datagen::flights::{self, FlightsConfig};
use nexus_datagen::synth::{self, SynthConfig};
use nexus_datagen::BENCH_QUERIES;
use nexus_kg::KnowledgeGraph;
use nexus_table::Table;

/// Worker threads of every pipeline run: the 2 cores the benchmark is
/// sized for, fixed so results do not depend on the machine's count.
pub const THREADS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SynRows,
    FlAirline,
    FlWide,
    ServeMix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SynRows,
        Workload::FlAirline,
        Workload::FlWide,
        Workload::ServeMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SynRows => "syn-rows",
            Workload::FlAirline => "fl-airline",
            Workload::FlWide => "fl-wide",
            Workload::ServeMix => "serve-mix",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The query and ground truth of a one-shot workload (`None` for the
    /// served mix, which builds its own requests).
    pub fn one_shot(self) -> Option<OneShot> {
        let bench = |id: &str| {
            let q = BENCH_QUERIES
                .iter()
                .find(|q| q.id == id)
                .expect("benchmark query exists");
            OneShot {
                sql: q.sql,
                ground_truth: q.ground_truth,
            }
        };
        match self {
            // The planted region confounder and its coarse tiering.
            Workload::SynRows => Some(OneShot {
                sql: synth::SYN_Q_MASKED,
                ground_truth: &["Region::capacity index", "Region::tier"],
            }),
            Workload::FlAirline => Some(bench("FL-Q5")),
            Workload::FlWide => Some(bench("FL-Q4")),
            Workload::ServeMix => None,
        }
    }
}

pub struct OneShot {
    pub sql: &'static str,
    pub ground_truth: &'static [&'static str],
}

/// What one child run measures.
pub struct RunSpec {
    pub workload: Workload,
    pub seed: Option<u64>,
    pub seconds: u64,
    pub traced: bool,
    pub quick: bool,
    /// Where result files, span files and the server socket go.
    pub out: PathBuf,
}

impl RunSpec {
    /// The run's budget: `seconds` of requests (at least `min`), or the
    /// fixed `quick` count under `--quick`.
    pub fn budget(&self, min: usize, quick: usize) -> Budget {
        if self.quick {
            Budget::Counted(quick)
        } else {
            Budget::Timed {
                seconds: self.seconds,
                min,
            }
        }
    }
}

/// A run's generated inputs in their serialized forms: the table as NXCOL
/// bytes and the knowledge graph as triple-file text. Generation and
/// serialization happen before any clock starts; loading them back is
/// the set-up every run times.
///
/// Every dataset is a fixed fixture from its generator's own seed. With
/// other generator seeds MCIMR selects other attributes, and the explain
/// cost moves with them by up to 8x (SYN-M1: 0.9 s to 7.8 s), which would
/// bury any code change under seed-to-seed spread; so the run seed drives
/// only the served mix's request sequence.
pub struct Inputs {
    pub table_nxcol: Vec<u8>,
    pub kg_tsv: Vec<u8>,
    pub extraction_columns: Vec<String>,
}

/// Generates `workload`'s inputs. `--quick` shrinks every dataset to toy
/// size: SYN 250k rows, Flights 20k rows (20 cities; the served mix keeps
/// 320 so its four warmed states all have flights).
pub fn generate(workload: Workload, quick: bool) -> Result<Inputs, String> {
    let dataset = match workload {
        Workload::SynRows => synth::generate(&SynthConfig {
            n_rows: if quick { 250_000 } else { 10_000_000 },
            ..SynthConfig::default()
        }),
        Workload::FlAirline | Workload::FlWide | Workload::ServeMix => {
            let (n_rows, n_cities) = match (workload, quick) {
                (Workload::FlWide, _) | (Workload::FlAirline, true) => (20_000, 20),
                (Workload::ServeMix, true) => (20_000, 320),
                _ => (200_000, 320),
            };
            flights::generate(&FlightsConfig {
                n_rows,
                n_cities,
                ..FlightsConfig::default()
            })
        }
    };
    let mut kg_tsv = Vec::new();
    nexus_kg::write_kg(&dataset.kg, &mut kg_tsv).map_err(|e| format!("kg: {e}"))?;
    Ok(Inputs {
        table_nxcol: nexus_store::encode_table(&dataset.table),
        kg_tsv,
        extraction_columns: dataset.extraction_columns,
    })
}

pub struct Loaded {
    pub table: Table,
    pub kg: KnowledgeGraph,
}

/// Loads the inputs back: NXCOL decode, then the triple-file parse.
/// Returns the dataset with each step's seconds.
pub fn load(inputs: &Inputs) -> Result<(Loaded, f64, f64), String> {
    let t = Instant::now();
    let table =
        nexus_store::decode_table(&inputs.table_nxcol).map_err(|e| format!("nxcol: {e}"))?;
    let decode_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let kg = nexus_kg::read_kg(inputs.kg_tsv.as_slice()).map_err(|e| format!("kg: {e}"))?;
    Ok((Loaded { table, kg }, decode_s, t.elapsed().as_secs_f64()))
}

/// Pipeline options of every run: the library defaults on [`THREADS`]
/// workers.
pub fn options() -> NexusOptions {
    NexusOptions::builder()
        .parallelism(Parallelism::Fixed(THREADS))
        .build()
        .expect("default options with a fixed pool are valid")
}

/// How long a client keeps sending: for a fixed time (never fewer than
/// `min` requests), or a fixed count under `--quick`.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    Timed { seconds: u64, min: usize },
    Counted(usize),
}

impl Budget {
    /// Starts the clock.
    pub fn start(self) -> RunningBudget {
        RunningBudget {
            budget: self,
            started: Instant::now(),
        }
    }
}

pub struct RunningBudget {
    budget: Budget,
    started: Instant,
}

impl RunningBudget {
    /// Whether a client that has sent `sent` requests sends another.
    pub fn more(&self, sent: usize) -> bool {
        match self.budget {
            Budget::Timed { seconds, min } => {
                sent < min || self.started.elapsed() < Duration::from_secs(seconds)
            }
            Budget::Counted(n) => sent < n,
        }
    }
}
