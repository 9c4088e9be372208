//! The end-to-end learner: Algorithm 1 of the paper, over one trace, many
//! traces, or a stream.
//!
//! Three entry points share one pipeline:
//!
//! * [`Learner::learn`] — the paper's single in-memory trace;
//! * [`Learner::learn_many`] — a [`TraceSet`] of recorded runs: predicate
//!   windows are extracted *per trace* (never spanning a trace boundary) and
//!   merged into one SAT instance over a shared alphabet;
//! * [`Learner::learn_streamed`] — a [`StreamingCsvReader`]: observations
//!   are consumed in bounded chunks, so only the chunk, the unique-window
//!   set (small, by the paper's key insight) and the predicate-id sequence
//!   stay resident — the raw trace never does.
//!
//! # Parallelism
//!
//! Extraction is parallel, controlled by [`LearnerConfig::num_threads`] and
//! built on `std::thread::scope` only: [`Learner::learn_many`] fans per-shard
//! predicate abstraction and windowing out across a worker pool; workers
//! intern into shard-local alphabets and the results are merged
//! deterministically in input order, so the learned model is
//! *byte-identical* to a sequential run. [`Learner::learn_streamed`] likewise
//! abstracts its distinct observation windows across the pool. The SAT
//! search is sequential: each state count's entry state depends on the
//! forbidden sequences discovered at the counts below it.

use crate::compliance::ComplianceChecker;
use crate::encoding::{AutomatonEncoder, Encoding};
use crate::error::LearnError;
use crate::predicates::{PredId, PredicateAlphabet, PredicateExtractor, WindowAbstractor};
use std::collections::HashMap;
use std::io::BufRead;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use tracelearn_automaton::Nfa;
use tracelearn_expr::Predicate;
use tracelearn_sat::{Limits, SatResult, Solver};
use tracelearn_synth::SynthesisConfig;
use tracelearn_trace::{
    Signature, StreamingCsvReader, SymbolTable, Trace, TraceError, TraceSet, Valuation,
    WindowCollector,
};

/// Smallest calibration sample for streamed learning: enough observations to
/// harvest synthesis constants, detect input variables and score dominant
/// updates even when the caller configures a tiny chunk or sample size.
const MIN_STREAM_CALIBRATION: usize = 4096;

/// Observations per reservoir block (at least the window length): the
/// streamed calibration reservoir samples the stream in contiguous blocks so
/// that observation *pairs and triples* — what calibration actually consumes
/// — survive sampling intact.
const RESERVOIR_BLOCK: usize = 32;

/// Fixed seed of the calibration reservoir's PRNG: sampling is deterministic
/// so repeated runs over the same stream learn the same model.
const RESERVOIR_SEED: u64 = 0xDAC2020;

/// Configuration of the learner (the tunable parameters of Algorithm 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LearnerConfig {
    /// Sliding-window length `w` (for both predicate generation and
    /// segmentation of the predicate sequence). The paper fixes `w = 3`.
    pub window: usize,
    /// Compliance-check path length `l`. The paper uses `l = 2`.
    pub compliance_length: usize,
    /// Number of automaton states to start the search from (the paper starts
    /// at 2, or at the known target size for the Table I timing runs).
    pub initial_states: usize,
    /// Upper bound on the number of automaton states before giving up.
    pub max_states: usize,
    /// Whether to segment the predicate sequence into unique windows
    /// (the paper's scalability mechanism) or to feed the whole sequence to
    /// the solver as one path ("Full Trace" in Table I).
    pub segmented: bool,
    /// Maximum number of compliance-refinement rounds per state count.
    pub max_refinements: usize,
    /// Conflict budget per SAT call; `None` means unlimited.
    pub max_conflicts: Option<u64>,
    /// Upper bound on the (estimated) clause count of a single encoding;
    /// larger instances are reported as budget exhaustion. This is what makes
    /// the non-segmented runs on very long traces "time out" cleanly instead
    /// of exhausting memory.
    pub max_clauses: usize,
    /// Wall-clock budget for the whole learning run; `None` means unlimited.
    pub time_budget: Option<Duration>,
    /// Configuration of the predicate synthesiser.
    pub synthesis: SynthesisConfig,
    /// Names of variables to treat as unconstrained inputs (no update atoms),
    /// in addition to the automatically detected ones.
    pub input_variables: Vec<String>,
    /// Number of observations [`Learner::learn_streamed`] reads per chunk —
    /// the bound on the resident raw-observation count of the streaming
    /// sweep (plus a `w − 1` overlap carry and the calibration reservoir,
    /// see [`calibration_sample`](LearnerConfig::calibration_sample)).
    pub stream_chunk: usize,
    /// Worker threads for predicate extraction: the per-shard fan-out of
    /// [`Learner::learn_many`] and the distinct-window abstraction of
    /// [`Learner::learn_streamed`]. The SAT search always runs on the
    /// calling thread. `0` (the default) means "use the machine's available
    /// parallelism"; `1` disables threading. Learned models are
    /// byte-identical across thread counts (only
    /// [`threads_used`](LearnStats::threads_used) and the wall times in
    /// [`LearnStats`] differ), so this is purely a wall-clock knob.
    pub num_threads: usize,
    /// Upper bound on the observations [`Learner::learn_streamed`] retains
    /// for calibration. The calibration reservoir samples contiguous blocks
    /// uniformly over the **whole** stream (not just a prefix), so
    /// integer-heavy traces whose behaviour changes late still calibrate
    /// correctly; streams that fit entirely within the sample are calibrated
    /// exactly like the in-memory path. The effective bound is at least
    /// `max(stream_chunk, 4096)`.
    pub calibration_sample: usize,
}

impl Default for LearnerConfig {
    fn default() -> Self {
        LearnerConfig {
            window: 3,
            compliance_length: 2,
            initial_states: 2,
            max_states: 16,
            segmented: true,
            max_refinements: 200,
            max_conflicts: Some(2_000_000),
            max_clauses: 40_000_000,
            time_budget: None,
            synthesis: SynthesisConfig::default(),
            input_variables: Vec::new(),
            stream_chunk: 65_536,
            num_threads: 0,
            calibration_sample: 65_536,
        }
    }
}

impl LearnerConfig {
    /// A configuration with segmentation disabled ("Full Trace" mode).
    pub fn non_segmented() -> Self {
        LearnerConfig {
            segmented: false,
            ..LearnerConfig::default()
        }
    }

    /// Sets the sliding-window length `w`.
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window;
        self
    }

    /// Sets the compliance path length `l`.
    pub fn with_compliance_length(mut self, l: usize) -> Self {
        self.compliance_length = l;
        self
    }

    /// Sets the initial number of states for the search.
    pub fn with_initial_states(mut self, n: usize) -> Self {
        self.initial_states = n.max(1);
        self
    }

    /// Sets the wall-clock budget.
    pub fn with_time_budget(mut self, budget: Duration) -> Self {
        self.time_budget = Some(budget);
        self
    }

    /// Declares a variable as an unconstrained input.
    pub fn with_input_variable(mut self, name: impl Into<String>) -> Self {
        self.input_variables.push(name.into());
        self
    }

    /// Sets the streamed-ingestion chunk size (observations per read).
    pub fn with_stream_chunk(mut self, observations: usize) -> Self {
        self.stream_chunk = observations;
        self
    }

    /// Sets the worker-thread count (`0` = available parallelism).
    pub fn with_num_threads(mut self, threads: usize) -> Self {
        self.num_threads = threads;
        self
    }

    /// Sets the streamed-calibration sample bound (observations).
    pub fn with_calibration_sample(mut self, observations: usize) -> Self {
        self.calibration_sample = observations;
        self
    }
}

/// Statistics of a learning run, reported alongside the model.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LearnStats {
    /// Total number of observations across all input traces.
    pub trace_length: usize,
    /// Length of the predicate sequence `P`, summed over traces.
    pub predicate_count: usize,
    /// Number of distinct predicates (alphabet size).
    pub alphabet_size: usize,
    /// Number of windows handed to the solver (after deduplication when
    /// segmentation is on).
    pub solver_windows: usize,
    /// Number of input traces (shards).
    pub shards: usize,
    /// Unique windows *newly contributed* by each shard, in input order:
    /// shard `i`'s count excludes windows already seen in shards `0..i`.
    pub shard_windows: Vec<usize>,
    /// Largest number of raw observations resident at once. Equals
    /// `trace_length` for the in-memory paths; for
    /// [`Learner::learn_streamed`] it counts the rolling chunk buffer, the
    /// calibration reservoir and the interned distinct observation windows
    /// (small by the paper's key insight).
    pub peak_resident_observations: usize,
    /// Number of SAT queries issued by the state-count search.
    pub sat_queries: usize,
    /// Number of solvers constructed by the state-count search: exactly one
    /// per candidate state count tried.
    pub solvers_constructed: usize,
    /// Learnt clauses carried into repeat queries on a reused solver, summed
    /// over all queries after the first at each state count.
    pub reused_learnt_clauses: u64,
    /// Literals the solver's conflict-clause minimization removed from learnt
    /// clauses before attachment, summed over the state-count search.
    pub minimized_literals: u64,
    /// Histogram of learnt-clause LBD ("glue") values over the state-count
    /// search: bucket `i` counts clauses learnt with glue `i + 1`; the last
    /// bucket aggregates glue ≥ [`tracelearn_sat::LBD_BUCKETS`].
    pub lbd_histogram: [u64; tracelearn_sat::LBD_BUCKETS],
    /// Number of compliance-refinement rounds performed.
    pub refinements: usize,
    /// Number of states of the learned automaton.
    pub states: usize,
    /// Worker threads available to this run's extraction (`1` = sequential).
    pub threads_used: usize,
    /// Always 0: the state-count search runs no speculative solves. Kept
    /// because `perfbench` reads it and the persisted `Model` format
    /// encodes it.
    pub speculative_solves: usize,
    /// Always 0: the state-count search cancels no solves. Kept because
    /// `perfbench` reads it and the persisted `Model` format encodes it.
    pub cancelled_solves: usize,
    /// Wall-clock time spent ingesting the raw stream
    /// ([`Learner::learn_streamed`] only; the in-memory paths report zero).
    pub ingest_time: Duration,
    /// Wall-clock time spent generating predicates (calibration plus window
    /// abstraction).
    pub synthesis_time: Duration,
    /// Wall-clock time spent merging predicate sequences into the unique
    /// solver windows. For parallel extraction the per-shard windowing
    /// overlaps extraction inside the workers; this field times the
    /// deterministic merge.
    pub segmentation_time: Duration,
    /// Wall-clock time spent in the solver and the compliance loop.
    pub solver_time: Duration,
    /// Total wall-clock time.
    pub total_time: Duration,
}

impl LearnStats {
    /// Folds one state count's work counters — its queries,
    /// refinements, reused learnt clauses, minimization and glue counters,
    /// and the solver it constructed — into the run totals.
    fn absorb_count(&mut self, outcome: &CountOutcome) {
        self.sat_queries += outcome.sat_queries;
        self.refinements += outcome.refinements;
        self.reused_learnt_clauses += outcome.reused_learnt_clauses;
        self.minimized_literals += outcome.minimized_literals;
        for (total, &bucket) in self.lbd_histogram.iter_mut().zip(&outcome.lbd_histogram) {
            *total += bucket;
        }
        self.solvers_constructed += 1;
    }
}

/// The result of a successful learning run.
#[derive(Debug, Clone)]
pub struct LearnedModel {
    automaton: Nfa<PredId>,
    alphabet: PredicateAlphabet,
    signature: Signature,
    symbols: SymbolTable,
    /// One predicate sequence per input trace (a single entry for
    /// [`Learner::learn`] and [`Learner::learn_streamed`]).
    sequences: Vec<Vec<PredId>>,
    stats: LearnStats,
}

impl LearnedModel {
    /// The learned automaton over predicate ids.
    pub fn automaton(&self) -> &Nfa<PredId> {
        &self.automaton
    }

    /// The predicate alphabet of the automaton.
    pub fn alphabet(&self) -> &PredicateAlphabet {
        &self.alphabet
    }

    /// The predicate sequence `P` of the first (or only) input trace.
    pub fn predicate_sequence(&self) -> &[PredId] {
        &self.sequences[0]
    }

    /// The signature of the traces the model was learned from. A fresh
    /// stream monitored against this model must use the same signature.
    pub fn signature(&self) -> &Signature {
        &self.signature
    }

    /// The event names interned while learning, used to render the model's
    /// own predicates canonically.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// The predicate sequences of all input traces, in input order.
    pub fn predicate_sequences(&self) -> &[Vec<PredId>] {
        &self.sequences
    }

    /// Statistics of the learning run.
    pub fn stats(&self) -> LearnStats {
        self.stats.clone()
    }

    /// Number of states of the learned model.
    pub fn num_states(&self) -> usize {
        self.automaton.num_states()
    }

    /// Number of transitions of the learned model.
    pub fn num_transitions(&self) -> usize {
        self.automaton.num_transitions()
    }

    /// The learned automaton with human-readable predicate strings as labels.
    pub fn rendered_automaton(&self) -> Nfa<String> {
        self.automaton
            .map_labels(|id| self.alphabet.render(*id, &self.signature, &self.symbols))
    }

    /// Every predicate of the alphabet, rendered.
    pub fn predicate_strings(&self) -> Vec<String> {
        self.alphabet
            .iter()
            .map(|(id, _)| self.alphabet.render(id, &self.signature, &self.symbols))
            .collect()
    }

    /// Graphviz rendering of the model (the paper's figures).
    pub fn to_dot(&self, name: &str) -> String {
        self.rendered_automaton().to_dot(name)
    }

    /// Reassembles a model from its constituent parts — the decode half of
    /// the `tracelearn-persist` model snapshot codec.
    ///
    /// The parts are validated for internal consistency so a decoded
    /// snapshot can never produce a model the learner could not have: every
    /// transition label and every sequence entry must name a predicate of
    /// `alphabet`, and at least one predicate sequence must be present
    /// (monitoring reads `sequences[0]`).
    ///
    /// # Errors
    ///
    /// Returns [`LearnError::InvalidConfig`] describing the first
    /// inconsistency found.
    pub fn from_parts(
        automaton: Nfa<PredId>,
        alphabet: PredicateAlphabet,
        signature: Signature,
        symbols: SymbolTable,
        sequences: Vec<Vec<PredId>>,
        stats: LearnStats,
    ) -> Result<LearnedModel, LearnError> {
        let in_alphabet = |id: &PredId| id.index() < alphabet.len();
        if let Some(t) = automaton
            .transitions()
            .iter()
            .find(|t| !in_alphabet(&t.label))
        {
            return Err(LearnError::InvalidConfig {
                reason: format!(
                    "transition label {} is outside the {}-predicate alphabet",
                    t.label.index(),
                    alphabet.len()
                ),
            });
        }
        if sequences.is_empty() {
            return Err(LearnError::InvalidConfig {
                reason: "a model needs at least one predicate sequence".to_owned(),
            });
        }
        if let Some(id) = sequences.iter().flatten().find(|id| !in_alphabet(id)) {
            return Err(LearnError::InvalidConfig {
                reason: format!(
                    "sequence entry {} is outside the {}-predicate alphabet",
                    id.index(),
                    alphabet.len()
                ),
            });
        }
        Ok(LearnedModel {
            automaton,
            alphabet,
            signature,
            symbols,
            sequences,
            stats,
        })
    }
}

/// Outcome of the complete refinement loop at one candidate state count.
#[derive(Debug)]
enum CountVerdict {
    /// A compliant automaton with this many states exists.
    Compliant(Nfa<PredId>),
    /// No automaton with this many states satisfies the constraints.
    Unsat,
    /// A resource budget ran out (or the configuration was rejected).
    Failed(LearnError),
}

/// One state count's refinement result plus its work counters.
#[derive(Debug)]
struct CountOutcome {
    sat_queries: usize,
    refinements: usize,
    reused_learnt_clauses: u64,
    minimized_literals: u64,
    lbd_histogram: [u64; tracelearn_sat::LBD_BUCKETS],
    verdict: CountVerdict,
}

impl CountOutcome {
    /// A count that failed before any solve call: zeroed counters.
    fn failed(error: LearnError) -> Self {
        CountOutcome {
            sat_queries: 0,
            refinements: 0,
            reused_learnt_clauses: 0,
            minimized_literals: 0,
            lbd_histogram: [0; tracelearn_sat::LBD_BUCKETS],
            verdict: CountVerdict::Failed(error),
        }
    }
}

/// Deterministic block-level reservoir sample over a valuation stream.
///
/// The stream is split into consecutive blocks of `block_len` observations
/// and up to `capacity` blocks are retained, each block surviving with equal
/// probability (Algorithm R at block granularity, driven by a fixed-seed
/// PRNG). Sampling whole blocks — rather than single observations — keeps
/// the observation *pairs and triples* that calibration consumes intact.
/// Blocks that will not be retained are never materialised.
struct BlockReservoir {
    block_len: usize,
    capacity: usize,
    kept: Vec<(usize, Vec<Valuation>)>,
    current: Vec<Valuation>,
    /// Destination of the block being filled: `None` while undecided (block
    /// empty), `Some(None)` = skip, `Some(Some(slot))` = keep.
    destination: Option<Option<usize>>,
    fill: usize,
    seen_blocks: usize,
    rng: u64,
}

impl BlockReservoir {
    fn new(block_len: usize, capacity: usize) -> Self {
        BlockReservoir {
            block_len: block_len.max(1),
            capacity: capacity.max(1),
            kept: Vec::new(),
            current: Vec::new(),
            destination: None,
            fill: 0,
            seen_blocks: 0,
            rng: RESERVOIR_SEED,
        }
    }

    /// SplitMix64: deterministic, seedable, and plenty uniform for sampling.
    fn next_rand(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn push(&mut self, observation: &Valuation) {
        if self.destination.is_none() {
            // Decide this block's fate up front so skipped blocks cost no
            // clones: block `j` survives with probability `capacity / (j+1)`.
            let j = self.seen_blocks;
            self.destination = Some(if self.kept.len() < self.capacity {
                Some(self.kept.len())
            } else {
                let r = usize::try_from(self.next_rand() % (j as u64 + 1))
                    .expect("slot index fits in usize");
                (r < self.capacity).then_some(r)
            });
        }
        if matches!(self.destination, Some(Some(_))) {
            self.current.push(observation.clone());
        }
        self.fill += 1;
        if self.fill == self.block_len {
            self.commit();
        }
    }

    fn commit(&mut self) {
        let j = self.seen_blocks;
        self.seen_blocks += 1;
        self.fill = 0;
        if let Some(Some(slot)) = self.destination.take() {
            let block = std::mem::take(&mut self.current);
            if slot == self.kept.len() {
                self.kept.push((j, block));
            } else {
                self.kept[slot] = (j, block);
            }
        }
    }

    /// Observations currently resident in the reservoir.
    fn resident_observations(&self) -> usize {
        self.kept.iter().map(|(_, b)| b.len()).sum::<usize>() + self.current.len()
    }

    /// Finishes the stream, returning the sampled blocks in stream order and
    /// whether they are the *complete* stream (every block retained — the
    /// blocks then reassemble into the exact input).
    fn finish(mut self) -> (Vec<Vec<Valuation>>, bool) {
        if self.fill > 0 {
            self.commit();
        }
        let complete = self.kept.len() == self.seen_blocks;
        self.kept.sort_by_key(|(index, _)| *index);
        (
            self.kept.into_iter().map(|(_, block)| block).collect(),
            complete,
        )
    }
}

/// How many windows an abstraction worker processes between wall-clock
/// budget checks.
const ABSTRACTION_CHECK_INTERVAL: usize = 64;

/// The model learner (Algorithm 1 of the paper).
#[derive(Debug, Clone, Default)]
pub struct Learner {
    config: LearnerConfig,
}

impl Learner {
    /// Creates a learner with the given configuration.
    pub fn new(config: LearnerConfig) -> Self {
        Learner { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &LearnerConfig {
        &self.config
    }

    /// The worker-thread count this learner will actually use
    /// ([`LearnerConfig::num_threads`], with `0` resolved to the machine's
    /// available parallelism).
    pub fn effective_threads(&self) -> usize {
        match self.config.num_threads {
            0 => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            n => n,
        }
    }

    /// Learns an automaton from a trace.
    ///
    /// # Errors
    ///
    /// Returns [`LearnError::TraceTooShort`] / [`LearnError::WindowTooSmall`]
    /// for unusable inputs, [`LearnError::NoAutomaton`] when no automaton
    /// within the state bound satisfies the constraints, and
    /// [`LearnError::BudgetExhausted`] when a resource budget runs out (the
    /// "timeout" rows of the paper's Table I).
    pub fn learn(&self, trace: &Trace) -> Result<LearnedModel, LearnError> {
        let start = Instant::now();
        self.validate_config()?;
        let config = &self.config;
        let threads = self.effective_threads();

        // Phase 1: predicate synthesis.
        let extractor = PredicateExtractor::new(
            trace,
            config.window,
            config.synthesis.clone(),
            &config.input_variables,
        )?;
        let (sequence, alphabet) = extractor.extract();
        let synthesis_time = start.elapsed();

        // Phases 2 + 3.
        let sequences = vec![sequence];
        let segmentation_start = Instant::now();
        let (windows, shard_windows) = self.segment(&sequences);
        let stats = LearnStats {
            trace_length: trace.len(),
            predicate_count: sequences.iter().map(Vec::len).sum(),
            alphabet_size: alphabet.len(),
            solver_windows: windows.len(),
            shards: 1,
            shard_windows,
            peak_resident_observations: trace.len(),
            threads_used: threads,
            synthesis_time,
            segmentation_time: segmentation_start.elapsed(),
            ..LearnStats::default()
        };
        self.solve_phase(
            windows,
            sequences,
            alphabet,
            trace.signature().clone(),
            trace.symbols().clone(),
            stats,
            start,
        )
    }

    /// Learns one automaton from many traces of the same system.
    ///
    /// Predicate windows are extracted per trace — no window ever spans a
    /// trace boundary — and merged (deduplicated) before the SAT search; the
    /// compliance oracle likewise admits a length-`l` behaviour when *some*
    /// input trace exhibits it. One [`WindowAbstractor`] — calibrated over
    /// every run, with observation pairs never straddling a boundary (see
    /// [`WindowAbstractor::from_calibration_set`]) — serves all shards, and
    /// with the set's shared symbol table guarantees that identical window
    /// content in different shards maps to the identical predicate id.
    ///
    /// With [`LearnerConfig::num_threads`] `> 1` the per-shard abstraction
    /// and windowing fan out across a scoped worker pool; workers intern
    /// into shard-local alphabets and the shard results are merged in input
    /// order, which makes the result *byte-identical* to a sequential run.
    ///
    /// # Errors
    ///
    /// As for [`Learner::learn`]; an empty set reports
    /// [`LearnError::Trace`] with [`TraceError::EmptyTrace`], and every
    /// shard must individually satisfy the window-length requirement.
    pub fn learn_many(&self, set: &TraceSet) -> Result<LearnedModel, LearnError> {
        let start = Instant::now();
        self.validate_config()?;
        let config = &self.config;
        if set.is_empty() {
            return Err(LearnError::Trace(TraceError::EmptyTrace));
        }
        let w = config.window;
        let threads = self.effective_threads();
        let extraction_threads = threads.min(set.num_traces());

        // Phase 1: one abstractor for all shards — calibrated over every
        // run, but never pairing observations across a trace boundary — so
        // identical window content in different shards is guaranteed the
        // same predicate. Windows themselves are taken per shard; none spans
        // a boundary.
        let mut abstractor = WindowAbstractor::from_calibration_set(
            set,
            w,
            config.synthesis.clone(),
            &config.input_variables,
        )?;
        let (sequences, alphabet, windows, shard_windows, synthesis_time, segmentation_time) =
            if extraction_threads > 1 {
                self.extract_and_segment_parallel(&abstractor, set, extraction_threads, start)
            } else {
                let mut alphabet = PredicateAlphabet::new();
                let mut sequences = Vec::with_capacity(set.num_traces());
                for shard in set.iter() {
                    let mut sequence = Vec::with_capacity(shard.len() + 1 - w);
                    for s in 0..=shard.len() - w {
                        sequence.push(abstractor.predicate_id(&shard[s..s + w], &mut alphabet));
                    }
                    sequences.push(sequence);
                }
                let synthesis_time = start.elapsed();
                let segmentation_start = Instant::now();
                let (windows, shard_windows) = self.segment(&sequences);
                (
                    sequences,
                    alphabet,
                    windows,
                    shard_windows,
                    synthesis_time,
                    segmentation_start.elapsed(),
                )
            };

        let stats = LearnStats {
            trace_length: set.total_observations(),
            predicate_count: sequences.iter().map(Vec::len).sum(),
            alphabet_size: alphabet.len(),
            solver_windows: windows.len(),
            shards: set.num_traces(),
            shard_windows,
            peak_resident_observations: set.total_observations(),
            threads_used: threads,
            synthesis_time,
            segmentation_time,
            ..LearnStats::default()
        };
        self.solve_phase(
            windows,
            sequences,
            alphabet,
            set.signature().clone(),
            set.symbols().clone(),
            stats,
            start,
        )
    }

    /// Fans per-shard predicate abstraction and windowing out across a
    /// scoped worker pool, then merges the shard results deterministically
    /// in input order. Workers share the calibrated abstractor read-only and
    /// intern into shard-local alphabets; the merge interns each shard's
    /// predicates into the global alphabet in first-occurrence order and
    /// translates the shard window collectors through the same mapping, so
    /// every output — sequences, alphabet, unique windows, per-shard window
    /// counts — is identical to the sequential path's.
    #[allow(clippy::type_complexity)]
    fn extract_and_segment_parallel(
        &self,
        abstractor: &WindowAbstractor,
        set: &TraceSet,
        threads: usize,
        start: Instant,
    ) -> (
        Vec<Vec<PredId>>,
        PredicateAlphabet,
        Vec<Vec<PredId>>,
        Vec<usize>,
        Duration,
        Duration,
    ) {
        struct ShardExtraction {
            sequence: Vec<PredId>,
            alphabet: PredicateAlphabet,
            collector: WindowCollector<PredId>,
        }
        let w = self.config.window;
        let segmented = self.config.segmented;
        let shards: Vec<&[Valuation]> = set.iter().collect();
        let next = AtomicUsize::new(0);
        let parts: Vec<Vec<(usize, ShardExtraction)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let shards = &shards;
                    let next = &next;
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        loop {
                            let index = next.fetch_add(1, Ordering::Relaxed);
                            if index >= shards.len() {
                                break;
                            }
                            let shard = shards[index];
                            let mut alphabet = PredicateAlphabet::new();
                            let mut cache: HashMap<&[Valuation], PredId> = HashMap::new();
                            let mut sequence = Vec::with_capacity(shard.len() + 1 - w);
                            for s in 0..=shard.len() - w {
                                let window = &shard[s..s + w];
                                let id = match cache.get(window) {
                                    Some(&id) => id,
                                    None => {
                                        let id =
                                            alphabet.intern(abstractor.compute_predicate(window));
                                        cache.insert(window, id);
                                        id
                                    }
                                };
                                sequence.push(id);
                            }
                            let mut collector = WindowCollector::new(w);
                            if !segmented || sequence.len() < w {
                                collector.push_segment(sequence.clone());
                            } else {
                                collector.extend(sequence.iter().copied());
                                collector.end_trace();
                            }
                            out.push((
                                index,
                                ShardExtraction {
                                    sequence,
                                    alphabet,
                                    collector,
                                },
                            ));
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("extraction worker panicked"))
                .collect()
        });
        let synthesis_time = start.elapsed();

        let segmentation_start = Instant::now();
        let mut ordered: Vec<Option<ShardExtraction>> = Vec::with_capacity(shards.len());
        ordered.resize_with(shards.len(), || None);
        for (index, extraction) in parts.into_iter().flatten() {
            ordered[index] = Some(extraction);
        }
        let mut alphabet = PredicateAlphabet::new();
        let mut sequences = Vec::with_capacity(shards.len());
        let mut collector = WindowCollector::new(w);
        let mut shard_windows = Vec::with_capacity(shards.len());
        for extraction in ordered {
            let extraction = extraction.expect("every shard extracted");
            let mut map: Vec<Option<PredId>> = vec![None; extraction.alphabet.len()];
            let sequence: Vec<PredId> = extraction
                .sequence
                .iter()
                .map(|local| match map[local.index()] {
                    Some(id) => id,
                    None => {
                        let id = alphabet.intern(extraction.alphabet.predicate(*local).clone());
                        map[local.index()] = Some(id);
                        id
                    }
                })
                .collect();
            shard_windows.push(collector.merge_mapped(extraction.collector, |local| {
                map[local.index()].expect("window predicates occur in the shard sequence")
            }));
            sequences.push(sequence);
        }
        (
            sequences,
            alphabet,
            collector.into_unique(),
            shard_windows,
            synthesis_time,
            segmentation_start.elapsed(),
        )
    }

    /// Learns an automaton from a CSV stream without materialising the
    /// trace.
    ///
    /// The stream is swept exactly once, in chunks of
    /// [`stream_chunk`](LearnerConfig::stream_chunk): distinct observation
    /// windows are interned on the fly (small, by the paper's key insight),
    /// the per-observation window-id sequence is recorded (4 bytes each),
    /// and a block reservoir samples up to
    /// [`calibration_sample`](LearnerConfig::calibration_sample)
    /// observations **uniformly over the whole stream** for calibration
    /// (constant harvesting, input detection, dominant updates) — so late
    /// behaviour changes are represented, unlike a prefix sample. After the
    /// sweep, each distinct window is abstracted once (fanned out across the
    /// worker pool) and interned in first-occurrence order.
    ///
    /// Streams that fit entirely within the calibration sample are
    /// calibrated on the exact input, making the result identical to
    /// [`Learner::learn`] on the materialised trace; larger integer-heavy
    /// streams match whenever the sampled blocks exhibit the trace's integer
    /// behaviour (event/boolean-only traces always match).
    ///
    /// # Errors
    ///
    /// As for [`Learner::learn`], plus [`LearnError::Trace`] for parse/I/O
    /// failures of the stream.
    pub fn learn_streamed<R: BufRead>(
        &self,
        mut reader: StreamingCsvReader<R>,
    ) -> Result<LearnedModel, LearnError> {
        let start = Instant::now();
        self.validate_config()?;
        let config = &self.config;
        let w = config.window;
        let chunk_size = config.stream_chunk.max(w);
        let threads = self.effective_threads();

        // Pass 1: one streaming sweep — intern distinct observation windows,
        // record the window-id sequence, and reservoir-sample calibration
        // blocks uniformly over the whole stream.
        let block_len = w.max(RESERVOIR_BLOCK);
        let capacity_observations = config
            .calibration_sample
            .max(chunk_size)
            .max(MIN_STREAM_CALIBRATION);
        let capacity_blocks = capacity_observations.div_ceil(block_len);
        let mut reservoir = BlockReservoir::new(block_len, capacity_blocks);
        let mut window_ids: HashMap<Vec<Valuation>, u32> = HashMap::new();
        let mut wid_sequence: Vec<u32> = Vec::new();
        let mut buffer: Vec<Valuation> = Vec::new();
        let mut scratch: Vec<Valuation> = Vec::new();
        let mut total_observations = 0usize;
        let mut peak_resident = 0usize;
        loop {
            self.check_time(start)?;
            if reader.read_chunk(chunk_size, &mut scratch)? == 0 {
                break;
            }
            total_observations += scratch.len();
            for observation in &scratch {
                reservoir.push(observation);
            }
            buffer.append(&mut scratch);
            if buffer.len() >= w {
                for s in 0..=buffer.len() - w {
                    let window = &buffer[s..s + w];
                    let id = match window_ids.get(window) {
                        Some(&id) => id,
                        None => {
                            let id = u32::try_from(window_ids.len())
                                .expect("distinct windows fit in u32");
                            window_ids.insert(window.to_vec(), id);
                            id
                        }
                    };
                    wid_sequence.push(id);
                }
            }
            // The resident raw observations, measured at the chunk's
            // high-water mark: the rolling buffer, the calibration
            // reservoir, and the interned distinct windows.
            peak_resident = peak_resident
                .max(buffer.len() + reservoir.resident_observations() + window_ids.len() * w);
            // Carry the `w - 1` overlap into the next chunk.
            buffer.drain(..buffer.len().saturating_sub(w - 1));
        }
        if total_observations < w {
            return Err(LearnError::TraceTooShort {
                trace_length: total_observations,
                window: w,
            });
        }
        // Recover the distinct windows in first-occurrence (id) order; the
        // map owned the only copy of each window's content.
        let mut window_contents: Vec<Vec<Valuation>> = vec![Vec::new(); window_ids.len()];
        // tracelint: allow(nondet-iter, every entry is scattered into the Vec slot named by its id, so visit order cannot reach the output)
        for (content, id) in window_ids {
            window_contents[id as usize] = content;
        }
        drop(buffer);
        let ingest_time = start.elapsed();

        // Calibration: a reservoir that retained every block reassembles
        // into the exact stream (identical to in-memory calibration);
        // otherwise each sampled block calibrates as its own shard so that
        // no observation pair straddles a sampling gap.
        self.check_time(start)?;
        let (signature, symbols) = reader.into_parts();
        let (blocks, complete) = reservoir.finish();
        let abstractor = if complete {
            let all: Vec<Valuation> = blocks.into_iter().flatten().collect();
            let calibration = Trace::from_parts(signature.clone(), symbols.clone(), all)?;
            WindowAbstractor::from_calibration(
                &calibration,
                w,
                config.synthesis.clone(),
                &config.input_variables,
            )?
        } else {
            let shards: Vec<&[Valuation]> = blocks
                .iter()
                .map(Vec::as_slice)
                .filter(|block| block.len() >= w)
                .collect();
            WindowAbstractor::from_calibration_shards(
                &signature,
                &symbols,
                &shards,
                w,
                config.synthesis.clone(),
                &config.input_variables,
            )?
        };

        // Abstraction: each distinct window is synthesised once — fanned out
        // across the worker pool — and interned in first-occurrence order,
        // so predicate ids are identical to a sequential in-memory run.
        let mut alphabet = PredicateAlphabet::new();
        let predicates =
            self.abstract_distinct_windows(&abstractor, &window_contents, threads, start)?;
        drop(window_contents);
        let wid_to_pred: Vec<PredId> = predicates
            .into_iter()
            .map(|predicate| alphabet.intern(predicate))
            .collect();
        let sequence: Vec<PredId> = wid_sequence
            .iter()
            .map(|&wid| wid_to_pred[wid as usize])
            .collect();
        drop(wid_sequence);
        let synthesis_time = start.elapsed().saturating_sub(ingest_time);

        let sequences = vec![sequence];
        let segmentation_start = Instant::now();
        let (windows, shard_windows) = self.segment(&sequences);
        let stats = LearnStats {
            trace_length: total_observations,
            predicate_count: sequences.iter().map(Vec::len).sum(),
            alphabet_size: alphabet.len(),
            solver_windows: windows.len(),
            shards: 1,
            shard_windows,
            peak_resident_observations: peak_resident,
            threads_used: threads,
            ingest_time,
            synthesis_time,
            segmentation_time: segmentation_start.elapsed(),
            ..LearnStats::default()
        };
        self.solve_phase(
            windows, sequences, alphabet, signature, symbols, stats, start,
        )
    }

    /// Computes the predicate of every distinct observation window, fanning
    /// the synthesis out across `threads` scoped workers. Results are
    /// positional, so the caller interns them in first-occurrence order and
    /// obtains ids identical to a sequential run. The wall-clock budget is
    /// checked every [`ABSTRACTION_CHECK_INTERVAL`] windows on every worker,
    /// so a stream with many expensive distinct windows cannot silently run
    /// past [`LearnerConfig::time_budget`].
    ///
    /// # Errors
    ///
    /// Returns [`LearnError::BudgetExhausted`] when the wall-clock budget
    /// runs out mid-abstraction.
    fn abstract_distinct_windows(
        &self,
        abstractor: &WindowAbstractor,
        contents: &[Vec<Valuation>],
        threads: usize,
        start: Instant,
    ) -> Result<Vec<Predicate>, LearnError> {
        let workers = threads.min(contents.len());
        if workers <= 1 {
            let mut out = Vec::with_capacity(contents.len());
            for (index, content) in contents.iter().enumerate() {
                if index % ABSTRACTION_CHECK_INTERVAL == 0 {
                    self.check_time(start)?;
                }
                out.push(abstractor.compute_predicate(content));
            }
            return Ok(out);
        }
        let next = AtomicUsize::new(0);
        let exhausted: Mutex<Option<LearnError>> = Mutex::new(None);
        let parts: Vec<Vec<(usize, Predicate)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let next = &next;
                    let exhausted = &exhausted;
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        let mut since_check = 0usize;
                        loop {
                            let index = next.fetch_add(1, Ordering::Relaxed);
                            if index >= contents.len() {
                                break;
                            }
                            since_check += 1;
                            if since_check >= ABSTRACTION_CHECK_INTERVAL {
                                since_check = 0;
                                if let Err(error) = self.check_time(start) {
                                    *exhausted.lock().expect("budget flag poisoned") = Some(error);
                                    // Park the dispenser at the end so the
                                    // other workers drain out promptly too.
                                    next.store(contents.len(), Ordering::Relaxed);
                                    break;
                                }
                            }
                            out.push((index, abstractor.compute_predicate(&contents[index])));
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("abstraction worker panicked"))
                .collect()
        });
        if let Some(error) = exhausted.lock().expect("budget flag poisoned").take() {
            return Err(error);
        }
        let mut result: Vec<Option<Predicate>> = vec![None; contents.len()];
        for (index, predicate) in parts.into_iter().flatten() {
            result[index] = Some(predicate);
        }
        Ok(result
            .into_iter()
            .map(|predicate| predicate.expect("every distinct window abstracted"))
            .collect())
    }

    /// Phase 2: segments the per-trace predicate sequences into the unique
    /// windows handed to the solver, never bridging trace boundaries.
    ///
    /// Returns the merged unique windows plus, per shard, the number of
    /// unique windows that shard newly contributed.
    fn segment(&self, sequences: &[Vec<PredId>]) -> (Vec<Vec<PredId>>, Vec<usize>) {
        let config = &self.config;
        let mut collector = WindowCollector::new(config.window);
        let mut shard_windows = Vec::with_capacity(sequences.len());
        for sequence in sequences {
            let before = collector.unique_count();
            if !config.segmented || sequence.len() < config.window {
                // Full-trace mode, or a shard too short to window: the whole
                // sequence stands in for a single segment.
                collector.push_segment(sequence.clone());
            } else {
                collector.extend(sequence.iter().copied());
                collector.end_trace();
            }
            shard_windows.push(collector.unique_count() - before);
        }
        (collector.into_unique(), shard_windows)
    }

    /// Phase 3: SAT-based search for the smallest compliant automaton.
    #[allow(clippy::too_many_arguments)]
    fn solve_phase(
        &self,
        windows: Vec<Vec<PredId>>,
        sequences: Vec<Vec<PredId>>,
        alphabet: PredicateAlphabet,
        signature: Signature,
        symbols: SymbolTable,
        mut stats: LearnStats,
        start: Instant,
    ) -> Result<LearnedModel, LearnError> {
        let config = &self.config;
        debug_assert!(!windows.is_empty());
        let solver_start = Instant::now();
        let limits = Limits {
            max_conflicts: config.max_conflicts,
            max_propagations: None,
        };
        // The valid-subsequence set is a property of the input alone: build
        // the compliance oracle once instead of rescanning the (possibly
        // multi-million-element) sequences every refinement round.
        let checker = ComplianceChecker::new(&sequences, config.compliance_length);
        let (num_states, automaton) =
            self.search_sequential(&windows, &checker, limits, start, &mut stats)?;
        stats.states = num_states;
        stats.solver_time = solver_start.elapsed();
        stats.total_time = start.elapsed();
        Ok(LearnedModel {
            automaton,
            alphabet,
            signature,
            symbols,
            sequences,
            stats,
        })
    }

    /// Runs the complete compliance-refinement loop at one candidate state
    /// count: one incremental solver, base encoding once, delta clauses per
    /// round. The encoder is retained across counts and already holds the
    /// windows and every forbidden sequence discovered at smaller counts
    /// (they are properties of the predicate sequence, valid at every
    /// count); retargeting via `set_num_states` builds the identical CNF a
    /// freshly seeded encoder would. The solver carries the wall-clock
    /// deadline, so one query cannot run past the time budget.
    fn solve_count_with_encoder(
        &self,
        encoder: &mut AutomatonEncoder,
        num_states: usize,
        checker: &ComplianceChecker,
        limits: Limits,
        start: Instant,
    ) -> CountOutcome {
        if let Err(error) = self.check_time(start) {
            return CountOutcome::failed(error);
        }
        encoder.set_num_states(num_states);
        if let Err(error) = self.check_clause_budget(encoder, num_states) {
            return CountOutcome::failed(error);
        }
        let encoding = encoder.encode_base();
        let mut solver = Solver::from_cnf(&encoding.cnf);
        solver.set_deadline(
            self.config
                .time_budget
                .and_then(|budget| start.checked_add(budget)),
        );
        self.refine_at_count(
            encoder,
            &encoding,
            &mut solver,
            num_states,
            checker,
            limits,
            start,
        )
    }

    /// The refinement loop of one state count: solve, check the candidate's
    /// compliance, forbid the violating sequences as delta clauses, repeat.
    #[allow(clippy::too_many_arguments)]
    fn refine_at_count(
        &self,
        encoder: &mut AutomatonEncoder,
        encoding: &Encoding,
        solver: &mut Solver,
        num_states: usize,
        checker: &ComplianceChecker,
        limits: Limits,
        start: Instant,
    ) -> CountOutcome {
        let config = &self.config;
        let mut sat_queries = 0usize;
        let mut reused_learnt_clauses = 0u64;
        let mut refinements_here = 0usize;
        let verdict = loop {
            if let Err(error) = self.check_time(start) {
                break CountVerdict::Failed(error);
            }
            if let Err(error) = self.check_clause_budget(encoder, num_states) {
                break CountVerdict::Failed(error);
            }
            if refinements_here > 0 {
                reused_learnt_clauses += solver.num_learnts() as u64;
            }
            sat_queries += 1;
            match solver.solve_with_limits(limits) {
                SatResult::Unsat => break CountVerdict::Unsat,
                SatResult::Unknown => {
                    // The solver gives up on its conflict budget, or because
                    // the wall-clock deadline passed mid-query; the latter
                    // reports exactly what `check_time` would.
                    break CountVerdict::Failed(match config.time_budget {
                        Some(budget) if solver.is_interrupted() => wall_clock_exceeded(budget),
                        _ => LearnError::BudgetExhausted {
                            resource: format!(
                                "SAT conflict budget exhausted with {num_states} states"
                            ),
                        },
                    });
                }
                SatResult::Sat(model) => {
                    let candidate = encoding.decode(encoder.windows(), &model);
                    let violations = checker.invalid(&candidate);
                    if violations.is_empty() {
                        break CountVerdict::Compliant(candidate);
                    }
                    refinements_here += 1;
                    if refinements_here > config.max_refinements {
                        break CountVerdict::Failed(LearnError::BudgetExhausted {
                            resource: format!(
                                "more than {} refinement rounds with {num_states} states",
                                config.max_refinements
                            ),
                        });
                    }
                    for violation in violations {
                        encoder.forbid_sequence(violation);
                    }
                    for clause in encoder.delta_clauses(encoding) {
                        solver.add_clause(clause);
                    }
                }
            }
        };
        let solver_stats = solver.stats();
        CountOutcome {
            sat_queries,
            refinements: refinements_here,
            reused_learnt_clauses,
            minimized_literals: solver_stats.minimized_literals,
            lbd_histogram: solver_stats.lbd_histogram,
            verdict,
        }
    }

    /// The state-count search: counts in ascending order, one incremental
    /// solver each, forbidden sequences carried forward inside a single
    /// retained encoder (the windows move into it once — no per-count
    /// cloning).
    fn search_sequential(
        &self,
        windows: &[Vec<PredId>],
        checker: &ComplianceChecker,
        limits: Limits,
        start: Instant,
        stats: &mut LearnStats,
    ) -> Result<(usize, Nfa<PredId>), LearnError> {
        let config = &self.config;
        let mut encoder = AutomatonEncoder::new(windows.to_vec(), config.initial_states);
        for num_states in config.initial_states..=config.max_states {
            let outcome =
                self.solve_count_with_encoder(&mut encoder, num_states, checker, limits, start);
            stats.absorb_count(&outcome);
            match outcome.verdict {
                CountVerdict::Compliant(automaton) => return Ok((num_states, automaton)),
                // The discoveries already live in the retained encoder and
                // carry into the next count's base encoding.
                CountVerdict::Unsat => {}
                CountVerdict::Failed(error) => return Err(error),
            }
        }
        Err(LearnError::NoAutomaton {
            max_states: config.max_states,
        })
    }

    fn validate_config(&self) -> Result<(), LearnError> {
        let config = &self.config;
        if config.window < 1 {
            return Err(LearnError::InvalidConfig {
                reason: "window length must be at least 1".to_owned(),
            });
        }
        if config.compliance_length < 1 {
            return Err(LearnError::InvalidConfig {
                reason: "compliance path length must be at least 1".to_owned(),
            });
        }
        if config.initial_states < 1 {
            return Err(LearnError::InvalidConfig {
                reason: "the search must start from at least 1 state".to_owned(),
            });
        }
        if config.initial_states > config.max_states {
            return Err(LearnError::InvalidConfig {
                reason: format!(
                    "initial state count {} exceeds the maximum {}",
                    config.initial_states, config.max_states
                ),
            });
        }
        if config.stream_chunk < 1 {
            return Err(LearnError::InvalidConfig {
                reason: "stream chunk must be at least 1 observation".to_owned(),
            });
        }
        if config.calibration_sample < 1 {
            return Err(LearnError::InvalidConfig {
                reason: "calibration sample must be at least 1 observation".to_owned(),
            });
        }
        Ok(())
    }

    /// Fails when `encoder`'s estimated clause count exceeds
    /// [`LearnerConfig::max_clauses`]. Called before every CNF is built and
    /// before every solve, so an over-budget count never materialises its
    /// formula.
    fn check_clause_budget(
        &self,
        encoder: &AutomatonEncoder,
        num_states: usize,
    ) -> Result<(), LearnError> {
        let estimate = encoder.estimated_clauses();
        if estimate > self.config.max_clauses {
            return Err(LearnError::BudgetExhausted {
                resource: format!(
                    "encoding with {num_states} states exceeds the clause budget \
                     ({estimate} estimated)"
                ),
            });
        }
        Ok(())
    }

    fn check_time(&self, start: Instant) -> Result<(), LearnError> {
        match self.config.time_budget {
            Some(budget) if start.elapsed() > budget => Err(wall_clock_exceeded(budget)),
            _ => Ok(()),
        }
    }
}

/// The error of a run that outlived its wall-clock budget.
fn wall_clock_exceeded(budget: Duration) -> LearnError {
    LearnError::BudgetExhausted {
        resource: format!("wall-clock budget of {budget:?} exceeded"),
    }
}

/// Convenience: learns a model with the default configuration.
///
/// # Errors
///
/// See [`Learner::learn`].
pub fn learn_with_defaults(trace: &Trace) -> Result<LearnedModel, LearnError> {
    Learner::new(LearnerConfig::default()).learn(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compliance::invalid_sequences;
    use tracelearn_trace::{parse_csv, to_csv, unique_windows, Value};
    use tracelearn_workloads::{counter, usb_slot};

    fn small_counter() -> Trace {
        counter::generate(&counter::CounterConfig {
            threshold: 8,
            length: 80,
        })
    }

    #[test]
    fn learns_a_small_counter_model() {
        let model = learn_with_defaults(&small_counter()).unwrap();
        assert!(model.num_states() >= 2);
        assert!(
            model.num_states() <= 5,
            "too many states: {}",
            model.num_states()
        );
        assert!(model.automaton().is_deterministic());
        let predicates = model.predicate_strings();
        assert!(
            predicates.iter().any(|p| p.contains("x + 1")),
            "{predicates:?}"
        );
        assert!(
            predicates.iter().any(|p| p.contains("x - 1")),
            "{predicates:?}"
        );
        let stats = model.stats();
        assert_eq!(stats.trace_length, 80);
        assert!(stats.sat_queries >= 1);
        assert!(stats.alphabet_size >= 3);
        assert_eq!(stats.shards, 1);
        assert_eq!(stats.shard_windows.len(), 1);
        assert_eq!(stats.shard_windows[0], stats.solver_windows);
        assert_eq!(stats.peak_resident_observations, 80);
        assert!(stats.threads_used >= 1);
    }

    #[test]
    fn learned_model_embeds_every_unique_window() {
        let model = learn_with_defaults(&small_counter()).unwrap();
        let sequence = model.predicate_sequence().to_vec();
        for window in unique_windows(&sequence, 3) {
            assert!(model.automaton().accepts_from_any_state(&window));
        }
    }

    #[test]
    fn compliance_holds_on_the_returned_model() {
        let model = learn_with_defaults(&small_counter()).unwrap();
        let violations = invalid_sequences(model.automaton(), model.predicate_sequence(), 2);
        assert!(violations.is_empty());
    }

    #[test]
    fn segmented_and_full_trace_agree_on_small_inputs() {
        let trace = counter::generate(&counter::CounterConfig {
            threshold: 6,
            length: 40,
        });
        let segmented = Learner::new(LearnerConfig::default())
            .learn(&trace)
            .unwrap();
        let full = Learner::new(LearnerConfig::non_segmented())
            .learn(&trace)
            .unwrap();
        assert_eq!(segmented.num_states(), full.num_states());
    }

    #[test]
    fn usb_slot_model_is_concise() {
        let trace = usb_slot::generate(&usb_slot::UsbSlotConfig {
            length: 39,
            seed: 0xDAC2020,
        });
        let model = learn_with_defaults(&trace).unwrap();
        assert!(model.num_states() <= 6, "{} states", model.num_states());
        let predicates = model.predicate_strings();
        assert!(
            predicates.iter().any(|p| p.contains("CR_ADDR_DEV")),
            "{predicates:?}"
        );
        assert!(
            predicates.iter().any(|p| p.contains("CR_CONFIG_END")),
            "{predicates:?}"
        );
    }

    /// The seed's Phase-3 loop: a fresh encoding and a fresh solver for every
    /// refinement round. Used as the reference the incremental loop must
    /// agree with.
    fn from_scratch_states(trace: &Trace, config: &LearnerConfig) -> usize {
        let extractor = PredicateExtractor::new(
            trace,
            config.window,
            config.synthesis.clone(),
            &config.input_variables,
        )
        .unwrap();
        let (sequence, _) = extractor.extract();
        let windows = unique_windows(&sequence, config.window);
        for num_states in config.initial_states..=config.max_states {
            let mut encoder = AutomatonEncoder::new(windows.clone(), num_states);
            loop {
                let encoding = encoder.encode();
                match Solver::from_cnf(&encoding.cnf).solve() {
                    SatResult::Unsat => break,
                    SatResult::Unknown => unreachable!("no limits were set"),
                    SatResult::Sat(model) => {
                        let candidate = encoding.decode(&windows, &model);
                        let violations =
                            invalid_sequences(&candidate, &sequence, config.compliance_length);
                        if violations.is_empty() {
                            return num_states;
                        }
                        for violation in violations {
                            encoder.forbid_sequence(violation);
                        }
                    }
                }
            }
        }
        panic!("no automaton within the state bound");
    }

    #[test]
    fn incremental_loop_agrees_with_from_scratch_refinement() {
        for trace in [
            small_counter(),
            usb_slot::generate(&usb_slot::UsbSlotConfig {
                length: 39,
                seed: 0xDAC2020,
            }),
        ] {
            let config = LearnerConfig::default();
            let incremental = Learner::new(config.clone()).learn(&trace).unwrap();
            let reference = from_scratch_states(&trace, &config);
            assert_eq!(
                incremental.num_states(),
                reference,
                "incremental refinement must find the same minimal state count"
            );
        }
    }

    #[test]
    fn one_solver_per_candidate_state_count() {
        let model = learn_with_defaults(&small_counter()).unwrap();
        let stats = model.stats();
        // The search starts at `initial_states` (2 by default) and constructs
        // exactly one solver per candidate count up to the final one.
        assert_eq!(
            stats.solvers_constructed,
            stats.states - LearnerConfig::default().initial_states + 1
        );
        assert!(stats.sat_queries >= stats.solvers_constructed);
    }

    #[test]
    fn every_thread_count_learns_the_sequential_model_bit_for_bit() {
        let trace = small_counter();
        let sequential = Learner::new(LearnerConfig::default().with_num_threads(1))
            .learn(&trace)
            .unwrap();
        for threads in [2, 4] {
            let parallel = Learner::new(LearnerConfig::default().with_num_threads(threads))
                .learn(&trace)
                .unwrap();
            assert_eq!(parallel.automaton(), sequential.automaton());
            assert_eq!(
                parallel.predicate_sequence(),
                sequential.predicate_sequence()
            );
            let (p, s) = (parallel.stats(), sequential.stats());
            assert_eq!(p.states, s.states);
            assert_eq!(p.sat_queries, s.sat_queries);
            assert_eq!(p.refinements, s.refinements);
            assert_eq!(p.solvers_constructed, s.solvers_constructed);
            assert_eq!(p.threads_used, threads);
        }
    }

    #[test]
    fn parallel_learn_many_matches_sequential_exactly() {
        let a = counter::generate(&counter::CounterConfig {
            threshold: 8,
            length: 80,
        });
        let b = counter::generate(&counter::CounterConfig {
            threshold: 6,
            length: 60,
        });
        let c = counter::generate(&counter::CounterConfig {
            threshold: 8,
            length: 40,
        });
        let set = TraceSet::from_traces([&a, &b, &c]).unwrap();
        let sequential = Learner::new(LearnerConfig::default().with_num_threads(1))
            .learn_many(&set)
            .unwrap();
        let parallel = Learner::new(LearnerConfig::default().with_num_threads(3))
            .learn_many(&set)
            .unwrap();
        assert_eq!(parallel.automaton(), sequential.automaton());
        assert_eq!(
            parallel.predicate_sequences(),
            sequential.predicate_sequences()
        );
        assert_eq!(parallel.alphabet(), sequential.alphabet());
        let (p, s) = (parallel.stats(), sequential.stats());
        assert_eq!(p.shard_windows, s.shard_windows);
        assert_eq!(p.solver_windows, s.solver_windows);
        assert_eq!(p.alphabet_size, s.alphabet_size);
        assert_eq!(p.sat_queries, s.sat_queries);
    }

    #[test]
    fn zero_window_is_an_invalid_config_not_a_panic() {
        let config = LearnerConfig {
            window: 0,
            ..LearnerConfig::default()
        };
        match Learner::new(config).learn(&small_counter()) {
            Err(LearnError::InvalidConfig { reason }) => assert!(reason.contains("window")),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn invalid_configs_are_rejected_upfront() {
        let trace = small_counter();
        let zero_compliance = LearnerConfig {
            compliance_length: 0,
            ..LearnerConfig::default()
        };
        assert!(matches!(
            Learner::new(zero_compliance).learn(&trace),
            Err(LearnError::InvalidConfig { .. })
        ));
        let zero_initial = LearnerConfig {
            initial_states: 0,
            ..LearnerConfig::default()
        };
        assert!(matches!(
            Learner::new(zero_initial).learn(&trace),
            Err(LearnError::InvalidConfig { .. })
        ));
        let inverted_bounds = LearnerConfig {
            initial_states: 8,
            max_states: 4,
            ..LearnerConfig::default()
        };
        match Learner::new(inverted_bounds).learn(&trace) {
            Err(LearnError::InvalidConfig { reason }) => {
                assert!(reason.contains('8') && reason.contains('4'), "{reason}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        let zero_chunk = LearnerConfig {
            stream_chunk: 0,
            ..LearnerConfig::default()
        };
        match Learner::new(zero_chunk).learn(&trace) {
            Err(LearnError::InvalidConfig { reason }) => {
                assert!(reason.contains("stream chunk"), "{reason}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        let zero_sample = LearnerConfig {
            calibration_sample: 0,
            ..LearnerConfig::default()
        };
        match Learner::new(zero_sample).learn(&trace) {
            Err(LearnError::InvalidConfig { reason }) => {
                assert!(reason.contains("calibration sample"), "{reason}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn too_short_trace_is_rejected() {
        let sig = tracelearn_trace::Signature::builder().int("x").build();
        let mut trace = Trace::new(sig);
        trace.push_row([Value::Int(1)]).unwrap();
        assert!(matches!(
            learn_with_defaults(&trace),
            Err(LearnError::TraceTooShort { .. })
        ));
    }

    #[test]
    fn tight_time_budget_reports_budget_exhaustion() {
        let trace = small_counter();
        let config = LearnerConfig::default().with_time_budget(Duration::from_nanos(1));
        match Learner::new(config).learn(&trace) {
            Err(LearnError::BudgetExhausted { .. }) => {}
            other => panic!("expected budget exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn builder_methods_set_fields() {
        let config = LearnerConfig::default()
            .with_window(4)
            .with_compliance_length(3)
            .with_initial_states(0)
            .with_input_variable("ip")
            .with_stream_chunk(1024)
            .with_num_threads(5)
            .with_calibration_sample(2048);
        assert_eq!(config.window, 4);
        assert_eq!(config.compliance_length, 3);
        assert_eq!(config.initial_states, 1);
        assert_eq!(config.input_variables, vec!["ip".to_owned()]);
        assert_eq!(config.stream_chunk, 1024);
        assert_eq!(config.num_threads, 5);
        assert_eq!(config.calibration_sample, 2048);
        assert_eq!(Learner::new(config).effective_threads(), 5);
        assert!(Learner::new(LearnerConfig::default()).effective_threads() >= 1);
    }

    #[test]
    fn dot_output_contains_rendered_predicates() {
        let model = learn_with_defaults(&small_counter()).unwrap();
        let dot = model.to_dot("counter");
        assert!(dot.contains("digraph counter"));
        assert!(dot.contains("x + 1"));
    }

    #[test]
    fn learn_many_on_one_trace_matches_learn() {
        let trace = small_counter();
        let set = TraceSet::from_traces([&trace]).unwrap();
        let learner = Learner::new(LearnerConfig::default());
        let single = learner.learn(&trace).unwrap();
        let many = learner.learn_many(&set).unwrap();
        assert_eq!(single.num_states(), many.num_states());
        assert_eq!(single.num_transitions(), many.num_transitions());
        assert_eq!(single.stats().solver_windows, many.stats().solver_windows);
        assert_eq!(many.stats().shards, 1);
    }

    #[test]
    fn learn_many_merges_duplicate_shards_without_phantom_windows() {
        let trace = small_counter();
        let set = TraceSet::from_traces([&trace, &trace]).unwrap();
        let learner = Learner::new(LearnerConfig::default());
        let single = learner.learn(&trace).unwrap();
        let many = learner.learn_many(&set).unwrap();
        // The second identical shard contributes no new windows…
        let stats = many.stats();
        assert_eq!(stats.shards, 2);
        assert_eq!(stats.shard_windows.len(), 2);
        assert_eq!(stats.shard_windows[1], 0);
        assert_eq!(stats.solver_windows, single.stats().solver_windows);
        // …and the learned model is the same.
        assert_eq!(many.num_states(), single.num_states());
        assert_eq!(stats.trace_length, 160);
        assert_eq!(many.predicate_sequences().len(), 2);
    }

    #[test]
    fn learn_many_rejects_an_empty_set() {
        let set = TraceSet::new(tracelearn_trace::Signature::builder().int("x").build());
        assert!(matches!(
            Learner::new(LearnerConfig::default()).learn_many(&set),
            Err(LearnError::Trace(TraceError::EmptyTrace))
        ));
    }

    #[test]
    fn learn_streamed_matches_in_memory_on_a_counter_csv() {
        // The whole trace fits in the calibration reservoir, so the streamed
        // abstraction is calibrated on exactly the data `learn` sees and the
        // two paths must agree bit for bit.
        let trace = counter::generate(&counter::CounterConfig {
            threshold: 8,
            length: 200,
        });
        let csv = to_csv(&trace).unwrap();
        let learner = Learner::new(LearnerConfig::default().with_stream_chunk(64));
        let in_memory = learner.learn(&parse_csv(&csv).unwrap()).unwrap();
        let reader = StreamingCsvReader::new(csv.as_bytes()).unwrap();
        let streamed = learner.learn_streamed(reader).unwrap();
        assert_eq!(streamed.num_states(), in_memory.num_states());
        assert_eq!(streamed.num_transitions(), in_memory.num_transitions());
        assert_eq!(
            streamed.predicate_sequence(),
            in_memory.predicate_sequence()
        );
        assert_eq!(
            streamed.stats().solver_windows,
            in_memory.stats().solver_windows
        );
        assert_eq!(streamed.stats().trace_length, 200);
    }

    #[test]
    fn learn_streamed_rejects_a_too_short_stream() {
        let csv = "x:int\n1\n2\n";
        let reader = StreamingCsvReader::new(csv.as_bytes()).unwrap();
        match Learner::new(LearnerConfig::default()).learn_streamed(reader) {
            Err(LearnError::TraceTooShort {
                trace_length: 2,
                window: 3,
            }) => {}
            other => panic!("expected TraceTooShort, got {other:?}"),
        }
    }

    #[test]
    fn learn_streamed_surfaces_parse_errors() {
        let csv = "x:int\n1\n2\n3\n4\nnot_a_number\n";
        let reader = StreamingCsvReader::new(csv.as_bytes()).unwrap();
        match Learner::new(LearnerConfig::default()).learn_streamed(reader) {
            Err(LearnError::Trace(TraceError::Parse { line: 6, .. })) => {}
            other => panic!("expected a line-6 parse error, got {other:?}"),
        }
    }

    #[test]
    fn block_reservoir_keeps_small_streams_completely() {
        let sig = Signature::builder().int("x").build();
        let mut trace = Trace::new(sig);
        for v in 0..100i64 {
            trace.push_row([Value::Int(v)]).unwrap();
        }
        let mut reservoir = BlockReservoir::new(8, 64);
        for observation in trace.observations() {
            reservoir.push(observation);
        }
        let (blocks, complete) = reservoir.finish();
        assert!(complete);
        let reassembled: Vec<Valuation> = blocks.into_iter().flatten().collect();
        assert_eq!(reassembled, trace.observations().to_vec());
    }

    #[test]
    fn block_reservoir_samples_uniformly_over_large_streams() {
        let sig = Signature::builder().int("x").build();
        let mut trace = Trace::new(sig);
        for v in 0..10_000i64 {
            trace.push_row([Value::Int(v)]).unwrap();
        }
        let mut reservoir = BlockReservoir::new(10, 50);
        for observation in trace.observations() {
            reservoir.push(observation);
        }
        assert!(reservoir.resident_observations() <= 500);
        let (blocks, complete) = reservoir.finish();
        assert!(!complete);
        assert_eq!(blocks.len(), 50);
        // The sample must reach well past the old prefix-style cutoff: at
        // least a third of the blocks come from the second half.
        let late = blocks
            .iter()
            .filter(|block| {
                block[0]
                    .get(tracelearn_trace::VarId::new(0))
                    .as_int()
                    .unwrap()
                    >= 5000
            })
            .count();
        assert!(late >= 17, "only {late} of 50 blocks from the second half");
        // Blocks stay in stream order and contiguous internally.
        for block in &blocks {
            for pair in block.windows(2) {
                let a = pair[0]
                    .get(tracelearn_trace::VarId::new(0))
                    .as_int()
                    .unwrap();
                let b = pair[1]
                    .get(tracelearn_trace::VarId::new(0))
                    .as_int()
                    .unwrap();
                assert_eq!(b, a + 1);
            }
        }
    }

    #[test]
    fn reservoir_calibration_sees_late_behaviour_changes() {
        // A variable that increments for the first 6000 observations and
        // decrements afterwards. A prefix-only calibration (the old streamed
        // behaviour) never sees the decrement; the reservoir does, and with
        // a sample bound covering the stream the streamed model is exactly
        // the in-memory one.
        let sig = Signature::builder().int("x").build();
        let mut trace = Trace::new(sig);
        let mut x = 0i64;
        for t in 0..9000 {
            trace.push_row([Value::Int(x)]).unwrap();
            if t < 6000 {
                x += 1;
            } else {
                x -= 1;
            }
        }
        let csv = to_csv(&trace).unwrap();
        let learner = Learner::new(LearnerConfig::default().with_stream_chunk(512));
        let in_memory = learner.learn(&trace).unwrap();
        let reader = StreamingCsvReader::new(csv.as_bytes()).unwrap();
        let streamed = learner.learn_streamed(reader).unwrap();
        assert_eq!(
            streamed.predicate_sequence(),
            in_memory.predicate_sequence()
        );
        assert_eq!(streamed.num_states(), in_memory.num_states());
        let strings = streamed.predicate_strings();
        assert!(strings.iter().any(|p| p.contains("x - 1")), "{strings:?}");
    }
}
