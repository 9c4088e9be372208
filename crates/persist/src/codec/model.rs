//! The model snapshot codec: a [`LearnedModel`] plus the [`LearnerConfig`]
//! it was learned (and must be monitored) with.
//!
//! The automaton is persisted as its transition list in insertion order and
//! rebuilt by replaying [`Nfa::add_transition`], which reproduces identical
//! internal label ids (they are interned by first use). The alphabet is
//! persisted as its predicates in intern order and rebuilt the same way, so
//! every `PredId` in the snapshot is a plain index into that order — there is
//! no way to construct a `PredId` directly, and none is needed.

use crate::codec::common::{
    decode_predicate, decode_signature, decode_symbols, encode_predicate, encode_signature,
    encode_symbols, malformed,
};
use crate::envelope::{self, SnapshotKind};
use crate::error::PersistError;
use crate::wire::{Reader, Writer};
use std::path::Path;
use std::time::Duration;
use tracelearn_automaton::{Nfa, StateId};
use tracelearn_core::{LearnStats, LearnedModel, LearnerConfig, PredId, PredicateAlphabet};
use tracelearn_synth::{GrammarRestriction, SynthesisConfig};

/// A learned model bundled with the learner configuration it belongs to.
///
/// The configuration travels with the model because monitoring needs it (the
/// window length and compliance settings shape verdicts), which makes a model
/// snapshot self-contained: `served` can reload one without re-deriving any
/// command-line state.
#[derive(Debug, Clone)]
pub struct ModelSnapshot {
    /// The learner configuration the model was produced with.
    pub config: LearnerConfig,
    /// The learned model itself.
    pub model: LearnedModel,
}

// ---- usize / duration helpers -------------------------------------------

fn encode_usize(w: &mut Writer, v: usize) {
    w.u64(v as u64);
}

fn decode_usize(r: &mut Reader<'_>) -> Result<usize, PersistError> {
    let v = r.u64()?;
    usize::try_from(v).map_err(|_| malformed(format!("count {v} overflows usize")))
}

fn encode_duration(w: &mut Writer, d: Duration) {
    w.u64(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
}

fn decode_duration(r: &mut Reader<'_>) -> Result<Duration, PersistError> {
    Ok(Duration::from_nanos(r.u64()?))
}

// ---- learner configuration ----------------------------------------------

fn encode_synthesis(w: &mut Writer, s: &SynthesisConfig) {
    encode_usize(w, s.max_term_size);
    encode_usize(w, s.max_candidates);
    w.length(s.extra_constants.len());
    for &c in &s.extra_constants {
        w.i64(c);
    }
    match &s.grammar {
        GrammarRestriction::Free => w.u8(0),
        GrammarRestriction::LinearWithConstants(constants) => {
            w.u8(1);
            w.length(constants.len());
            for &c in constants {
                w.i64(c);
            }
        }
    }
    encode_usize(w, s.cegis_initial_samples);
    encode_usize(w, s.cegis_max_iterations);
}

fn decode_i64_vec(r: &mut Reader<'_>) -> Result<Vec<i64>, PersistError> {
    let len = r.length(8)?;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(r.i64()?);
    }
    Ok(out)
}

fn decode_synthesis(r: &mut Reader<'_>) -> Result<SynthesisConfig, PersistError> {
    let max_term_size = decode_usize(r)?;
    let max_candidates = decode_usize(r)?;
    let extra_constants = decode_i64_vec(r)?;
    let grammar = match r.u8()? {
        0 => GrammarRestriction::Free,
        1 => GrammarRestriction::LinearWithConstants(decode_i64_vec(r)?),
        other => return Err(malformed(format!("unknown grammar tag {other}"))),
    };
    let cegis_initial_samples = decode_usize(r)?;
    let cegis_max_iterations = decode_usize(r)?;
    Ok(SynthesisConfig {
        max_term_size,
        max_candidates,
        extra_constants,
        grammar,
        cegis_initial_samples,
        cegis_max_iterations,
    })
}

pub(crate) fn encode_config(w: &mut Writer, c: &LearnerConfig) {
    encode_usize(w, c.window);
    encode_usize(w, c.compliance_length);
    encode_usize(w, c.initial_states);
    encode_usize(w, c.max_states);
    w.boolean(c.segmented);
    encode_usize(w, c.max_refinements);
    match c.max_conflicts {
        Some(max_conflicts) => {
            w.boolean(true);
            w.u64(max_conflicts);
        }
        None => w.boolean(false),
    }
    encode_usize(w, c.max_clauses);
    match c.time_budget {
        Some(time_budget) => {
            w.boolean(true);
            encode_duration(w, time_budget);
        }
        None => w.boolean(false),
    }
    encode_synthesis(w, &c.synthesis);
    w.length(c.input_variables.len());
    for name in &c.input_variables {
        w.string(name);
    }
    encode_usize(w, c.stream_chunk);
    encode_usize(w, c.num_threads);
    // Reserved byte, once the selector of a since-removed alternative
    // Phase-3 search strategy; kept so the codec stays at version 1.
    w.u8(0);
    encode_usize(w, c.calibration_sample);
}

pub(crate) fn decode_config(r: &mut Reader<'_>) -> Result<LearnerConfig, PersistError> {
    let window = decode_usize(r)?;
    let compliance_length = decode_usize(r)?;
    let initial_states = decode_usize(r)?;
    let max_states = decode_usize(r)?;
    let segmented = r.boolean()?;
    let max_refinements = decode_usize(r)?;
    let max_conflicts = if r.option()? { Some(r.u64()?) } else { None };
    let max_clauses = decode_usize(r)?;
    let time_budget = if r.option()? {
        Some(decode_duration(r)?)
    } else {
        None
    };
    let synthesis = decode_synthesis(r)?;
    let inputs_len = r.length(8)?;
    let mut input_variables = Vec::with_capacity(inputs_len);
    for _ in 0..inputs_len {
        input_variables.push(r.string()?);
    }
    let stream_chunk = decode_usize(r)?;
    let num_threads = decode_usize(r)?;
    // The reserved byte: `0`, or the legacy `1` older snapshots may carry.
    let reserved = r.u8()?;
    if reserved > 1 {
        return Err(malformed(format!("reserved config byte is {reserved}")));
    }
    let calibration_sample = decode_usize(r)?;
    Ok(LearnerConfig {
        window,
        compliance_length,
        initial_states,
        max_states,
        segmented,
        max_refinements,
        max_conflicts,
        max_clauses,
        time_budget,
        synthesis,
        input_variables,
        stream_chunk,
        num_threads,
        calibration_sample,
    })
}

// ---- alphabet and predicate-id sequences --------------------------------

/// Encodes the alphabet as its predicates in intern order.
pub(crate) fn encode_alphabet(w: &mut Writer, alphabet: &PredicateAlphabet) {
    w.length(alphabet.len());
    for (_, predicate) in alphabet.iter() {
        encode_predicate(w, predicate);
    }
}

/// Decodes an alphabet by re-interning its predicates, returning both the
/// alphabet and the interned ids in order — the only way to obtain `PredId`
/// values for index-encoded references.
pub(crate) fn decode_alphabet(
    r: &mut Reader<'_>,
) -> Result<(PredicateAlphabet, Vec<PredId>), PersistError> {
    let len = r.length(1)?;
    let mut alphabet = PredicateAlphabet::new();
    let mut ids = Vec::with_capacity(len);
    for i in 0..len {
        let id = alphabet.intern(decode_predicate(r)?);
        if id.index() != i {
            return Err(malformed(format!(
                "duplicate predicate at alphabet slot {i}"
            )));
        }
        ids.push(id);
    }
    Ok((alphabet, ids))
}

pub(crate) fn encode_pred_seq(w: &mut Writer, sequence: &[PredId]) {
    w.length(sequence.len());
    for id in sequence {
        w.u32(id.index() as u32);
    }
}

pub(crate) fn decode_pred_seq(
    r: &mut Reader<'_>,
    ids: &[PredId],
) -> Result<Vec<PredId>, PersistError> {
    let len = r.length(4)?;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        let index = r.u32()? as usize;
        let id = ids
            .get(index)
            .ok_or_else(|| malformed(format!("predicate index {index} outside the alphabet")))?;
        out.push(*id);
    }
    Ok(out)
}

// ---- automaton -----------------------------------------------------------

fn encode_nfa(w: &mut Writer, nfa: &Nfa<PredId>) {
    w.u32(nfa.num_states() as u32);
    w.u32(nfa.initial().index() as u32);
    w.length(nfa.transitions().len());
    for t in nfa.transitions() {
        w.u32(t.from.index() as u32);
        w.u32(t.label.index() as u32);
        w.u32(t.to.index() as u32);
    }
}

fn decode_nfa(r: &mut Reader<'_>, ids: &[PredId]) -> Result<Nfa<PredId>, PersistError> {
    let num_states = r.u32()? as usize;
    let initial = r.u32()? as usize;
    // `Nfa::new` and `add_transition` assert their ranges; validate first so
    // a malformed snapshot is an error, never a panic.
    if num_states == 0 {
        return Err(malformed("automaton with zero states"));
    }
    if initial >= num_states {
        return Err(malformed(format!(
            "initial state {initial} outside {num_states} states"
        )));
    }
    let mut nfa = Nfa::new(num_states, StateId::new(initial as u32));
    let transitions = r.length(12)?;
    for _ in 0..transitions {
        let from = r.u32()? as usize;
        let label_index = r.u32()? as usize;
        let to = r.u32()? as usize;
        if from >= num_states || to >= num_states {
            return Err(malformed(format!(
                "transition {from}->{to} outside {num_states} states"
            )));
        }
        let label = *ids.get(label_index).ok_or_else(|| {
            malformed(format!(
                "transition label {label_index} outside the alphabet"
            ))
        })?;
        nfa.add_transition(StateId::new(from as u32), label, StateId::new(to as u32));
    }
    Ok(nfa)
}

// ---- learn stats ---------------------------------------------------------

fn encode_stats(w: &mut Writer, s: &LearnStats) {
    encode_usize(w, s.trace_length);
    encode_usize(w, s.predicate_count);
    encode_usize(w, s.alphabet_size);
    encode_usize(w, s.solver_windows);
    encode_usize(w, s.shards);
    w.length(s.shard_windows.len());
    for &n in &s.shard_windows {
        encode_usize(w, n);
    }
    encode_usize(w, s.peak_resident_observations);
    encode_usize(w, s.sat_queries);
    encode_usize(w, s.solvers_constructed);
    w.u64(s.reused_learnt_clauses);
    w.u64(s.minimized_literals);
    w.length(s.lbd_histogram.len());
    for &n in &s.lbd_histogram {
        w.u64(n);
    }
    encode_usize(w, s.refinements);
    encode_usize(w, s.states);
    encode_usize(w, s.threads_used);
    encode_usize(w, s.speculative_solves);
    encode_usize(w, s.cancelled_solves);
    encode_duration(w, s.ingest_time);
    encode_duration(w, s.synthesis_time);
    encode_duration(w, s.segmentation_time);
    encode_duration(w, s.solver_time);
    encode_duration(w, s.total_time);
}

fn decode_stats(r: &mut Reader<'_>) -> Result<LearnStats, PersistError> {
    // Struct-literal fields evaluate in written order, matching the
    // encoder's byte order exactly.
    let mut s = LearnStats {
        trace_length: decode_usize(r)?,
        predicate_count: decode_usize(r)?,
        alphabet_size: decode_usize(r)?,
        solver_windows: decode_usize(r)?,
        shards: decode_usize(r)?,
        ..LearnStats::default()
    };
    let shard_len = r.length(8)?;
    s.shard_windows = Vec::with_capacity(shard_len);
    for _ in 0..shard_len {
        s.shard_windows.push(decode_usize(r)?);
    }
    s.peak_resident_observations = decode_usize(r)?;
    s.sat_queries = decode_usize(r)?;
    s.solvers_constructed = decode_usize(r)?;
    s.reused_learnt_clauses = r.u64()?;
    s.minimized_literals = r.u64()?;
    let buckets = r.length(8)?;
    if buckets != s.lbd_histogram.len() {
        return Err(malformed(format!(
            "lbd histogram has {buckets} buckets, this build expects {}",
            s.lbd_histogram.len()
        )));
    }
    for bucket in s.lbd_histogram.iter_mut() {
        *bucket = r.u64()?;
    }
    s.refinements = decode_usize(r)?;
    s.states = decode_usize(r)?;
    s.threads_used = decode_usize(r)?;
    s.speculative_solves = decode_usize(r)?;
    s.cancelled_solves = decode_usize(r)?;
    s.ingest_time = decode_duration(r)?;
    s.synthesis_time = decode_duration(r)?;
    s.segmentation_time = decode_duration(r)?;
    s.solver_time = decode_duration(r)?;
    s.total_time = decode_duration(r)?;
    Ok(s)
}

// ---- public API ----------------------------------------------------------

/// Encodes a model snapshot as a complete envelope.
pub fn encode_model(snapshot: &ModelSnapshot) -> Vec<u8> {
    let mut w = Writer::new();
    encode_config(&mut w, &snapshot.config);
    encode_signature(&mut w, snapshot.model.signature());
    encode_symbols(&mut w, snapshot.model.symbols());
    encode_alphabet(&mut w, snapshot.model.alphabet());
    encode_nfa(&mut w, snapshot.model.automaton());
    let sequences = snapshot.model.predicate_sequences();
    w.length(sequences.len());
    for sequence in sequences {
        encode_pred_seq(&mut w, sequence);
    }
    encode_stats(&mut w, &snapshot.model.stats());
    envelope::encode(SnapshotKind::Model, &w.into_bytes())
}

/// Decodes a model snapshot from envelope bytes.
///
/// # Errors
///
/// Any damage or inconsistency yields a typed [`PersistError`]; a
/// successfully decoded model passed [`LearnedModel::from_parts`] validation.
pub fn decode_model(bytes: &[u8]) -> Result<ModelSnapshot, PersistError> {
    let payload = envelope::decode(bytes, SnapshotKind::Model)?;
    let mut r = Reader::new(payload);
    let config = decode_config(&mut r)?;
    let signature = decode_signature(&mut r)?;
    let symbols = decode_symbols(&mut r)?;
    let (alphabet, ids) = decode_alphabet(&mut r)?;
    let automaton = decode_nfa(&mut r, &ids)?;
    let num_sequences = r.length(8)?;
    let mut sequences = Vec::with_capacity(num_sequences);
    for _ in 0..num_sequences {
        sequences.push(decode_pred_seq(&mut r, &ids)?);
    }
    let stats = decode_stats(&mut r)?;
    r.finish()?;
    let model = LearnedModel::from_parts(automaton, alphabet, signature, symbols, sequences, stats)
        .map_err(|e| malformed(format!("model does not reassemble: {e}")))?;
    Ok(ModelSnapshot { config, model })
}

/// Saves a model snapshot to `path` crash-safely.
///
/// # Errors
///
/// Returns [`PersistError::Io`] on filesystem failure.
pub fn save_model(path: &Path, snapshot: &ModelSnapshot) -> Result<(), PersistError> {
    envelope::write_atomic(path, &encode_model(snapshot))
}

/// Loads and validates a model snapshot from `path`.
///
/// # Errors
///
/// As [`decode_model`], plus [`PersistError::Io`] for filesystem failures.
pub fn load_model(path: &Path) -> Result<ModelSnapshot, PersistError> {
    decode_model(&envelope::read_file(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracelearn_core::Learner;
    use tracelearn_workloads::counter;

    fn learned_snapshot() -> ModelSnapshot {
        let trace = counter::generate(&counter::CounterConfig {
            threshold: 8,
            length: 200,
        });
        let config = LearnerConfig::default();
        let model = Learner::new(config.clone()).learn(&trace).unwrap();
        ModelSnapshot { config, model }
    }

    #[test]
    fn learned_model_round_trips_exactly() {
        let snapshot = learned_snapshot();
        let bytes = encode_model(&snapshot);
        let restored = decode_model(&bytes).unwrap();
        // The restored model must be indistinguishable from the original in
        // every observable respect.
        assert_eq!(
            restored.model.automaton().transitions(),
            snapshot.model.automaton().transitions()
        );
        assert_eq!(
            restored.model.automaton().initial(),
            snapshot.model.automaton().initial()
        );
        assert_eq!(
            restored.model.predicate_sequences(),
            snapshot.model.predicate_sequences()
        );
        assert_eq!(
            restored.model.predicate_strings(),
            snapshot.model.predicate_strings()
        );
        assert_eq!(restored.model.stats(), snapshot.model.stats());
        assert_eq!(restored.config, snapshot.config);
        // And re-encoding is byte-stable.
        assert_eq!(encode_model(&restored), bytes);
    }

    /// Re-envelopes `snapshot` with its config's reserved byte set to `byte`.
    fn with_reserved_byte(snapshot: &ModelSnapshot, byte: u8) -> Vec<u8> {
        let mut config = Writer::new();
        encode_config(&mut config, &snapshot.config);
        // The reserved byte precedes the trailing `calibration_sample` u64.
        let offset = config.into_bytes().len() - 9;
        let encoded = encode_model(snapshot);
        let mut payload = envelope::decode(&encoded, SnapshotKind::Model)
            .unwrap()
            .to_vec();
        assert_eq!(payload[offset], 0);
        payload[offset] = byte;
        envelope::encode(SnapshotKind::Model, &payload)
    }

    #[test]
    fn legacy_reserved_config_byte_still_decodes() {
        let snapshot = learned_snapshot();
        let legacy = decode_model(&with_reserved_byte(&snapshot, 1)).unwrap();
        assert_eq!(legacy.config, snapshot.config);
        assert_eq!(encode_model(&legacy), encode_model(&snapshot));
        assert!(matches!(
            decode_model(&with_reserved_byte(&snapshot, 2)),
            Err(PersistError::Malformed(_))
        ));
    }

    #[test]
    fn corrupt_payloads_are_typed_errors_never_panics() {
        let bytes = encode_model(&learned_snapshot());
        // Every truncation of the whole file.
        for cut in 0..bytes.len() {
            assert!(
                decode_model(&bytes[..cut]).is_err(),
                "prefix {cut} accepted"
            );
        }
        // Single-byte corruption across the whole file (every offset, one
        // deterministic flip each — the envelope checksum catches them all).
        for offset in 0..bytes.len() {
            let mut damaged = bytes.clone();
            damaged[offset] ^= 0x41;
            assert!(
                decode_model(&damaged).is_err(),
                "corruption at {offset} accepted"
            );
        }
    }
}
