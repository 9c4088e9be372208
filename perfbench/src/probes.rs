//! Per-layer measurements for the traced run.
//!
//! Most layers run inside `learn`, `serve_commands` or `serve_csv_stream`,
//! where the benchmark cannot see. The probes drive each layer's public
//! function directly on the workload's own inputs, inside spans, and read
//! the counters the API already returns. A residual (`*.self_ns_per_event`)
//! is the enclosing call's time per event minus that of its child layers.

use std::time::Instant;

use tracelearn_automaton::SubsetTracker;
use tracelearn_core::encoding::AutomatonEncoder;
use tracelearn_core::{
    ComplianceChecker, LearnStats, LearnerConfig, Monitor, PredicateExtractor, Verdict,
    DEFAULT_CALIBRATION_EVENTS,
};
use tracelearn_sat::{Limits, SatResult, Solver};
use tracelearn_serve::{
    parse_command, serve_commands, serve_csv_stream, verdict_line, Registry, ServeOptions,
};
use tracelearn_trace::{unique_windows, StreamingCsvReader, Trace, Valuation};

use crate::gates::VerdictSink;
use crate::inputs::{self, Stream};
use crate::pacing::Schedule;
use crate::report::Report;
use crate::spans::Recorder;

/// Events the serving probe drives through the layers, at most.
pub const PROBE_EVENTS: usize = 320_000;
/// Events decoded, pushed and formatted per span.
const CHUNK: usize = 4096;
/// Label steps the automaton probe times, at least.
const MIN_STEPS: usize = 200_000;

fn seconds(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn per(ns: u64, items: u64) -> f64 {
    ns as f64 / items.max(1) as f64
}

/// One trace the learner layers are driven on, with the statistics of the
/// real `learn` call that produced its model.
pub struct LearnCase<'a> {
    pub trace: &'a Trace,
    pub stats: LearnStats,
    pub states: usize,
}

/// Drives predicate extraction, segmentation, encoding, SAT and compliance
/// directly on each trace, replaying the learner's sequential state-count
/// search with the same configuration; checks that it ends at the same
/// state count as the real `learn`.
pub fn learner_layers(
    cases: &[LearnCase<'_>],
    config: &LearnerConfig,
    recorder: &mut Recorder,
    report: &mut Report,
) {
    let limits = Limits {
        max_conflicts: config.max_conflicts,
        max_propagations: None,
    };
    let (mut alphabet, mut predicates, mut unique, mut clauses) = (0usize, 0usize, 0usize, 0usize);
    let (mut conflicts, mut refinements) = (0u64, 0usize);
    for case in cases {
        let (sequence, symbols) = recorder.time("predicates.extract", || {
            let extractor = PredicateExtractor::new(
                case.trace,
                config.window,
                config.synthesis.clone(),
                &config.input_variables,
            )
            .expect("the workload's traces are extractable");
            (extractor.extract(), case.trace.len() as u64)
        });
        alphabet += symbols.len();
        predicates += sequence.len();
        let windows = recorder.time("segment", || {
            let windows = unique_windows(&sequence, config.window);
            (windows, sequence.len() as u64)
        });
        unique += windows.len();
        let sequences = vec![sequence];
        let checker = recorder.time("compliance", || {
            (
                ComplianceChecker::new(&sequences, config.compliance_length),
                0,
            )
        });
        let mut encoder = AutomatonEncoder::new(windows, config.initial_states);
        let mut found = None;
        'counts: for num_states in config.initial_states..=config.max_states {
            encoder.set_num_states(num_states);
            let encoding = recorder.time("encoding", || {
                let encoding = encoder.encode_base();
                let n = encoding.cnf.num_clauses() as u64;
                (encoding, n)
            });
            clauses += encoding.cnf.num_clauses();
            let mut solver = Solver::from_cnf(&encoding.cnf);
            loop {
                match recorder.time("sat.solve", || (solver.solve_with_limits(limits), 1)) {
                    SatResult::Sat(model) => {
                        let candidate = encoding.decode(encoder.windows(), &model);
                        let violations =
                            recorder.time("compliance", || (checker.invalid(&candidate), 1));
                        if violations.is_empty() {
                            found = Some(num_states);
                            conflicts += solver.stats().conflicts;
                            break 'counts;
                        }
                        refinements += 1;
                        for violation in violations {
                            encoder.forbid_sequence(violation);
                        }
                        for clause in encoder.delta_clauses(&encoding) {
                            solver.add_clause(clause);
                        }
                    }
                    SatResult::Unsat => break,
                    SatResult::Unknown => {
                        report.problem("probe: SAT budget exhausted");
                        break 'counts;
                    }
                }
            }
            conflicts += solver.stats().conflicts;
        }
        if found != Some(case.states) {
            report.problem(format!(
                "probe: direct search found {found:?} states, learn found {}",
                case.states
            ));
        }
    }
    let total = |name| seconds(recorder.totals(name).0);
    let n = cases.len();
    report.metric("predicates.extract_s", "s", total("predicates.extract"), n);
    report.metric("predicates.alphabet", "count", alphabet as f64, n);
    report.metric("segment.s", "s", total("segment"), n);
    report.metric("segment.unique_windows", "count", unique as f64, n);
    report.metric(
        "segment.dedup_ratio",
        "ratio",
        unique as f64 / predicates.max(1) as f64,
        n,
    );
    report.metric("encoding.s", "s", total("encoding"), n);
    report.metric("encoding.clauses", "count", clauses as f64, n);
    let (solve_ns, queries) = recorder.totals("sat.solve");
    report.metric("sat.solve_s", "s", seconds(solve_ns), queries as usize);
    report.metric("sat.conflicts", "count", conflicts as f64, n);
    report.metric("compliance.s", "s", total("compliance"), n);
    report.metric("compliance.refinements", "count", refinements as f64, n);

    let sum = |field: fn(&LearnStats) -> f64| cases.iter().map(|c| field(&c.stats)).sum::<f64>();
    let adopted = sum(|s| s.sat_queries as f64);
    let speculative = sum(|s| s.speculative_solves as f64);
    report.metric("sat.queries", "count", adopted, n);
    report.metric(
        "sat.adopted_ratio",
        "ratio",
        adopted / (adopted + speculative).max(1.0),
        n,
    );
    report.metric(
        "sat.cancelled_solves",
        "count",
        sum(|s| s.cancelled_solves as f64),
        n,
    );
    report.metric(
        "learner.ingest_s",
        "s",
        sum(|s| s.ingest_time.as_secs_f64()),
        n,
    );
    report.metric(
        "learner.synthesis_s",
        "s",
        sum(|s| s.synthesis_time.as_secs_f64()),
        n,
    );
    report.metric(
        "learner.segmentation_s",
        "s",
        sum(|s| s.segmentation_time.as_secs_f64()),
        n,
    );
    report.metric(
        "learner.solver_s",
        "s",
        sum(|s| s.solver_time.as_secs_f64()),
        n,
    );
}

/// The first `events` records of a CSV document (header kept).
pub fn prefix(csv: &[u8], events: usize) -> &[u8] {
    let mut end = 0;
    for (count, line) in csv.split_inclusive(|&byte| byte == b'\n').enumerate() {
        if count > events {
            break;
        }
        end += line.len();
    }
    &csv[..end]
}

/// Drives decoding, sessions, automaton stepping, protocol parsing and
/// verdict formatting directly on the served streams, then the two serving
/// front doors on the same streams, and reports the front doors' residuals.
/// `streams[i]` is served against `monitors[i]`; both are capped at
/// [`PROBE_EVENTS`] events in total.
pub fn serving_layers(
    streams: &[Stream],
    monitors: &[Monitor],
    registry: &mut Registry,
    options: &ServeOptions,
    recorder: &mut Recorder,
    report: &mut Report,
) {
    // Cap the probe: whole streams while they fit, then a prefix.
    let mut budget = PROBE_EVENTS;
    let mut probe: Vec<(Stream, &Monitor)> = Vec::new();
    for (stream, monitor) in streams.iter().zip(monitors) {
        if budget == 0 {
            break;
        }
        let events = stream.events().min(budget);
        budget -= events;
        let mut capped = stream.clone();
        capped.csv = prefix(&stream.csv, events).to_vec();
        probe.push((capped, monitor));
    }
    let (mut events, mut bytes) = (0u64, 0u64);
    // The deviations each stream's own session reports: both front doors
    // must report the same.
    let mut deviations = Vec::new();
    for (stream, monitor) in &probe {
        bytes += stream.csv.len() as u64;
        let (n, found) = decode_push_format(stream, monitor, recorder, report);
        events += n;
        deviations.push(found);
    }
    let (decode_ns, rows) = recorder.totals("trace.decode");
    let (open_ns, sessions) = recorder.totals("monitor.session_open");
    let (push_ns, pushes) = recorder.totals("monitor.push");
    let (format_ns, _) = recorder.totals("protocol.verdict_fmt");
    let (parse_ns, parsed) = recorder.totals("protocol.parse");
    report.metric(
        "trace.decode_ns_per_row",
        "ns",
        per(decode_ns, rows),
        rows as usize,
    );
    report.metric(
        "trace.decode_mb_per_s",
        "MB/s",
        bytes as f64 / 1e6 / seconds(decode_ns).max(1e-12),
        rows as usize,
    );
    report.metric(
        "monitor.push_ns",
        "ns",
        per(push_ns, pushes),
        pushes as usize,
    );
    report.metric(
        "monitor.session_open_us",
        "us",
        per(open_ns, sessions) / 1e3,
        sessions as usize,
    );
    report.metric(
        "protocol.verdict_fmt_ns",
        "ns",
        per(format_ns, events),
        events as usize,
    );
    report.metric(
        "protocol.parse_ns",
        "ns",
        per(parse_ns, parsed),
        parsed as usize,
    );

    // The automaton alone: subset stepping over each model's own predicate
    // sequence, repeated until enough steps are timed.
    let mut models: Vec<&Monitor> = Vec::new();
    for (_, monitor) in &probe {
        if !models
            .iter()
            .any(|m| std::ptr::eq(m.model(), monitor.model()))
        {
            models.push(monitor);
        }
    }
    for monitor in &models {
        let model = monitor.model();
        let sequence = model.predicate_sequence();
        let mut tracker = SubsetTracker::from_all_states(model.automaton());
        let mut steps = 0usize;
        while steps < MIN_STEPS {
            recorder.time("automaton.step", || {
                for label in sequence {
                    if !tracker.push(label) {
                        tracker.reset_to_all();
                    }
                }
                ((), sequence.len() as u64)
            });
            steps += sequence.len().max(1);
        }
    }
    let (step_ns, steps) = recorder.totals("automaton.step");
    report.metric(
        "automaton.step_ns",
        "ns",
        per(step_ns, steps),
        steps as usize,
    );

    // The raw-stream front door on each stream.
    let children = per(decode_ns + open_ns + push_ns + format_ns, events);
    for ((stream, monitor), &found) in probe.iter().zip(&deviations) {
        let expected = [inputs::raw_expect(stream)];
        let mut sink = VerdictSink::new(&expected, Schedule::closed(Instant::now()));
        let outcome = recorder.time("engine.serve_csv_stream", || {
            let outcome = serve_csv_stream(
                monitor,
                &stream.name,
                stream.csv.as_slice(),
                &mut sink,
                options,
            );
            (outcome, expected[0].events)
        });
        if let Err(error) = outcome {
            report.problem(format!("probe: serve_csv_stream failed: {error}"));
        }
        for problem in sink.problems(&[found]) {
            report.problem(format!("probe raw path: {problem}"));
        }
    }
    let (engine_ns, engine_events) = recorder.totals("engine.serve_csv_stream");
    report.metric(
        "engine.self_ns_per_event",
        "ns",
        per(engine_ns, engine_events) - children,
        engine_events as usize,
    );

    // The multiplexed front door on all of them at once.
    let streams: Vec<Stream> = probe.iter().map(|(stream, _)| stream.clone()).collect();
    let (doc, expected) = inputs::protocol(&streams);
    let mut sink = VerdictSink::new(&expected, Schedule::closed(Instant::now()));
    let summary = recorder.time("mux.serve_commands", || {
        (
            serve_commands(registry, doc.as_slice(), &mut sink, options),
            events,
        )
    });
    let (mux_ns, mux_events) = recorder.totals("mux.serve_commands");
    report.metric(
        "mux.self_ns_per_event",
        "ns",
        per(mux_ns, mux_events) - children - per(parse_ns, parsed),
        mux_events as usize,
    );
    match summary {
        Ok(summary) => {
            report.metric("serve.shed", "count", summary.shed as f64, 1);
            report.metric("serve.restarted", "count", summary.restarted as f64, 1);
            report.metric("serve.replayed", "count", summary.replayed as f64, 1);
        }
        Err(error) => report.problem(format!("probe: serve_commands failed: {error}")),
    }
    for problem in sink.problems(&deviations) {
        report.problem(format!("probe mux path: {problem}"));
    }
}

/// Decodes, pushes and formats one stream in chunks, each step in its own
/// span; parses the stream's records as protocol `data` lines. Returns the
/// number of events and the deviations the session reports.
fn decode_push_format(
    stream: &Stream,
    monitor: &Monitor,
    recorder: &mut Recorder,
    report: &mut Report,
) -> (u64, usize) {
    let records: Vec<&[u8]> = stream.csv.split_inclusive(|&b| b == b'\n').collect();
    let lines: Vec<String> = records
        .iter()
        .map(|record| format!("data {} {}", stream.name, String::from_utf8_lossy(record)))
        .collect();
    for chunk in lines.chunks(CHUNK) {
        recorder.time("protocol.parse", || {
            for line in chunk {
                if parse_command(line).is_err() {
                    report.problem(format!("probe: unparseable line {line:?}"));
                }
            }
            ((), chunk.len() as u64)
        });
    }

    let mut reader = match recorder.time("trace.decode", || {
        (StreamingCsvReader::new(stream.csv.as_slice()), 0)
    }) {
        Ok(reader) => reader,
        Err(error) => {
            report.problem(format!("probe: {}: {error}", stream.name));
            return (0, 0);
        }
    };
    let mut session = recorder.time("monitor.session_open", || {
        let session = monitor
            .session_with_calibration(reader.signature(), DEFAULT_CALIBRATION_EVENTS)
            .expect("the model's window is at least two");
        (session, 1)
    });
    // A stream longer than the calibration prefix calibrates inside its
    // first chunk (exactly the prefix long), which is charged to opening
    // the session; a shorter one calibrates in `finish`.
    let mut calibrating = stream.events() >= DEFAULT_CALIBRATION_EVENTS;
    let mut chunk: Vec<Valuation> = Vec::with_capacity(CHUNK);
    let mut verdicts: Vec<Verdict> = Vec::with_capacity(CHUNK);
    let mut seq = 0u64;
    loop {
        let read = recorder.time("trace.decode", || {
            let read = reader.read_chunk(CHUNK, &mut chunk);
            let n = read.as_ref().map_or(0, |&n| n as u64);
            (read, n)
        });
        match read {
            Ok(0) => break,
            Ok(_) => {}
            Err(error) => {
                report.problem(format!("probe: {}: {error}", stream.name));
                return (seq, 0);
            }
        }
        let (span, items) = if calibrating {
            ("monitor.session_open", 0)
        } else {
            ("monitor.push", chunk.len() as u64)
        };
        calibrating = false;
        let symbols = reader.symbols();
        let pushed = recorder.time(span, || {
            verdicts.clear();
            for observation in &chunk {
                match session.push_event(observation, symbols) {
                    Ok(verdict) => verdicts.push(verdict),
                    Err(error) => return (Err(error), items),
                }
            }
            (Ok(()), items)
        });
        if let Err(error) = pushed {
            report.problem(format!("probe: {}: {error}", stream.name));
            return (seq, 0);
        }
        recorder.time("protocol.verdict_fmt", || {
            let mut bytes = 0usize;
            for verdict in &verdicts {
                seq += 1;
                bytes += std::hint::black_box(verdict_line(&stream.name, seq, verdict)).len();
            }
            (bytes, verdicts.len() as u64)
        });
    }
    let symbols = reader.symbols();
    match recorder.time("monitor.session_open", || (session.finish(symbols), 0)) {
        Ok(finished) => (seq, finished.deviations.len()),
        Err(error) => {
            report.problem(format!("probe: {}: {error}", stream.name));
            (seq, 0)
        }
    }
}
