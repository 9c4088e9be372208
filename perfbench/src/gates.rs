//! Correctness gates: a run whose outputs are wrong reports no numbers.
//!
//! [`VerdictSink`] is the writer the server writes its output lines to. It
//! checks every line as it arrives (and, in the open loop, timestamps each
//! verdict against its input line's due time); [`VerdictSink::problems`]
//! then lists every way the output differs from what the inputs require.

use std::collections::HashMap;
use std::io::{self, Write};

use tracelearn_core::{ComplianceChecker, LearnedModel, DEFAULT_CALIBRATION_EVENTS};

use crate::pacing::Schedule;
use crate::stats::{percentile, Samples};

/// Verdicts between two throughput marks.
pub const RATE_WINDOW: u64 = 32_768;
/// Verdicts per latency window: the reported percentiles are medians of
/// per-window percentiles, so a window's p99 has 655 samples beyond it.
pub const LATENCY_WINDOW: usize = 65_536;
/// Latency is sampled from each stream's steady state: after its first
/// calibration window and the replay burst that follows it.
pub const WARMUP_EVENTS: u64 = 2 * DEFAULT_CALIBRATION_EVENTS as u64;

/// What one stream's output must contain.
#[derive(Debug, Clone)]
pub struct StreamExpect {
    pub name: String,
    /// Events (data records after the header) the stream carries.
    pub events: u64,
    /// Input line index of each event, in order: the verdict with
    /// `seq = k` answers the event on line `lines[k - 1]`.
    pub lines: Vec<u32>,
    /// Whether the stream carries injected event swaps, so its deviation
    /// count must be nonzero.
    pub swapped: bool,
}

#[derive(Debug, Clone, Default)]
struct StreamSeen {
    verdicts: u64,
    out_of_order: u64,
    summaries: u64,
    summary_events: u64,
    summary_deviations: u64,
}

/// Checks (and optionally timestamps) the server's output lines.
pub struct VerdictSink<'a> {
    expected: &'a [StreamExpect],
    index: HashMap<&'a str, usize>,
    seen: Vec<StreamSeen>,
    errors: Vec<String>,
    error_lines: u64,
    busy_lines: u64,
    unexpected_lines: u64,
    partial: Vec<u8>,
    schedule: Schedule,
    verdicts: u64,
    /// Nanoseconds from the schedule's start at the first verdict and at
    /// every [`RATE_WINDOW`]th one after it.
    pub marks_ns: Vec<u64>,
    /// Open loop: steady-state verdict delays past their input lines' due
    /// times (nanoseconds) of the window being filled, in output order.
    window: Vec<u64>,
    /// The p50 and p99 of each full latency window, in microseconds.
    pub p50_us: Samples,
    pub p99_us: Samples,
}

impl<'a> VerdictSink<'a> {
    pub fn new(expected: &'a [StreamExpect], schedule: Schedule) -> Self {
        VerdictSink {
            expected,
            index: expected
                .iter()
                .enumerate()
                .map(|(i, stream)| (stream.name.as_str(), i))
                .collect(),
            seen: vec![StreamSeen::default(); expected.len()],
            errors: Vec::new(),
            error_lines: 0,
            busy_lines: 0,
            unexpected_lines: 0,
            partial: Vec::new(),
            schedule,
            verdicts: 0,
            marks_ns: Vec::new(),
            window: Vec::with_capacity(if schedule.is_paced() {
                LATENCY_WINDOW
            } else {
                0
            }),
            p50_us: Samples::new(),
            p99_us: Samples::new(),
        }
    }

    /// `error` lines, `busy` refusals and failed streams: the operations
    /// that failed or were refused.
    pub fn failures(&self) -> u64 {
        self.error_lines + self.busy_lines
    }

    fn latency(&mut self, ns: u64) {
        self.window.push(ns);
        if self.window.len() == LATENCY_WINDOW {
            for (q, out) in [(0.5, &mut self.p50_us), (0.99, &mut self.p99_us)] {
                if let Some(ns) = percentile(&mut self.window, q) {
                    out.push(ns as f64 / 1e3);
                }
            }
            self.window.clear();
        }
    }

    fn line(&mut self, line: &[u8]) {
        let Ok(line) = std::str::from_utf8(line) else {
            self.unexpected_lines += 1;
            return;
        };
        let mut words = line.split(' ');
        let kind = words.next().unwrap_or("");
        let stream = words.next().unwrap_or("");
        match kind {
            "verdict" => {
                let Some(&i) = self.index.get(stream) else {
                    self.unexpected_lines += 1;
                    return;
                };
                let seq = words
                    .next()
                    .and_then(|word| word.strip_prefix("seq="))
                    .and_then(|seq| seq.parse::<u64>().ok());
                let seen = &mut self.seen[i];
                if seq != Some(seen.verdicts + 1) {
                    seen.out_of_order += 1;
                }
                seen.verdicts += 1;
                let steady = seq.filter(|&seq| seq > WARMUP_EVENTS);
                let mark = self.verdicts.is_multiple_of(RATE_WINDOW);
                self.verdicts += 1;
                if mark || (self.schedule.is_paced() && steady.is_some()) {
                    let now = u64::try_from(self.schedule.start().elapsed().as_nanos())
                        .unwrap_or(u64::MAX);
                    if mark {
                        self.marks_ns.push(now);
                    }
                    if let (true, Some(seq)) = (self.schedule.is_paced(), steady) {
                        let line = self.expected[i].lines.get(seq as usize - 1).copied();
                        let due = self.schedule.due_offset_ns(u64::from(line.unwrap_or(0)));
                        self.latency(now.saturating_sub(due));
                    }
                }
            }
            "summary" => {
                let Some(&i) = self.index.get(stream) else {
                    self.unexpected_lines += 1;
                    return;
                };
                let seen = &mut self.seen[i];
                seen.summaries += 1;
                for word in words {
                    if let Some(events) = word.strip_prefix("events=") {
                        seen.summary_events = events.parse().unwrap_or(u64::MAX);
                    } else if let Some(deviations) = word.strip_prefix("deviations=") {
                        seen.summary_deviations = deviations.parse().unwrap_or(u64::MAX);
                    }
                }
            }
            "error" => {
                self.error_lines += 1;
                if self.errors.len() < 3 {
                    self.errors.push(line.to_string());
                }
            }
            "busy" => self.busy_lines += 1,
            // Supervision notices never change a stream's verdicts.
            "info" => {}
            _ => self.unexpected_lines += 1,
        }
    }

    /// Every way the output falls short of the expectation; empty when the
    /// output is correct. `reference[i]` is the deviation count batch
    /// `Monitor::check` finds on stream `i`'s events.
    pub fn problems(&self, reference: &[usize]) -> Vec<String> {
        let mut problems = Vec::new();
        if !self.partial.is_empty() {
            problems.push("output ends with an unterminated line".to_string());
        }
        if self.error_lines > 0 {
            problems.push(format!(
                "{} error lines, first: {:?}",
                self.error_lines, self.errors
            ));
        }
        if self.busy_lines > 0 {
            problems.push(format!("{} streams refused busy", self.busy_lines));
        }
        if self.unexpected_lines > 0 {
            problems.push(format!("{} unexpected lines", self.unexpected_lines));
        }
        for ((expect, seen), &deviations) in self.expected.iter().zip(&self.seen).zip(reference) {
            let name = &expect.name;
            if seen.verdicts != expect.events || seen.out_of_order > 0 {
                problems.push(format!(
                    "{name}: {} verdicts ({} out of sequence) for {} events",
                    seen.verdicts, seen.out_of_order, expect.events
                ));
            }
            if seen.summaries != 1 || seen.summary_events != expect.events {
                problems.push(format!(
                    "{name}: {} summaries reporting {} events, expected one reporting {}",
                    seen.summaries, seen.summary_events, expect.events
                ));
            }
            if seen.summary_deviations != deviations as u64 {
                problems.push(format!(
                    "{name}: {} deviations served, batch check finds {deviations}",
                    seen.summary_deviations
                ));
            }
            if expect.swapped && seen.summary_deviations == 0 {
                problems.push(format!("{name}: injected swaps went undetected"));
            }
        }
        problems
    }
}

impl Write for VerdictSink<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut rest = buf;
        while let Some(newline) = rest.iter().position(|&byte| byte == b'\n') {
            let (head, tail) = rest.split_at(newline);
            if self.partial.is_empty() {
                self.line(head);
            } else {
                let mut line = std::mem::take(&mut self.partial);
                line.extend_from_slice(head);
                self.line(&line);
                line.clear();
                self.partial = line;
            }
            rest = &tail[1..];
        }
        self.partial.extend_from_slice(rest);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A learned model must be compliant with its own predicate sequences.
pub fn compliant(model: &LearnedModel, compliance_length: usize) -> Result<(), String> {
    let checker = ComplianceChecker::new(model.predicate_sequences(), compliance_length);
    if checker.is_compliant(model.automaton()) {
        Ok(())
    } else {
        Err("model is not compliant with its own predicate sequence".to_string())
    }
}

/// A learned model must be compliant and have the expected state count.
pub fn check_model(
    model: &LearnedModel,
    expected_states: usize,
    compliance_length: usize,
) -> Result<(), String> {
    if model.num_states() != expected_states {
        return Err(format!(
            "learned {} states, expected {expected_states}",
            model.num_states()
        ));
    }
    compliant(model, compliance_length)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn expect(name: &str, events: u64, swapped: bool) -> StreamExpect {
        StreamExpect {
            name: name.to_string(),
            events,
            lines: (1..=events as u32).collect(),
            swapped,
        }
    }

    fn output(lines: &[&str]) -> Vec<u8> {
        lines
            .iter()
            .flat_map(|l| format!("{l}\n").into_bytes())
            .collect()
    }

    fn problems(expected: &[StreamExpect], bytes: &[u8], reference: usize) -> Vec<String> {
        let mut sink = VerdictSink::new(expected, Schedule::closed(Instant::now()));
        // Split writes mid-line, as a formatted write may.
        for chunk in bytes.chunks(7) {
            sink.write_all(chunk).unwrap();
        }
        sink.problems(&[reference])
    }

    const GOOD: [&str; 4] = [
        "verdict a seq=1 status=warmup windows=0 novel=0",
        "verdict a seq=2 status=ok windows=1 novel=1",
        "verdict a seq=3 status=deviation windows=2 novel=1 position=1 kind=no_path",
        "summary a events=3 windows=2 deviations=1 conformance=0.5 p50_us=1 p99_us=1 max_us=1",
    ];

    #[test]
    fn correct_output_passes() {
        let expected = [expect("a", 3, true)];
        assert_eq!(problems(&expected, &output(&GOOD), 1), Vec::<String>::new());
    }

    #[test]
    fn a_dropped_verdict_line_is_rejected() {
        let expected = [expect("a", 3, true)];
        let doctored = [GOOD[0], GOOD[2], GOOD[3]];
        let found = problems(&expected, &output(&doctored), 1);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("2 verdicts"));
    }

    #[test]
    fn a_wrong_deviation_count_is_rejected() {
        let expected = [expect("a", 3, true)];
        let found = problems(&expected, &output(&GOOD), 2);
        assert!(found[0].contains("batch check finds 2"), "{found:?}");
        // Swaps that produced no deviation at all are rejected too.
        let expected = [expect("a", 3, true)];
        let clean = GOOD[3].replace("deviations=1", "deviations=0");
        let lines = [GOOD[0], GOOD[1], GOOD[2], clean.as_str()];
        let found = problems(&expected, &output(&lines), 0);
        assert_eq!(found, vec!["a: injected swaps went undetected".to_string()]);
    }

    #[test]
    fn error_busy_and_reordered_lines_are_rejected() {
        let expected = [expect("a", 3, true)];
        let lines = [GOOD[1], GOOD[0], GOOD[2], GOOD[3], "error a decode failed"];
        let found = problems(&expected, &output(&lines), 1);
        assert_eq!(found.len(), 2, "{found:?}");
        let lines = [GOOD[0], GOOD[1], GOOD[2], GOOD[3], "busy b open=1 limit=1"];
        assert_eq!(problems(&expected, &output(&lines), 1).len(), 1);
        let missing_summary = [GOOD[0], GOOD[1], GOOD[2]];
        let found = problems(&expected, &output(&missing_summary), 1);
        assert!(found[0].contains("0 summaries"), "{found:?}");
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time_after_warmup() {
        let events = WARMUP_EVENTS + LATENCY_WINDOW as u64 + 3;
        let expected = [expect("a", events, false)];
        // Every line fell due (within 0.1 ms of) one second before the
        // verdicts are written, so every timed latency is about a second.
        let start = Instant::now() - std::time::Duration::from_secs(1);
        let schedule = Schedule::open(start, 1e9);
        let mut sink = VerdictSink::new(&expected, schedule);
        for seq in 1..=events {
            writeln!(sink, "verdict a seq={seq} status=ok windows=1 novel=0").unwrap();
        }
        writeln!(sink, "summary a events={events} windows=1 deviations=0").unwrap();
        assert!(sink.problems(&[0]).is_empty());
        // The warm-up verdicts are not timed; the steady ones fill one
        // window with three left over.
        assert_eq!(sink.p50_us.len(), 1);
        assert_eq!(sink.window.len(), 3);
        let p50 = sink.p50_us.median().unwrap();
        let p99 = sink.p99_us.median().unwrap();
        assert!(
            (1e6..2e6).contains(&p50) && p50 <= p99,
            "p50 {p50} p99 {p99}"
        );
        // Throughput marks at the first verdict and every window after.
        assert_eq!(sink.marks_ns.len() as u64, events.div_ceil(RATE_WINDOW));
    }
}
