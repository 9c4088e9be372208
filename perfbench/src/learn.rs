//! The learning workloads.
//!
//! `learn_sat` learns 8 fresh `usb_attach` traces of the paper's length per
//! pass: the SAT search is nearly all of the time, so it bypasses ingestion,
//! monitoring and serving. `learn_stream` learns one 2M-row `linux_kernel`
//! CSV through the streaming reader: decoding and the compliance pass
//! dominate and the SAT instance is tiny.

use std::borrow::Cow;
use std::time::{Duration, Instant};

use tracelearn_core::{LearnError, LearnedModel, Learner, LearnerConfig};
use tracelearn_serve::{ModelSpec, Registry, ServeOptions};
use tracelearn_trace::{parse_csv, StreamingCsvReader, Trace};
use tracelearn_workloads::Workload;

use crate::gates::{check_model, compliant};
use crate::inputs::{self, Stream};
use crate::probes::{self, LearnCase};
use crate::report::{peak_rss_mb, Report};
use crate::spans::Recorder;
use crate::stats::Samples;
use crate::yardstick::{self, Yardstick};
use crate::{Args, Budget, MIN_PASSES};

/// Reference state counts of the learned models.
pub const USB_ATTACH_STATES: usize = 8;
pub const LINUX_KERNEL_STATES: usize = 5;

fn decode(csv: &[u8]) -> Result<Trace, String> {
    let text = std::str::from_utf8(csv).map_err(|e| e.to_string())?;
    parse_csv(text).map_err(|e| e.to_string())
}

/// Set-ups timed per pass; the pass's set-up time is their median. One
/// set-up takes well under a millisecond, too short to time alone.
const SET_UPS: usize = 9;

/// Runs `body` [`SET_UPS`] times back to back; returns the median time and
/// the last result.
fn set_up<T>(mut body: impl FnMut() -> Result<T, String>) -> Result<(Duration, T), String> {
    let mut times = Samples::new();
    let mut last = None;
    for _ in 0..SET_UPS {
        let start = Instant::now();
        last = Some(body()?);
        times.push(start.elapsed().as_secs_f64());
    }
    let median = times.median().ok_or("no set-up")?;
    Ok((Duration::from_secs_f64(median), last.ok_or("no set-up")?))
}

/// One pass's models and timings.
struct Pass {
    setup: Duration,
    learn: Duration,
    per_model: Vec<Duration>,
    models: Vec<Result<LearnedModel, LearnError>>,
    rows: usize,
}

/// What a learning workload learns in one pass.
trait LearnJob {
    /// The pass's CSV inputs, prepared before timing starts.
    fn inputs(&self, pass: u64) -> Cow<'_, [Vec<u8>]>;
    /// Set-up, then learning, each timed; each learn call in a span when
    /// tracing.
    fn run(
        &self,
        inputs: &[Vec<u8>],
        config: &LearnerConfig,
        recorder: Option<&mut Recorder>,
    ) -> Result<Pass, String>;
    fn expected_states(&self) -> usize;
    /// The registry spec that learns the same model as input `i` of `pass`.
    fn spec(&self, pass: u64, i: usize) -> String;
}

struct Sat {
    seed: u64,
}

impl LearnJob for Sat {
    fn inputs(&self, pass: u64) -> Cow<'_, [Vec<u8>]> {
        Cow::Owned(inputs::sat_batch(self.seed, pass))
    }

    fn run(
        &self,
        inputs: &[Vec<u8>],
        config: &LearnerConfig,
        mut recorder: Option<&mut Recorder>,
    ) -> Result<Pass, String> {
        let (setup, (learner, traces)) = set_up(|| {
            let learner = Learner::new(config.clone());
            let traces = inputs
                .iter()
                .map(|csv| decode(csv))
                .collect::<Result<Vec<_>, _>>()?;
            Ok((learner, traces))
        })?;
        let mut pass = Pass {
            setup,
            learn: Duration::ZERO,
            per_model: Vec::new(),
            models: Vec::new(),
            rows: traces.iter().map(Trace::len).sum(),
        };
        for trace in &traces {
            let span = recorder.as_mut().map(|r| r.enter("learner.learn"));
            let start = Instant::now();
            let model = learner.learn(trace);
            let elapsed = start.elapsed();
            if let (Some(recorder), Some(span)) = (recorder.as_mut(), span) {
                recorder.exit(span, trace.len() as u64);
            }
            pass.learn += elapsed;
            pass.per_model.push(elapsed);
            pass.models.push(model);
        }
        Ok(pass)
    }

    fn expected_states(&self) -> usize {
        USB_ATTACH_STATES
    }

    fn spec(&self, pass: u64, i: usize) -> String {
        format!(
            "m{i}=workload:usb_attach:{}:{}",
            inputs::SAT_TRACE_ROWS,
            inputs::sat_trace_seed(self.seed, pass, i as u64)
        )
    }
}

struct Streamed {
    seed: u64,
    csv: Vec<u8>,
}

impl Streamed {
    fn new(seed: u64) -> Self {
        Streamed {
            seed,
            csv: inputs::csv(
                Workload::LinuxKernel,
                inputs::STREAM_ROWS,
                Self::trace_seed(seed),
            ),
        }
    }

    fn trace_seed(seed: u64) -> u64 {
        inputs::mix(seed, 300, 0)
    }
}

impl LearnJob for Streamed {
    fn inputs(&self, _pass: u64) -> Cow<'_, [Vec<u8>]> {
        Cow::Borrowed(std::slice::from_ref(&self.csv))
    }

    fn run(
        &self,
        inputs: &[Vec<u8>],
        config: &LearnerConfig,
        recorder: Option<&mut Recorder>,
    ) -> Result<Pass, String> {
        let (setup, (learner, reader)) = set_up(|| {
            let learner = Learner::new(config.clone());
            let reader =
                StreamingCsvReader::new(inputs[0].as_slice()).map_err(|e| e.to_string())?;
            Ok((learner, reader))
        })?;
        let span = recorder.map(|r| (r.enter("learner.learn_streamed"), r));
        let start = Instant::now();
        let model = learner.learn_streamed(reader);
        let learn = start.elapsed();
        if let Some((span, recorder)) = span {
            recorder.exit(span, inputs::STREAM_ROWS as u64);
        }
        let rows = model.as_ref().map_or(0, |m| m.stats().trace_length);
        Ok(Pass {
            setup,
            learn,
            per_model: vec![learn],
            models: vec![model],
            rows,
        })
    }

    fn expected_states(&self) -> usize {
        LINUX_KERNEL_STATES
    }

    fn spec(&self, _pass: u64, _i: usize) -> String {
        format!(
            "m0=workload:linux_kernel:{}:{}",
            inputs::STREAM_ROWS,
            Self::trace_seed(self.seed)
        )
    }
}

/// Checks every learned model: it must be compliant with its own predicate
/// sequence and have the workload's reference state count. A rare input
/// legitimately needs another count (a 259-row `usb_attach` trace that never
/// shows `TRData` needs 7 states); such a model passes only when the
/// sequential learner (one thread, a separate search path) finds the same
/// count on the same input, and only while such models stay rare.
#[derive(Default)]
struct ModelGate {
    models: u64,
    exceptions: u64,
}

/// At most this share of a run's models may differ from the reference
/// state count (about 1 in 300 `learn_sat` traces does).
const MAX_EXCEPTION_SHARE: f64 = 0.02;

impl ModelGate {
    fn check(
        &mut self,
        pass: &Pass,
        inputs: &[Vec<u8>],
        job: &dyn LearnJob,
        config: &LearnerConfig,
        report: &mut Report,
    ) -> Result<(), String> {
        for (i, model) in pass.models.iter().enumerate() {
            report.attempted += 1;
            self.models += 1;
            let model = match model {
                Ok(model) => model,
                Err(error) => {
                    report.failed += 1;
                    report.problem(format!("learning failed: {error}"));
                    continue;
                }
            };
            if let Err(problem) = compliant(model, config.compliance_length) {
                report.problem(problem);
            }
            if model.num_states() != job.expected_states() {
                self.exceptions += 1;
                let sequential = config.clone().with_num_threads(1);
                let rerun = job.run(&inputs[i..=i], &sequential, None)?;
                let states = rerun.models[0]
                    .as_ref()
                    .map(LearnedModel::num_states)
                    .map_err(|e| e.to_string())?;
                if states != model.num_states() {
                    report.problem(format!(
                        "learned {} states where the sequential learner finds {states}",
                        model.num_states()
                    ));
                }
            }
        }
        Ok(())
    }

    fn finish(&self, job: &dyn LearnJob, report: &mut Report) {
        if self.exceptions > 0 {
            report.note(format!(
                "{} of {} models needed another state count than the reference {}, \
                 each confirmed by the sequential learner",
                self.exceptions,
                self.models,
                job.expected_states()
            ));
        }
        if self.exceptions as f64 > MAX_EXCEPTION_SHARE * self.models as f64 {
            report.problem(format!(
                "{} of {} models differ from the reference state count {}",
                self.exceptions,
                self.models,
                job.expected_states()
            ));
        }
    }
}

pub fn learn_sat(args: &Args, report: &mut Report) -> Result<(), String> {
    run(&Sat { seed: args.seed }, args, report)
}

pub fn learn_stream(args: &Args, report: &mut Report) -> Result<(), String> {
    let job = Streamed::new(args.seed);
    // The first pass runs cold (page faults, allocator growth); warm up.
    let config = LearnerConfig::default();
    let inputs = job.inputs(0);
    let warmup = job.run(&inputs, &config, None)?;
    let mut gate = ModelGate::default();
    gate.check(&warmup, &inputs, &job, &config, report)?;
    gate.finish(&job, report);
    run(&job, args, report)
}

fn run(job: &dyn LearnJob, args: &Args, report: &mut Report) -> Result<(), String> {
    let config = LearnerConfig::default();
    if args.trace {
        return traced(job, &config, args, report);
    }
    let mut yardstick = Yardstick::default();
    let mut budget = Budget::new(args.seconds);
    let (mut setup, mut learn) = (Samples::new(), Samples::new());
    let (mut per_model, mut factors, mut unscaled) =
        (Samples::new(), Samples::new(), Samples::new());
    let mut gate = ModelGate::default();
    let mut rows = 0;
    let mut states = 0;
    while budget.another(MIN_PASSES) {
        let pass_index = budget.passes() - 1;
        let inputs = job.inputs(pass_index);
        yardstick.open();
        let pass = job.run(&inputs, &config, None)?;
        let factor = yardstick.close();
        factors.push(factor);
        unscaled.push(pass.learn.as_secs_f64());
        setup.push(pass.setup.as_secs_f64() * factor);
        learn.push(pass.learn.as_secs_f64() * factor);
        for elapsed in &pass.per_model {
            per_model.push(elapsed.as_secs_f64() * factor * 1e6);
        }
        rows = pass.rows;
        states = pass
            .models
            .iter()
            .map(|m| m.as_ref().map_or(0, LearnedModel::num_states))
            .sum();
        gate.check(&pass, &inputs, job, &config, report)?;
    }
    gate.finish(job, report);
    let rss = peak_rss_mb().ok_or("peak memory unreadable")?;
    let learn_s = learn.median().ok_or("no passes")?;
    let passes = learn.len();
    report.metric(
        "setup_s",
        "s",
        setup.median().ok_or("no passes")?,
        setup.len(),
    );
    report.metric("learn_s", "s", learn_s, passes);
    report.metric("events_per_s", "events/s", rows as f64 / learn_s, passes);
    report.metric(
        "latency_p50_us",
        "us",
        per_model.median().ok_or("no models")?,
        per_model.len(),
    );
    report.note("latency: time to learn one model, closed loop");
    report.note(yardstick::summary(&factors));
    report.note(format!(
        "unscaled: learn_s {:.6} s",
        unscaled.median().ok_or("no passes")?
    ));
    report.metric("model_states", "states", states as f64, passes);
    report.metric("peak_rss_mb", "MB", rss, 1);
    report.metric(
        "failed_ratio",
        "ratio",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.attempted as usize,
    );
    Ok(())
}

/// The traced run: learning passes timed alternately without and with
/// spans (for the tracing overhead), then the layer probes on the last
/// pass's inputs and models.
fn traced(
    job: &dyn LearnJob,
    config: &LearnerConfig,
    args: &Args,
    report: &mut Report,
) -> Result<(), String> {
    let mut recorder = Recorder::new(0);
    let mut budget = Budget::new(args.seconds / 2);
    let mut overhead = Samples::new();
    let mut gate = ModelGate::default();
    let mut last = None;
    while budget.another(MIN_PASSES) {
        let pass_index = budget.passes() - 1;
        recorder.set_run(pass_index as u32);
        let inputs = job.inputs(pass_index);
        // The same inputs with and without spans, alternating which goes
        // first.
        let untraced = || job.run(&inputs, config, None);
        let mut plain = None;
        if pass_index % 2 == 1 {
            plain = Some(untraced()?);
        }
        let span = recorder.enter("learn.pass");
        let traced = job.run(&inputs, config, Some(&mut recorder))?;
        recorder.exit(span, traced.models.len() as u64);
        let plain = match plain {
            Some(plain) => plain,
            None => untraced()?,
        };
        overhead.push(
            (traced.learn.as_secs_f64() - plain.learn.as_secs_f64()) / plain.learn.as_secs_f64()
                * 100.0,
        );
        gate.check(&plain, &inputs, job, config, report)?;
        gate.check(&traced, &inputs, job, config, report)?;
        last = Some((pass_index, inputs, traced));
    }
    gate.finish(job, report);
    let (pass_index, inputs, pass) = last.ok_or("no passes")?;
    report.metric(
        "trace_overhead_pct",
        "%",
        overhead.median().ok_or("no passes")?,
        overhead.len(),
    );

    let traces: Vec<Trace> = inputs
        .iter()
        .map(|csv| decode(csv))
        .collect::<Result<_, _>>()?;
    let cases: Vec<LearnCase<'_>> = traces
        .iter()
        .zip(&pass.models)
        .filter_map(|(trace, model)| {
            model.as_ref().ok().map(|model| LearnCase {
                trace,
                stats: model.stats(),
                states: model.num_states(),
            })
        })
        .collect();
    probes::learner_layers(&cases, config, &mut recorder, report);

    // The serving layers on the learned models, monitoring the traces they
    // were learned from.
    let specs = (0..traces.len())
        .map(|i| ModelSpec::parse(&job.spec(pass_index, i)).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let mut registry = recorder
        .time("registry.load", || {
            (Registry::load(&specs), specs.len() as u64)
        })
        .map_err(|e| e.to_string())?;
    report.metric(
        "registry.load_s",
        "s",
        recorder.totals("registry.load").0 as f64 / 1e9,
        1,
    );
    let mut streams = Vec::new();
    let mut monitors = Vec::new();
    for i in 0..traces.len() {
        let name = format!("m{i}");
        let (monitor, _) = registry.resolve(&name).ok_or("registry lost a model")?;
        // The registry learns the same trace, so the same model.
        let learned = pass.models[i].as_ref().map_or(0, LearnedModel::num_states);
        if let Err(problem) = check_model(monitor.model(), learned, config.compliance_length) {
            report.problem(format!("registry model {name}: {problem}"));
        }
        streams.push(Stream {
            name: name.clone(),
            model: name.clone(),
            csv: probes::prefix(&inputs[i], probes::PROBE_EVENTS).to_vec(),
            swapped: false,
        });
        monitors.push(monitor);
    }
    let options = ServeOptions {
        workers: crate::workers(),
        ..ServeOptions::default()
    };
    probes::serving_layers(
        &streams,
        &monitors,
        &mut registry,
        &options,
        &mut recorder,
        report,
    );
    crate::write_spans(args, &recorder, report)
}
