//! The serving workloads.
//!
//! `serve_mux` drives `serve_commands` with 64 concurrent streams from 8
//! tenants on the `open`/`data`/`close` protocol: dispatch, parsing and
//! verdict output dominate. `serve_pipe` drives `serve_csv_stream` with one
//! 2M-event raw CSV stream: decoding, the monitor step and verdict
//! formatting each take about a third.
//!
//! Each alternates closed-loop passes (input handed over as fast as the
//! server reads it), for throughput, with open-loop passes at a fixed
//! offered rate, for latency.

use std::time::{Duration, Instant};

use tracelearn_core::{LearnerConfig, Monitor};
use tracelearn_serve::{
    serve_commands, serve_csv_stream, ModelSource, ModelSpec, Registry, ServeOptions,
};
use tracelearn_trace::parse_csv;

use crate::gates::{check_model, StreamExpect, VerdictSink, LATENCY_WINDOW, RATE_WINDOW};
use crate::inputs::{self, Stream};
use crate::learn::{LINUX_KERNEL_STATES, USB_ATTACH_STATES};
use crate::pacing::{Lag, PacedReader, Schedule};
use crate::probes::{self, LearnCase};
use crate::report::{peak_rss_mb, Report};
use crate::spans::Recorder;
use crate::stats::{window_rates, Samples};
use crate::yardstick::Yardstick;
use crate::{Args, Budget, MIN_PASSES};

/// The served models: a fixed deployment, learned at set-up. The run seed
/// varies the traffic, not the models.
const LINUX_KERNEL_SPEC: &str = "lk=workload:linux_kernel:2000";
const USB_ATTACH_SPEC: &str = "ua=workload:usb_attach:259";
/// Registry loads per run; `setup_s` is their median.
const SETUP_LOADS: usize = 9;

/// Open-loop offered rates, in input lines per second, fixed so that runs on
/// different commits offer the same load. On a 2-core host `serve_mux`
/// serves 0.33M–0.54M lines/s closed loop as the host's speed drifts; at
/// 200k a slow stretch left the server behind and each window's median
/// latency jumped from microseconds to milliseconds, so it is offered about
/// a third of its rate. `serve_pipe` is offered about half.
const MUX_RATE: f64 = 120_000.0;
const PIPE_RATE: f64 = 360_000.0;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Front {
    /// `serve_commands`, many streams multiplexed.
    Mux,
    /// `serve_csv_stream`, one raw stream.
    Pipe,
}

struct Setup {
    registry: Registry,
    specs: Vec<ModelSpec>,
    streams: Vec<Stream>,
    monitors: Vec<Monitor>,
    doc: Vec<u8>,
    options: ServeOptions,
}

fn spec_states(spec: &ModelSpec) -> usize {
    if spec.name == "lk" {
        LINUX_KERNEL_STATES
    } else {
        USB_ATTACH_STATES
    }
}

/// Generates the inputs and what their outputs must be, then loads the
/// registry [`SETUP_LOADS`] times (timed, scaled by the yardstick).
fn set_up(
    front: Front,
    args: &Args,
    report: &mut Report,
) -> Result<(Setup, Vec<StreamExpect>, Samples), String> {
    let (specs, streams) = match front {
        Front::Mux => (
            vec![LINUX_KERNEL_SPEC, USB_ATTACH_SPEC],
            inputs::mux_streams(args.seed),
        ),
        Front::Pipe => (vec![USB_ATTACH_SPEC], vec![inputs::pipe_stream(args.seed)]),
    };
    let specs = specs
        .into_iter()
        .map(ModelSpec::parse)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let (doc, expected) = match front {
        Front::Mux => inputs::protocol(&streams),
        // The raw stream is served straight from its CSV document.
        Front::Pipe => (Vec::new(), vec![inputs::raw_expect(&streams[0])]),
    };

    let mut yardstick = Yardstick::default();
    let mut loads = Samples::new();
    let mut registry = None;
    for _ in 0..SETUP_LOADS {
        yardstick.open();
        let start = Instant::now();
        registry = Some(Registry::load(&specs).map_err(|e| e.to_string())?);
        let elapsed = start.elapsed().as_secs_f64();
        loads.push(elapsed * yardstick.close());
    }
    let registry = registry.ok_or("no registry")?;
    let compliance_length = LearnerConfig::default().compliance_length;
    for spec in &specs {
        let (monitor, _) = registry
            .resolve(&spec.name)
            .ok_or("registry lost a model")?;
        report.attempted += 1;
        if let Err(problem) = check_model(monitor.model(), spec_states(spec), compliance_length) {
            report.problem(format!("served model {}: {problem}", spec.name));
        }
    }
    let monitors = streams
        .iter()
        .map(|stream| registry.resolve(&stream.model).map(|(monitor, _)| monitor))
        .collect::<Option<Vec<_>>>()
        .ok_or("a stream names an unknown model")?;
    let options = ServeOptions {
        workers: crate::workers(),
        ..ServeOptions::default()
    };
    Ok((
        Setup {
            registry,
            specs,
            streams,
            monitors,
            doc,
            options,
        },
        expected,
        loads,
    ))
}

/// One pass over the whole input; returns the checked output and the wall
/// time from the first read to the last output line.
fn pass<'a>(
    front: Front,
    setup: &mut Setup,
    expected: &'a [StreamExpect],
    schedule: Schedule,
    report: &mut Report,
) -> Result<(VerdictSink<'a>, Duration, Lag), String> {
    let Setup {
        registry,
        streams,
        monitors,
        doc,
        options,
        ..
    } = setup;
    let input = match front {
        Front::Mux => doc,
        Front::Pipe => &streams[0].csv,
    };
    let mut sink = VerdictSink::new(expected, schedule);
    let mut reader = PacedReader::new(input, schedule);
    let start = Instant::now();
    match front {
        Front::Mux => {
            let summary = serve_commands(registry, &mut reader, &mut sink, options)
                .map_err(|e| e.to_string())?;
            if summary.aborted || summary.failed > 0 || summary.shed > 0 {
                report.problem(format!(
                    "serve_commands: {} failed, {} shed streams",
                    summary.failed, summary.shed
                ));
            }
        }
        Front::Pipe => {
            serve_csv_stream(
                &monitors[0],
                &streams[0].name,
                &mut reader,
                &mut sink,
                options,
            )
            .map_err(|e| e.to_string())?;
        }
    }
    let wall = start.elapsed();
    report.attempted += expected.iter().map(|e| e.events).sum::<u64>();
    report.failed += sink.failures();
    Ok((sink, wall, reader.lag()))
}

/// Deviation counts batch `Monitor::check` finds on each stream.
fn batch_reference(setup: &Setup) -> Result<Vec<usize>, String> {
    setup
        .streams
        .iter()
        .zip(&setup.monitors)
        .map(|(stream, monitor)| {
            let text = std::str::from_utf8(&stream.csv).map_err(|e| e.to_string())?;
            let trace = parse_csv(text).map_err(|e| e.to_string())?;
            let report = monitor.check(&trace).map_err(|e| e.to_string())?;
            Ok(report.deviations.len())
        })
        .collect()
}

pub fn serve(front: Front, args: &Args, report: &mut Report) -> Result<(), String> {
    let (mut setup, expected, loads) = set_up(front, args, report)?;
    if args.trace {
        return traced(front, setup, &expected, args, report);
    }
    let rate = match front {
        Front::Mux => MUX_RATE,
        Front::Pipe => PIPE_RATE,
    };
    // The first pass runs cold (worker start, buffers growing): one
    // closed-loop pass warms up, checked but not timed.
    let warmup = Schedule::closed(Instant::now());
    let (warmup, _, _) = pass(front, &mut setup, &expected, warmup, report)?;
    // Two closed-loop passes, then an open-loop one, and again: both kinds
    // sample the whole run rather than one stretch of the host's drifting
    // speed, and the short closed-loop passes get about half of it.
    let mut sinks = vec![warmup];
    let mut rates = Samples::new();
    let (mut p50s, mut p99s) = (Samples::new(), Samples::new());
    let mut lag = Lag::default();
    let mut open_passes = 0;
    let mut budget = Budget::new(args.seconds);
    while budget.another(MIN_PASSES) {
        if budget.passes() % 3 != 0 {
            let closed = Schedule::closed(Instant::now());
            let (sink, _, _) = pass(front, &mut setup, &expected, closed, report)?;
            rates.extend(window_rates(&sink.marks_ns, RATE_WINDOW as usize));
            sinks.push(sink);
        } else {
            let schedule = Schedule::open(Instant::now(), rate);
            let (mut sink, _, pass_lag) = pass(front, &mut setup, &expected, schedule, report)?;
            p50s.extend(std::mem::take(&mut sink.p50_us));
            p99s.extend(std::mem::take(&mut sink.p99_us));
            lag.max_ns = lag.max_ns.max(pass_lag.max_ns);
            lag.last_ns = pass_lag.last_ns;
            sinks.push(sink);
            open_passes += 1;
        }
    }
    let rss = peak_rss_mb().ok_or("peak memory unreadable")?;

    let reference = batch_reference(&setup)?;
    for sink in &sinks {
        for problem in sink.problems(&reference) {
            report.problem(problem);
        }
    }
    report.note(format!(
        "deviations: {} over {} streams, equal to batch checks of the same events",
        reference.iter().sum::<usize>(),
        reference.len()
    ));

    report.metric(
        "setup_s",
        "s",
        loads.median().ok_or("no loads")?,
        loads.len(),
    );
    let rate_median = rates.median().ok_or("no throughput windows")?;
    for name in ["events_per_s", "serve_events_per_s"] {
        report.metric(name, "events/s", rate_median, rates.len());
    }
    let p50 = p50s.median().ok_or("no full latency window")?;
    for name in ["latency_p50_us", "verdict_p50_us"] {
        report.metric(name, "us", p50, p50s.len() * LATENCY_WINDOW);
    }
    let p99 = p99s.median().ok_or("no full latency window")?;
    report.metric("verdict_p99_us", "us", p99, p99s.len() * LATENCY_WINDOW);
    report.note(format!(
        "throughput: median over {} windows of {RATE_WINDOW} verdicts, closed loop \
         (window p10 {:.0}, p90 {:.0} events/s)",
        rates.len(),
        rates.quantile(0.1).unwrap_or(0.0),
        rates.quantile(0.9).unwrap_or(0.0),
    ));
    report.note(format!(
        "latency: due time of a data line to the write of its verdict line, open loop at \
         {rate} lines/s over {open_passes} passes, each stream's first {} events excluded; \
         median over {} windows of {LATENCY_WINDOW} verdicts, so each window's p99 has {} \
         samples beyond it",
        crate::gates::WARMUP_EVENTS,
        p99s.len(),
        LATENCY_WINDOW / 100
    ));
    report.metric(
        "load.lag_ms",
        "ms",
        lag.max_ns as f64 / 1e6,
        open_passes as usize,
    );
    report.note(format!(
        "load: the generator ended {:.3} ms behind schedule",
        lag.last_ns as f64 / 1e6
    ));
    let states: usize = setup
        .specs
        .iter()
        .filter_map(|spec| setup.registry.resolve(&spec.name))
        .map(|(monitor, _)| monitor.model().num_states())
        .sum();
    report.metric("model_states", "states", states as f64, setup.specs.len());
    report.metric("peak_rss_mb", "MB", rss, 1);
    report.metric(
        "failed_ratio",
        "ratio",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.attempted as usize,
    );
    Ok(())
}

/// The traced run: closed-loop passes without and with a span (for the
/// tracing overhead), then the layer probes on the served models and
/// streams.
fn traced(
    front: Front,
    mut setup: Setup,
    expected: &[StreamExpect],
    args: &Args,
    report: &mut Report,
) -> Result<(), String> {
    let mut recorder = Recorder::new(0);
    let mut overhead = Samples::new();
    let mut sinks = Vec::new();
    let mut budget = Budget::new(args.seconds / 2);
    while budget.another(MIN_PASSES) {
        let run = budget.passes() - 1;
        recorder.set_run(run as u32);
        // Untraced and traced passes alternate which goes first.
        let mut times = [Duration::ZERO; 2];
        let even = run.is_multiple_of(2);
        for traced in [even, !even] {
            let span = traced.then(|| recorder.enter("serve.pass"));
            let closed = Schedule::closed(Instant::now());
            let (sink, wall, _) = pass(front, &mut setup, expected, closed, report)?;
            if let Some(span) = span {
                recorder.exit(span, expected.iter().map(|e| e.events).sum());
            }
            times[usize::from(traced)] = wall;
            sinks.push(sink);
        }
        let [plain, traced] = times.map(|t| t.as_secs_f64());
        overhead.push((traced - plain) / plain * 100.0);
    }
    let reference = batch_reference(&setup)?;
    for sink in &sinks {
        for problem in sink.problems(&reference) {
            report.problem(problem);
        }
    }
    report.metric(
        "trace_overhead_pct",
        "%",
        overhead.median().ok_or("no passes")?,
        overhead.len(),
    );

    // The learner layers on the served models' training traces.
    let traces = setup
        .specs
        .iter()
        .map(|spec| match spec.source {
            ModelSource::Workload {
                workload,
                length,
                seed,
            } => Ok(workload.generate_seeded(length, seed)),
            ModelSource::Csv(_) => Err("served models come from workload specs".to_string()),
        })
        .collect::<Result<Vec<_>, _>>()?;
    let cases = setup
        .specs
        .iter()
        .zip(&traces)
        .map(|(spec, trace)| {
            let (monitor, _) = setup
                .registry
                .resolve(&spec.name)
                .ok_or("registry lost a model")?;
            Ok(LearnCase {
                trace,
                stats: monitor.model().stats(),
                states: monitor.model().num_states(),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    probes::learner_layers(&cases, &LearnerConfig::default(), &mut recorder, report);

    let specs = setup.specs.clone();
    recorder
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
    probes::serving_layers(
        &setup.streams,
        &setup.monitors,
        &mut setup.registry,
        &setup.options,
        &mut recorder,
        report,
    );
    crate::write_spans(args, &recorder, report)
}
