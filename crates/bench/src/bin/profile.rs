//! Stage-by-stage timing of the learning pipeline on one workload — an
//! ablation/diagnostic aid (not a paper artefact).
//!
//! ```text
//! profile <workload> <length> [--threads N] [--shards S] [--sat-stats]
//! ```
//!
//! Prints a per-phase wall-time breakdown (ingest / abstract / segment /
//! SAT) for the streamed and in-memory pipelines — so the next perf target
//! can be picked from data, not anecdote — plus the k-tails baseline for
//! context. `--threads N` sets the learner's worker-thread count (0 = the
//! machine's available parallelism); `--shards S` splits the workload into
//! `S` independently seeded runs learned as one `TraceSet` through the
//! parallel shard-extraction path; `--sat-stats` adds the solver-quality
//! counters (learnt-clause LBD histogram and conflict-clause-minimization
//! totals) to each phase breakdown.

use std::env;
use std::time::Instant;
use tracelearn_bench::learner_config_for;
use tracelearn_core::{LearnStats, Learner, PredicateExtractor};
use tracelearn_trace::{unique_windows, StreamingCsvReader, Trace, TraceSet};
use tracelearn_workloads::Workload;

/// Prints the solver-quality counters: the learnt-clause LBD ("glue")
/// histogram and the literals removed by conflict-clause minimization,
/// aggregated over the state-count search's solvers.
fn print_sat_stats(stats: &LearnStats) {
    let total: u64 = stats.lbd_histogram.iter().sum();
    println!("  sat quality:     {total} learnt clauses analysed");
    for (bucket, &count) in stats.lbd_histogram.iter().enumerate() {
        let label = if bucket + 1 == stats.lbd_histogram.len() {
            format!("glue >= {}", bucket + 1)
        } else {
            format!("glue  = {}", bucket + 1)
        };
        let share = if total > 0 {
            count as f64 * 100.0 / total as f64
        } else {
            0.0
        };
        println!("    {label}: {count:>8}  ({share:>5.1}%)");
    }
    println!(
        "    minimized literals: {} (avg {:.2} per learnt clause)",
        stats.minimized_literals,
        if total > 0 {
            stats.minimized_literals as f64 / total as f64
        } else {
            0.0
        }
    );
}

fn print_phases(label: &str, stats: &LearnStats) {
    println!("{label} phase breakdown:");
    println!("  ingest:          {:>10.2?}", stats.ingest_time);
    println!(
        "  abstract:        {:>10.2?}  ({} predicates, alphabet {})",
        stats.synthesis_time, stats.predicate_count, stats.alphabet_size
    );
    println!(
        "  segment:         {:>10.2?}  ({} unique windows)",
        stats.segmentation_time, stats.solver_windows
    );
    println!(
        "  sat:             {:>10.2?}  ({} queries, {} solvers, {} refinements)",
        stats.solver_time, stats.sat_queries, stats.solvers_constructed, stats.refinements
    );
    println!(
        "  total:           {:>10.2?}  ({} states, {} threads)",
        stats.total_time, stats.states, stats.threads_used
    );
}

fn main() {
    let mut positional: Vec<String> = Vec::new();
    let mut threads = 0usize;
    let mut shards = 1usize;
    let mut sat_stats = false;
    let mut arguments = env::args().skip(1);
    while let Some(argument) = arguments.next() {
        match argument.as_str() {
            "--sat-stats" => sat_stats = true,
            "--threads" => {
                threads = arguments
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--threads takes a number");
            }
            "--shards" => {
                shards = arguments
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&s| s > 0)
                    .expect("--shards takes a positive number");
            }
            _ => positional.push(argument),
        }
    }
    let name = positional
        .first()
        .cloned()
        .unwrap_or_else(|| "integrator".to_owned());
    let length: usize = positional
        .get(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1024);
    let workload = match name.as_str() {
        "usb-slot" => Workload::UsbSlot,
        "usb-attach" => Workload::UsbAttach,
        "counter" => Workload::Counter,
        "serial" => Workload::SerialPort,
        "rtlinux" => Workload::LinuxKernel,
        _ => Workload::Integrator,
    };
    let config = learner_config_for(workload).with_num_threads(threads);
    let learner = Learner::new(config.clone());
    println!(
        "== {} · {length} observations · {} worker thread(s) ==",
        workload.name(),
        learner.effective_threads()
    );

    let start = Instant::now();
    let trace = workload.generate(length);
    println!("generate:          {:>10.2?}", start.elapsed());

    let start = Instant::now();
    let extractor = PredicateExtractor::new(
        &trace,
        config.window,
        config.synthesis.clone(),
        &config.input_variables,
    )
    .expect("extractable");
    println!(
        "input detection:   {:>10.2?}  (inputs: {:?})",
        start.elapsed(),
        extractor.input_variables()
    );

    let start = Instant::now();
    let (sequence, alphabet) = extractor.extract();
    println!(
        "extraction:        {:>10.2?}  ({} predicates, alphabet {})",
        start.elapsed(),
        sequence.len(),
        alphabet.len()
    );

    let start = Instant::now();
    let windows = unique_windows(&sequence, config.window);
    println!(
        "segmentation:      {:>10.2?}  ({} unique windows)",
        start.elapsed(),
        windows.len()
    );
    for (id, _) in alphabet.iter() {
        println!(
            "  label {id}: {}",
            alphabet.render(id, trace.signature(), trace.symbols())
        );
    }

    for k in [2usize, 3, 4] {
        let start = Instant::now();
        let events = tracelearn_statemerge::trace_to_events(&trace);
        let model = tracelearn_statemerge::StateMergeLearner::new(
            tracelearn_statemerge::StateMergeConfig {
                algorithm: tracelearn_statemerge::MergeAlgorithm::KTails,
                k,
            },
        )
        .learn(&[events]);
        println!(
            "ktails k={k}:         {:>10.2?}  ({} states)",
            start.elapsed(),
            model.num_states()
        );
    }

    // Streamed pipeline: includes the ingest phase the in-memory run lacks.
    let mut csv = Vec::new();
    workload
        .write_csv(length, 0xDAC2020, &mut csv)
        .expect("writing to a Vec cannot fail");
    let reader = StreamingCsvReader::new(csv.as_slice()).expect("parseable header");
    match learner.learn_streamed(reader) {
        Ok(model) => {
            print_phases("streamed learn", &model.stats());
            if sat_stats {
                print_sat_stats(&model.stats());
            }
        }
        Err(error) => println!("streamed learn failed: {error}"),
    }

    // In-memory pipeline, optionally sharded across independent runs.
    if shards > 1 {
        let traces: Vec<Trace> = (0..shards)
            .map(|i| workload.generate_seeded(length, 0xDAC2020 + i as u64))
            .collect();
        let set = TraceSet::from_traces(traces.iter()).expect("shards share a signature");
        match learner.learn_many(&set) {
            Ok(model) => {
                print_phases(&format!("learn_many ({shards} shards)"), &model.stats());
                if sat_stats {
                    print_sat_stats(&model.stats());
                }
            }
            Err(error) => println!("learn_many failed: {error}"),
        }
    } else {
        match learner.learn(&trace) {
            Ok(model) => {
                print_phases("full learn", &model.stats());
                if sat_stats {
                    print_sat_stats(&model.stats());
                }
            }
            Err(error) => println!("full learn failed: {error}"),
        }
    }
}
