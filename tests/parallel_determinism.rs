//! Determinism suite for the parallel learning pipeline: `learn_many` must
//! return bit-identical models for any worker-thread count on all six paper
//! workloads, the state count must stay minimal at every thread count, and
//! the search must stop promptly when budgets hit.
//!
//! CI runs this suite in release mode alongside the debug `cargo test` run.

use std::time::{Duration, Instant};
use tracelearn::learn::{LearnStats, Learner, LearnerConfig};
use tracelearn::prelude::*;
use tracelearn::trace::TraceSet;

/// Three independently seeded runs of a workload, merged into one set.
fn workload_set(workload: Workload) -> TraceSet {
    let length = match workload {
        Workload::UsbSlot => 39,
        Workload::UsbAttach => 259,
        Workload::Counter => 300,
        Workload::SerialPort => 600,
        Workload::LinuxKernel => 1200,
        Workload::Integrator => 1500,
    };
    let traces: Vec<Trace> = [1u64, 2, 3]
        .iter()
        .map(|&seed| workload.generate_seeded(length, 0xDAC2020 + seed))
        .collect();
    TraceSet::from_traces(traces.iter()).expect("shards share a signature")
}

fn config_for(workload: Workload) -> LearnerConfig {
    match workload {
        Workload::Integrator => LearnerConfig::default().with_input_variable("ip"),
        _ => LearnerConfig::default(),
    }
}

/// Zeroes the fields legitimately allowed to differ across thread counts:
/// the thread counter and the wall-clock phase times (the two speculation
/// counters are always 0 and scrubbed only for completeness).
fn scrubbed(stats: LearnStats) -> LearnStats {
    LearnStats {
        threads_used: 0,
        speculative_solves: 0,
        cancelled_solves: 0,
        ingest_time: Duration::ZERO,
        synthesis_time: Duration::ZERO,
        segmentation_time: Duration::ZERO,
        solver_time: Duration::ZERO,
        total_time: Duration::ZERO,
        ..stats
    }
}

#[test]
fn learn_many_is_bit_identical_across_thread_counts() {
    for workload in Workload::all() {
        let set = workload_set(workload);
        let config = config_for(workload);
        let reference = Learner::new(config.clone().with_num_threads(1))
            .learn_many(&set)
            .expect("sequential run learns");
        for threads in [2usize, 8] {
            let model = Learner::new(config.clone().with_num_threads(threads))
                .learn_many(&set)
                .expect("parallel run learns");
            let name = workload.name();
            assert_eq!(
                model.automaton(),
                reference.automaton(),
                "{name}: automaton differs at {threads} threads"
            );
            assert_eq!(
                model.predicate_sequences(),
                reference.predicate_sequences(),
                "{name}: predicate sequences differ at {threads} threads"
            );
            assert_eq!(
                model.alphabet(),
                reference.alphabet(),
                "{name}: alphabet differs at {threads} threads"
            );
            assert_eq!(
                scrubbed(model.stats()),
                scrubbed(reference.stats()),
                "{name}: stats (modulo thread counters) differ at {threads} threads"
            );
            assert_eq!(model.stats().threads_used, threads);
        }
    }
}

#[test]
fn state_count_is_minimal_at_every_thread_count() {
    // The search accepts a count only after every smaller count was refuted,
    // so its answer is the minimum satisfiable count at any thread count:
    // the single-threaded run must converge on the same count.
    for workload in [Workload::Counter, Workload::LinuxKernel] {
        let set = workload_set(workload);
        let config = config_for(workload);
        let parallel = Learner::new(config.clone().with_num_threads(8))
            .learn_many(&set)
            .expect("parallel run learns");
        let sequential = Learner::new(config.clone().with_num_threads(1))
            .learn_many(&set)
            .expect("sequential run learns");
        assert_eq!(parallel.num_states(), sequential.num_states());
        // No count below the answer is satisfiable-and-compliant: a search
        // capped just under the answer must fail.
        if parallel.num_states() > config.initial_states {
            let mut capped = config.clone().with_num_threads(8);
            capped.max_states = parallel.num_states() - 1;
            assert!(
                Learner::new(capped).learn_many(&set).is_err(),
                "{}: a smaller automaton should not exist",
                workload.name()
            );
        }
    }
}

#[test]
fn searches_stop_promptly_when_conflict_budgets_hit() {
    // A conflict budget too small to decide anything: the single- and
    // multi-threaded runs must report the identical budget error, promptly.
    let set = workload_set(Workload::LinuxKernel);
    let mut tiny = config_for(Workload::LinuxKernel);
    tiny.max_conflicts = Some(1);
    let sequential = Learner::new(tiny.clone().with_num_threads(1)).learn_many(&set);
    let start = Instant::now();
    let parallel = Learner::new(tiny.with_num_threads(8)).learn_many(&set);
    assert!(
        start.elapsed() < Duration::from_secs(120),
        "the budget did not stop the search promptly"
    );
    match (sequential, parallel) {
        (
            Err(LearnError::BudgetExhausted { resource: a }),
            Err(LearnError::BudgetExhausted { resource: b }),
        ) => assert_eq!(a, b, "both searches must fail at the same point"),
        other => panic!("expected matching budget errors, got {other:?}"),
    }
}

#[test]
fn time_budget_errors_match_across_thread_counts() {
    let set = workload_set(Workload::Counter);
    let config = config_for(Workload::Counter).with_time_budget(Duration::from_nanos(1));
    let sequential = Learner::new(config.clone().with_num_threads(1)).learn_many(&set);
    let parallel = Learner::new(config.with_num_threads(4)).learn_many(&set);
    match (sequential, parallel) {
        (
            Err(LearnError::BudgetExhausted { resource: a }),
            Err(LearnError::BudgetExhausted { resource: b }),
        ) => assert_eq!(a, b),
        other => panic!("expected matching budget errors, got {other:?}"),
    }
}

/// A full-trace (`segmented: false`) `usb_attach` instance whose first
/// state count takes several seconds in one SAT query: the wall-clock budget
/// must stop that query from inside the solver, not only between queries.
/// Ignored in debug builds (the timing is meaningful in release only).
#[cfg_attr(
    debug_assertions,
    ignore = "run in release builds (CI: cargo test --release)"
)]
#[test]
fn time_budget_stops_a_long_sat_query() {
    let trace = Workload::UsbAttach.generate(16_000);
    let budget = Duration::from_secs(1);
    let config = LearnerConfig {
        segmented: false,
        initial_states: 7,
        ..LearnerConfig::default()
    }
    .with_num_threads(1)
    .with_time_budget(budget);
    let start = Instant::now();
    let result = Learner::new(config).learn(&trace);
    let elapsed = start.elapsed();
    match result {
        Err(LearnError::BudgetExhausted { resource }) => {
            assert_eq!(
                resource,
                format!("wall-clock budget of {budget:?} exceeded")
            );
        }
        other => panic!("expected wall-clock budget exhaustion, got {other:?}"),
    }
    assert!(
        elapsed < budget + Duration::from_secs(1),
        "budget of {budget:?} overrun: returned after {elapsed:?}"
    );
}
