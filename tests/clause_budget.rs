//! The clause budget is enforced before a CNF is built: a full-trace learn
//! whose first encoding exceeds `LearnerConfig::max_clauses` must report
//! `BudgetExhausted` without materialising the formula it refuses. A
//! counting `#[global_allocator]` measures the bytes allocated; the binary
//! holds exactly one test so no parallel test can pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use tracelearn::learn::encoding::AutomatonEncoder;
use tracelearn::learn::{LearnError, Learner, LearnerConfig, PredicateExtractor};
use tracelearn::workloads::Workload;

/// Counts the bytes requested from the allocator while `COUNTING` is set.
struct CountingAllocator;

static COUNTING: AtomicBool = AtomicBool::new(false);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain atomics.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `f` and returns its result with the bytes it allocated.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, u64) {
    BYTES.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let value = f();
    COUNTING.store(false, Ordering::SeqCst);
    (value, BYTES.load(Ordering::SeqCst))
}

#[test]
fn over_budget_full_trace_learn_does_not_build_its_cnf() {
    let trace = Workload::UsbAttach.generate(4_000);
    let config = LearnerConfig::non_segmented();

    // The formula a full-trace learn would build at its first state count:
    // the whole predicate sequence as one window.
    let (sequence, _) = PredicateExtractor::new(
        &trace,
        config.window,
        config.synthesis.clone(),
        &config.input_variables,
    )
    .expect("usb_attach is extractable")
    .extract();
    let encoder = AutomatonEncoder::new(vec![sequence], config.initial_states);
    let estimate = encoder.estimated_clauses();
    let (encoding, cnf_bytes) = allocated_by(|| encoder.encode());
    assert!(encoding.cnf.num_clauses() > estimate / 2);
    drop(encoding);

    for threads in [1, 2] {
        let learner = Learner::new(LearnerConfig {
            max_clauses: estimate / 2,
            num_threads: threads,
            ..config.clone()
        });
        let (result, learn_bytes) = allocated_by(|| learner.learn(&trace));
        assert!(
            matches!(result, Err(LearnError::BudgetExhausted { .. })),
            "expected a clause-budget refusal at {threads} thread(s), got {result:?}"
        );
        assert!(
            learn_bytes * 4 < cnf_bytes,
            "an over-budget learn at {threads} thread(s) allocated {learn_bytes} bytes, \
             against {cnf_bytes} for the CNF it refused"
        );
    }
}
