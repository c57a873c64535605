//! Regression test for the batched flood runner's allocation contract:
//! after a warm-up pass, [`FloodBatch`] must execute further floods —
//! *including floods whose source-set sizes differ from each other and
//! from the warm-up's* — without touching the global allocator. This is
//! the property that makes per-flood cost the intrinsic `O(messages)`
//! work in the throughput benchmark.
//!
//! The test installs a counting `#[global_allocator]` (this file is its
//! own test binary, so the hook is invisible to every other suite) and
//! asserts the allocation counter does not move across the second pass.
//! The counter is process-wide, so the tests take turns: each holds
//! [`SERIAL`] for its whole body, and no other test thread allocates
//! inside its measured window.

use amnesiac_flooding::core::obs::{NdjsonTraceWriter, NoopProbe, SharedProbe};
use amnesiac_flooding::core::{FloodBatch, FloodEngine, FloodStats};
use amnesiac_flooding::graph::{generators, Graph, NodeId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

mod common;
use common::{source_set_for, EngineStarts};

/// System allocator wrapper counting every `alloc`/`realloc` call.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Held by every test of this file for its whole body.
static SERIAL: Mutex<()> = Mutex::new(());

/// Takes this file's test lock; a test that panicked while holding it
/// has already failed, so its poison is ignored.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn warm_flood_batch_is_allocation_free_across_mixed_set_sizes() {
    let _serial = serial();
    let g = generators::sparse_connected(600, 900, 42);

    // Mixed source-set sizes off the shared ladder: sqrt(n)-sized sets
    // (selector 3) interleaved with singletons, triples, and pairs.
    let source_sets: Vec<Vec<NodeId>> = [3usize, 0, 2, 3, 1, 0, 3]
        .into_iter()
        .enumerate()
        .map(|(i, selector)| source_set_for(g.node_count(), selector, 42 ^ i as u64))
        .collect();

    let mut batch = FloodBatch::new(&g);

    // Pass 1 (warm-up): grows every internal buffer to its high-water
    // mark and records the expected per-flood results.
    let mut expected = Vec::with_capacity(source_sets.len());
    for set in &source_sets {
        expected.push(batch.run_from(set.iter().copied()));
    }

    // Pass 2: identical floods, zero allocator traffic allowed.
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let mut mismatches = 0usize;
    for (set, want) in source_sets.iter().zip(&expected) {
        let got = batch.run_from(set.iter().copied());
        if got != *want {
            mismatches += 1;
        }
    }
    let delta = ALLOCATIONS.load(Ordering::SeqCst) - before;

    assert_eq!(mismatches, 0, "reused batch diverged from warm-up results");
    assert_eq!(
        delta, 0,
        "FloodBatch::reset allocated {delta} times across mixed source-set sizes"
    );

    // Sanity: the floods did real work and the counter is live.
    assert!(expected.iter().all(FloodStats::terminated));
    assert!(expected.iter().all(|s| s.total_messages() > 0));
    let probe: Vec<u8> = vec![1, 2, 3];
    assert!(ALLOCATIONS.load(Ordering::SeqCst) > before, "{probe:?}");
}

/// PR-8 observability contract: attaching a probe must not change the
/// allocation story. A warm flood with the no-op probe — the "probe
/// slot occupied but nobody listening" configuration — stays
/// allocation-free.
#[test]
fn warm_flood_with_noop_probe_is_allocation_free() {
    let _serial = serial();
    let g = generators::sparse_connected(600, 900, 42);
    let source_sets: Vec<Vec<NodeId>> = [3usize, 0, 2, 1]
        .into_iter()
        .enumerate()
        .map(|(i, selector)| source_set_for(g.node_count(), selector, 7 ^ i as u64))
        .collect();

    let mut batch = FloodBatch::new(&g);
    let probe: SharedProbe = Rc::new(RefCell::new(NoopProbe));
    batch.set_probe(Some(probe));

    // Pass 1 (warm-up) with the probe attached throughout.
    let mut expected = Vec::with_capacity(source_sets.len());
    for set in &source_sets {
        expected.push(batch.run_from(set.iter().copied()));
    }

    // Pass 2: zero allocator traffic allowed.
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for (set, want) in source_sets.iter().zip(&expected) {
        let got = batch.run_from(set.iter().copied());
        assert_eq!(&got, want, "probed batch diverged from warm-up");
    }
    let delta = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(delta, 0, "no-op probe allocated {delta} times when warm");
}

/// The full tracing configuration: a warm flood writing complete NDJSON
/// traces into a pre-opened `Vec<u8>` sink allocates nothing — the sink
/// and the writer's line buffer reach their high-water marks during
/// warm-up and are reused byte-for-byte afterwards.
#[test]
fn warm_traced_flood_is_allocation_free_and_deterministic() {
    let _serial = serial();
    let g = generators::sparse_connected(600, 900, 42);
    let source_sets: Vec<Vec<NodeId>> = [3usize, 0, 2, 1]
        .into_iter()
        .enumerate()
        .map(|(i, selector)| source_set_for(g.node_count(), selector, 9 ^ i as u64))
        .collect();

    let mut batch = FloodBatch::new(&g);
    let writer = Rc::new(RefCell::new(NdjsonTraceWriter::new(Vec::new())));
    batch.set_probe(Some(writer.clone()));

    // Pass 1 (warm-up): floods trace into the growing sink.
    let mut expected = Vec::with_capacity(source_sets.len());
    for set in &source_sets {
        expected.push(batch.run_from(set.iter().copied()));
    }
    let warm_trace = {
        let mut w = writer.borrow_mut();
        let bytes = w.sink_mut().clone();
        // Keep the sink's capacity, drop its contents: the "pre-opened
        // sink" a long-lived tracing session reuses.
        w.sink_mut().clear();
        bytes
    };
    assert!(!warm_trace.is_empty(), "warm-up floods produced traces");

    // Pass 2: identical floods, identical trace bytes, zero allocations.
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for (set, want) in source_sets.iter().zip(&expected) {
        let got = batch.run_from(set.iter().copied());
        assert_eq!(&got, want, "traced batch diverged from warm-up");
    }
    let delta = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(delta, 0, "warm traced flood allocated {delta} times");
    assert_eq!(
        writer.borrow_mut().sink_mut().as_slice(),
        warm_trace.as_slice(),
        "the second pass traced byte-identically"
    );
}

#[test]
fn warm_bitlane_batch_is_allocation_free_across_mixed_set_sizes() {
    let _serial = serial();
    let g = generators::sparse_connected(600, 900, 42);

    // 70 mixed-size sets: more than one 64-lane word, so the second pass
    // exercises a full chunk AND the 6-lane tail through the chunked
    // bit-parallel runner.
    let source_sets: Vec<Vec<NodeId>> = (0..70)
        .map(|i| source_set_for(g.node_count(), [3usize, 0, 2, 1][i % 4], 42 ^ i as u64))
        .collect();

    let mut batch = FloodBatch::with_engine(&g, FloodEngine::BitLane);

    // Pass 1 (warm-up): grows every internal buffer — lane words, active
    // lists, receipt scratch — to its high-water mark.
    let mut expected = Vec::with_capacity(source_sets.len());
    batch.run_many_into(&source_sets, &mut expected);

    // Pass 2: identical floods into a pre-sized output vector, zero
    // allocator traffic allowed.
    let mut got = Vec::with_capacity(source_sets.len());
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    batch.run_many_into(&source_sets, &mut got);
    let delta = ALLOCATIONS.load(Ordering::SeqCst) - before;

    assert_eq!(got, expected, "reused bitlane batch diverged from warm-up");
    assert_eq!(
        delta, 0,
        "bitlane FloodBatch allocated {delta} times across mixed source-set sizes"
    );

    // Sanity: real floods, and the bitlane engine agrees with the
    // frontier engine on every one of them.
    assert!(expected.iter().all(FloodStats::terminated));
    assert!(expected.iter().all(|s| s.total_messages() > 0));
    let mut frontier = FloodBatch::new(&g);
    let reference: Vec<_> = frontier.run_many(&source_sets);
    assert_eq!(expected, reference);
}

/// Runs `sets` through a warm auto batch twice and returns the second
/// pass's allocation count, after checking both passes against the
/// frontier engine. Also returns the `(frontier, bitlane)` flood starts
/// of one pass.
fn warm_auto_allocations(g: &Graph, sets: &[Vec<NodeId>]) -> (u64, (usize, usize)) {
    let starts = Rc::new(RefCell::new(EngineStarts::default()));
    let mut batch = FloodBatch::new(g);
    batch.set_probe(Some(starts.clone()));
    let mut expected = Vec::with_capacity(sets.len());
    batch.run_many_into(sets, &mut expected);
    let one_pass = {
        let s = starts.borrow();
        (s.frontier, s.bitlane)
    };

    let mut got = Vec::with_capacity(sets.len());
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    batch.run_many_into(sets, &mut got);
    let delta = ALLOCATIONS.load(Ordering::SeqCst) - before;

    assert_eq!(got, expected, "reused auto batch diverged from warm-up");
    let reference = FloodBatch::with_engine(g, FloodEngine::Frontier).run_many(sets);
    assert_eq!(expected, reference, "auto batch disagrees with frontier");
    (delta, one_pass)
}

#[test]
fn warm_auto_batch_is_allocation_free_in_both_branches() {
    let _serial = serial();

    // Packed: 70 single sources on a sparse random graph, whose wide,
    // overlapping wavefronts put set 0's arc occupancy far above 1/2 —
    // set 0 on frontier, then a 64-lane and a 5-lane bitlane run.
    let g = generators::sparse_connected(600, 900, 42);
    let sets: Vec<Vec<NodeId>> = (0..70).map(|i| vec![NodeId::new(i * 7)]).collect();
    let (delta, starts) = warm_auto_allocations(&g, &sets);
    assert_eq!(starts, (1, 2), "sparse random batch must pack");
    assert_eq!(delta, 0, "warm packed auto batch allocated {delta} times");

    // Sequential: on a long path every wavefront is one arc wide, so the
    // batch stays on frontier flood by flood.
    let g = generators::path(600);
    let sets: Vec<Vec<NodeId>> = (0..70).map(|i| vec![NodeId::new(i * 7)]).collect();
    let (delta, starts) = warm_auto_allocations(&g, &sets);
    assert_eq!(starts, (70, 0), "path batch must stay on frontier");
    assert_eq!(
        delta, 0,
        "warm sequential auto batch allocated {delta} times"
    );

    // A lone flood of an odd round count: a star flooded from its centre
    // sends on every arc in round 1 and terminates. The warm repeat must
    // start on the buffer that already holds that round.
    let g = generators::star(40);
    let (delta, starts) = warm_auto_allocations(&g, &[vec![NodeId::new(0)]]);
    assert_eq!(starts, (1, 0));
    assert_eq!(delta, 0, "warm odd-round flood allocated {delta} times");
}
