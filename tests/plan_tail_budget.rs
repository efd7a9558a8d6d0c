//! A deterministic work budget for the planner's tail — block generation,
//! division scheduling, the pass pipeline — and for the verifier's and the
//! simulator's walks over its plan: heap allocations (calls and bytes),
//! which depend on the input and the code, never on the host.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use dcp::blocks::{BatchLayout, BlockConfig};
use dcp::core::{Planner, PlannerConfig};
use dcp::mask::MaskSpec;
use dcp::sched::{build_plan, verify_plan, PassConfig, PassManager, ScheduleConfig};
use dcp::sim::simulate_plan;
use dcp::types::{AttnSpec, ClusterSpec};

static ON: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards to `System` unchanged; the counters are
// plain atomics and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            CALLS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, which
        // is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with the
        // same layout, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            CALLS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        // SAFETY: as for `dealloc`; `new_size` is the caller's obligation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `alloc` + `realloc` calls `f` makes and the bytes they ask for (a
/// `realloc` counts its whole new size; this file has one test, so nothing
/// else allocates meanwhile).
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    ON.store(true, Ordering::Relaxed);
    let out = f();
    ON.store(false, Ordering::Relaxed);
    let calls = CALLS.load(Ordering::Relaxed) - before.0;
    (out, calls, BYTES.load(Ordering::Relaxed) - before.1)
}

/// `work_budget.rs`'s long-document batch: one 131 072-token causal document
/// on 32 devices, 16 512 computation blocks, a plan of 1 340 instructions and
/// 5 407 transfers (1 669 and 7 977 before coarsening contracted the
/// document's 4 x 4 block-grid tiles and the placement changed). Keyed by
/// hashed `Payload`s, with a fresh `Vec` per `remote_inputs` call and a
/// cloned per-source map per block per middle division, the parent
/// allocated 215 003 times in `build_plan`, 10 395 in the pass pipeline and
/// 2 606 in `BatchLayout::build`. On dense tables reused from device to
/// device the counts were 3 574, 401 (29 of them `dead_comm`, the only
/// rewrite there is now) and 542. Cut by cost, the divisions are fewer and
/// `build_plan` allocates 2 168 times (2 187 on the tiled placement): the
/// cut search's scratch is per phase, not per device. The layout's 542
/// calls asked for 4 109 140 bytes while a mask was 20 bytes per token; as
/// runs it was 540 calls and 1 485 748 bytes — the blocks and two consumer
/// lists per token block. Without the lists it is 25 calls and 1 337 268
/// bytes: the blocks, nothing sized by the tokens.
///
/// The same plan's two walks. With arrivals in per-device hash maps, the
/// verifier's accumulators in hash sets and a `Vec` of partials per reduce
/// item, `verify_plan` allocated 1 881 times (1 606 558 bytes); on flat
/// tables it was 322 (1 445 334 bytes) — 13 tables per phase, plus one list
/// of resolved inputs per `Attn`/`AttnBwd`/`Reduce`. The tiled placement's
/// plan has 306 of those instructions instead of 296, so `verify_plan`
/// allocates 332 times (1 358 807 bytes). `simulate_plan` allocated 3 646
/// times (1 892 256 bytes; 4 457 and 2 759 396 before that) while the
/// network engine collected each flow's path into a list of its own, one
/// flow per (op, source, destination). With every path in one flat array
/// and no list per flow it allocates 1 884 times (1 705 148 bytes).
/// Neither walk allocates per transfer or per block.
#[test]
fn long_document_tail_stays_inside_its_allocation_budget() {
    let attn = AttnSpec::paper_micro();
    let seqs = [(131_072, MaskSpec::Causal)];
    let cfg = PlannerConfig {
        block_size: 1024,
        ..Default::default()
    };
    let placement = Planner::new(ClusterSpec::p4de(4), attn, cfg)
        .plan(&seqs)
        .unwrap()
        .placement;

    let blocks = BlockConfig::with_block_size(&attn, 1024);
    let (layout, in_layout, layout_bytes) =
        allocations(|| BatchLayout::build(attn, blocks, &seqs).unwrap());
    assert_eq!(layout.comp_blocks.len(), 16_512);
    let (plan, in_build_plan, _) =
        allocations(|| build_plan(&layout, &placement, &ScheduleConfig::default()).unwrap());
    let mut plan = plan;
    let passes = PassManager::new(PassConfig::optimize());
    let (outcomes, in_run_plan, _) =
        allocations(|| passes.run_plan(&layout, &placement, &mut plan));
    assert!(!outcomes.is_empty());
    let (verified, in_verify, verify_bytes) =
        allocations(|| verify_plan(&layout, &placement, &plan));
    verified.unwrap();
    let (simulated, in_simulate, simulate_bytes) =
        allocations(|| simulate_plan(&ClusterSpec::p4de(4), &plan));
    simulated.unwrap();
    assert!(in_layout <= 25, "BatchLayout::build: {in_layout}");
    assert!(
        layout_bytes <= 1_337_268,
        "BatchLayout::build: {layout_bytes} B"
    );
    assert!(in_build_plan <= 40_000, "build_plan: {in_build_plan}");
    assert!(in_run_plan <= 29, "run_plan: {in_run_plan}");
    assert!(in_verify <= 332, "verify_plan: {in_verify}");
    assert!(verify_bytes <= 1_358_807, "verify_plan: {verify_bytes} B");
    assert!(in_simulate <= 1_884, "simulate_plan: {in_simulate}");
    assert!(
        simulate_bytes <= 1_705_148,
        "simulate_plan: {simulate_bytes} B"
    );

    // Planning never touches a token: the same block grid over four times
    // the tokens asks the allocator for exactly the same memory.
    let blocks = BlockConfig::with_block_size(&attn, 4 * 1024);
    let seqs = [(4 * 131_072, MaskSpec::Causal)];
    let (wide, calls, bytes) = allocations(|| BatchLayout::build(attn, blocks, &seqs).unwrap());
    assert_eq!(wide.comp_blocks.len(), layout.comp_blocks.len());
    assert_eq!((calls, bytes), (in_layout, layout_bytes));
}
