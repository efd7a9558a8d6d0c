//! The look-ahead planning dataloader (paper Sec. 6.1), hardened.
//!
//! The paper overlaps planning with GPU execution: while iteration `i`
//! runs, the plans for iterations `i+1 ..= i+kappa` are computed in
//! parallel on CPU cores and shipped to devices through a key-value store.
//! Here the "KV store" is an in-process channel per iteration and the CPU
//! pool is the loader's own planning threads; the observable contract is
//! the same — `next()` returns `(batch, plan)` pairs in order, with
//! planning latency hidden behind the look-ahead window.
//!
//! Robustness: a planning worker that panics, times out, or returns an
//! error does not lose the batch. The loader re-plans synchronously (with
//! bounded retries and backoff per [`RetryConfig`]) and only after
//! exhausting the retries surfaces a typed
//! [`DcpError::PlanningFailed`] carrying the batch index and attempt
//! count. A failed batch never poisons later batches: every iteration has
//! its own channel, so the stream keeps yielding. Every recovery incident
//! is recorded as a structured [`ReplanEvent`] (batch index, failure
//! class, attempts, recovery wall time) via
//! [`DcpDataloader::replan_events`].
//!
//! Look-ahead planning runs on a small pool of dedicated worker threads
//! (sized with [`DcpDataloader::with_workers`]) rather than one spawned
//! task per batch: the pool bounds planning CPU, keeps the rayon pool free
//! for intra-plan parallelism, and a panicking plan kills only the batch
//! (the worker catches it and survives for the next job).

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dcp_data::Batch;
use dcp_mask::MaskSpec;
use dcp_obs::{Event, ObsHandle, Source as ObsSource};
use dcp_sched::verify_plan;
use dcp_types::{DcpError, DcpResult};
use serde::{Deserialize, Serialize};

use crate::planner::{PlanOutput, Planner};

/// How the dataloader reacts to slow, dead, or failing planning workers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryConfig {
    /// Per-batch deadline on the look-ahead worker's result. `None` waits
    /// indefinitely (a dead worker is still detected via channel
    /// disconnect). The deadline also budgets the retry path: backoff
    /// sleeps are clamped to whatever of it the worker wait left unspent,
    /// so one batch's waiting never exceeds roughly two deadlines.
    pub batch_deadline: Option<Duration>,
    /// Synchronous re-plan attempts after the look-ahead result failed.
    pub max_retries: u32,
    /// Sleep between consecutive re-plan attempts (linear backoff:
    /// attempt `k` sleeps `k * backoff`, clamped to the remaining
    /// [`RetryConfig::batch_deadline`] budget when one is set).
    pub backoff: Duration,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            batch_deadline: None,
            max_retries: 1,
            backoff: Duration::from_millis(10),
        }
    }
}

/// The planning function the dataloader drives: maps a batch's sequences
/// to a plan. [`DcpDataloader::new`] wraps [`Planner::plan`]; tests and
/// instrumented callers can substitute their own via
/// [`DcpDataloader::with_plan_fn`].
pub type PlanFn = dyn Fn(&[(u32, MaskSpec)]) -> DcpResult<PlanOutput> + Send + Sync;

/// Why a look-ahead plan result was unusable and the batch was re-planned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailureClass {
    /// The worker's channel disconnected: the planning closure panicked.
    WorkerDied,
    /// The worker missed [`RetryConfig::batch_deadline`].
    Timeout,
    /// The planning function returned an error.
    PlanError,
}

impl FailureClass {
    /// Stable lowercase label (used in benchmark reports).
    pub fn label(&self) -> &'static str {
        match self {
            FailureClass::WorkerDied => "worker_died",
            FailureClass::Timeout => "timeout",
            FailureClass::PlanError => "plan_error",
        }
    }
}

/// A checkpoint of the dataloader's planning progress: the consume cursor
/// plus every planned-but-unconsumed [`PlanOutput`] in the look-ahead
/// window. Restoring after a restart resumes the stream at the same batch
/// without re-planning the window ([`DcpDataloader::snapshot`] /
/// [`DcpDataloader::restore`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DataloaderSnapshot {
    /// Number of batches already handed out.
    pub consumed: usize,
    /// Planned-but-unconsumed results, contiguous from `consumed`, as
    /// `(batch_index, plan)` pairs.
    pub planned: Vec<(usize, PlanOutput)>,
}

impl DataloaderSnapshot {
    /// Serializes the snapshot to JSON.
    ///
    /// # Errors
    ///
    /// Returns [`DcpError::Serialization`] if encoding fails.
    pub fn to_json(&self) -> DcpResult<String> {
        serde_json::to_string(self).map_err(|e| DcpError::Serialization(e.to_string()))
    }

    /// Deserializes a snapshot from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`DcpError::Serialization`] on malformed input.
    pub fn from_json(s: &str) -> DcpResult<Self> {
        serde_json::from_str(s).map_err(|e| DcpError::Serialization(e.to_string()))
    }
}

/// One planning-recovery incident: a batch whose look-ahead result was
/// unusable and had to be re-planned synchronously.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplanEvent {
    /// Which batch failed.
    pub batch_index: usize,
    /// How the look-ahead result failed.
    pub failure: FailureClass,
    /// Synchronous re-plan attempts performed (≥ 1 whenever retries are
    /// enabled; `0` when `max_retries == 0` and the failure surfaced
    /// directly).
    pub attempts: u32,
    /// Whether a retry produced a usable plan (`false` means the batch
    /// surfaced as [`DcpError::PlanningFailed`]).
    pub recovered: bool,
    /// Wall-clock seconds from detecting the failure to recovery (or to
    /// giving up), including retry backoff sleeps.
    pub recovery_wall_s: f64,
}

/// Runs `plan_fn` on `seqs`; `None` when it panicked. The one place a
/// planning panic is caught, for pool workers and synchronous re-plans
/// alike.
fn plan_caught(plan_fn: &PlanFn, seqs: &[(u32, MaskSpec)]) -> Option<DcpResult<PlanOutput>> {
    catch_unwind(AssertUnwindSafe(|| plan_fn(seqs))).ok()
}

/// Waits for a look-ahead result, up to `deadline`. `Err((class, msg))`
/// describes a slow or dead worker.
fn await_plan(
    rx: &Receiver<DcpResult<PlanOutput>>,
    deadline: Option<Duration>,
) -> Result<DcpResult<PlanOutput>, (FailureClass, String)> {
    let died = || {
        (
            FailureClass::WorkerDied,
            "planning worker died (panicked)".to_string(),
        )
    };
    match deadline {
        Some(deadline) => rx.recv_timeout(deadline).map_err(|e| match e {
            RecvTimeoutError::Timeout => (
                FailureClass::Timeout,
                format!("planning worker missed the {deadline:?} deadline"),
            ),
            RecvTimeoutError::Disconnected => died(),
        }),
        None => rx.recv().map_err(|_| died()),
    }
}

/// A fixed pool of detached planning threads consuming look-ahead jobs.
///
/// A panic inside the planning closure is caught so the worker survives;
/// the per-batch result channel is dropped instead, which the consumer
/// observes as a disconnect ([`FailureClass::WorkerDied`]). Workers exit
/// when the job sender (owned by the loader) is dropped.
struct WorkerPool {
    jobs: Sender<PlanJob>,
    size: usize,
}

/// One look-ahead planning job: the batch to plan and the per-batch channel
/// its result (or disconnect, on panic) is delivered on.
type PlanJob = (Vec<(u32, MaskSpec)>, SyncSender<DcpResult<PlanOutput>>);

impl WorkerPool {
    fn new(size: usize, plan_fn: Arc<PlanFn>) -> Self {
        let size = size.max(1);
        let (jobs, rx) = channel::<PlanJob>();
        let rx = Arc::new(Mutex::new(rx));
        for w in 0..size {
            let rx = Arc::clone(&rx);
            let plan_fn = Arc::clone(&plan_fn);
            std::thread::Builder::new()
                .name(format!("dcp-plan-{w}"))
                .spawn(move || loop {
                    // The guard drops at the end of this statement: the lock
                    // is held while waiting for a job, never while planning,
                    // so workers plan concurrently and a panic cannot poison it.
                    let job = rx.lock().expect("job queue lock").recv();
                    let Ok((seqs, tx)) = job else { break };
                    // On a panic, dropping `tx` without sending signals it
                    // to the consumer as a disconnect.
                    if let Some(result) = plan_caught(plan_fn.as_ref(), &seqs) {
                        let _ = tx.send(result);
                    }
                })
                .expect("failed to spawn planning worker thread");
        }
        WorkerPool { jobs, size }
    }

    fn submit(&self, seqs: Vec<(u32, MaskSpec)>, tx: SyncSender<DcpResult<PlanOutput>>) {
        let _ = self.jobs.send((seqs, tx));
    }
}

/// One submitted batch of the look-ahead window.
enum Slot {
    /// A plan in hand: restored from a snapshot, or drained by one.
    Planned(Box<PlanOutput>),
    /// A plan a pool worker delivers (or disconnects, on panic) here.
    Planning(Receiver<DcpResult<PlanOutput>>),
}

/// An iterator over `(batch, plan)` pairs with asynchronous look-ahead
/// planning and bounded retry on worker failure.
///
/// # Examples
///
/// ```
/// use dcp_core::{DcpDataloader, Planner, PlannerConfig};
/// use dcp_data::{pack_batches, sample_lengths, DatasetKind, MaskSetting};
/// use dcp_types::{AttnSpec, ClusterSpec};
///
/// let planner = Planner::new(
///     ClusterSpec::p4de(1),
///     AttnSpec::paper_micro(),
///     PlannerConfig::default(),
/// );
/// let lengths = sample_lengths(DatasetKind::LongDataCollections, 20, 1.0, 16384, 0);
/// let batches = pack_batches(&lengths, 32768, |l| MaskSetting::Causal.mask_for(l));
/// let n = batches.len();
/// let loader = DcpDataloader::new(planner, batches, 2);
/// let mut count = 0;
/// for item in loader {
///     let (_batch, plan) = item.unwrap();
///     assert_eq!(plan.num_devices(), 8);
///     count += 1;
/// }
/// assert_eq!(count, n);
/// ```
pub struct DcpDataloader {
    plan_fn: Arc<PlanFn>,
    batches: Vec<Batch>,
    /// Next batch index to hand out.
    consumed: usize,
    /// Look-ahead window κ.
    lookahead: usize,
    /// Retry/timeout policy.
    retry: RetryConfig,
    /// The submitted batches not yet handed out, in batch order from
    /// `consumed`: batch `consumed + slots.len()` is the next to submit.
    slots: VecDeque<Slot>,
    /// The fixed look-ahead planning pool.
    pool: WorkerPool,
    /// Structured log of every recovery incident, in batch order.
    events: Vec<ReplanEvent>,
    /// Observability sink. All emission happens on the consumer thread
    /// inside `next()`, in batch order, never on pool workers — so the
    /// recorded stream stays deterministic regardless of worker count.
    obs: ObsHandle,
}

impl DcpDataloader {
    /// Wraps `batches` with a planner and a look-ahead window of
    /// `lookahead` iterations (κ in the paper; 0 plans synchronously),
    /// using the default [`RetryConfig`].
    pub fn new(planner: Planner, batches: Vec<Batch>, lookahead: usize) -> Self {
        let planner = Arc::new(planner);
        Self::with_plan_fn(
            Arc::new(move |seqs: &[(u32, MaskSpec)]| planner.plan(seqs)),
            batches,
            lookahead,
            RetryConfig::default(),
        )
    }

    /// Fully general constructor taking the planning function directly.
    /// Used by fault-injection tests and callers wrapping the planner
    /// (e.g. with caching or instrumentation).
    pub fn with_plan_fn(
        plan_fn: Arc<PlanFn>,
        batches: Vec<Batch>,
        lookahead: usize,
        retry: RetryConfig,
    ) -> Self {
        // Pool sized to the look-ahead window (capped): more workers than
        // in-flight batches can never be busy.
        let pool = WorkerPool::new(lookahead.clamp(1, 4), Arc::clone(&plan_fn));
        DcpDataloader {
            plan_fn,
            batches,
            consumed: 0,
            lookahead,
            retry,
            slots: VecDeque::new(),
            pool,
            events: Vec::new(),
            obs: ObsHandle::noop(),
        }
    }

    /// Attaches an observability sink (builder style). The loader emits the
    /// look-ahead job lifecycle (`lookahead_submit` → `plan_wait` →
    /// `plan_ready`), per-attempt `replan_attempt` spans, recovery incidents
    /// (`recovery`/`recovery_failed` spans mirroring [`ReplanEvent`]), and
    /// re-emits the worker-side planner stage breakdown from
    /// [`crate::PlanStats`] in batch order.
    ///
    /// Attach the sink here *or* to the [`Planner`], not both: planner spans
    /// emitted from concurrent pool workers would interleave
    /// nondeterministically, so the loader replays them serially instead.
    pub fn with_obs(mut self, obs: ObsHandle) -> Self {
        self.obs = obs;
        self
    }

    /// Replaces the planning pool with one of `n` threads (builder style;
    /// call before iterating). The displaced pool's idle workers exit on
    /// their own once their job channel disconnects.
    pub fn with_workers(mut self, n: usize) -> Self {
        self.pool = WorkerPool::new(n, Arc::clone(&self.plan_fn));
        self
    }

    /// Number of planning worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.pool.size
    }

    /// Number of batches.
    pub fn len(&self) -> usize {
        self.batches.len()
    }

    /// Whether there are no batches.
    pub fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }

    /// Total synchronous re-plans performed so far (each one recovered a
    /// batch whose look-ahead worker died, timed out, or errored). This is
    /// the sum of [`ReplanEvent::attempts`] over [`Self::replan_events`].
    pub fn replans(&self) -> u64 {
        self.events.iter().map(|e| e.attempts as u64).sum()
    }

    /// Structured log of every recovery incident so far, in batch order.
    pub fn replan_events(&self) -> &[ReplanEvent] {
        &self.events
    }

    /// Checkpoints the loader: drains every in-flight look-ahead result
    /// (a barrier, honoring [`RetryConfig::batch_deadline`] per batch) into
    /// memory and returns the consume cursor plus all
    /// planned-but-unconsumed plans. The loader stays usable afterwards —
    /// drained plans are served from memory, nothing is re-planned.
    ///
    /// A worker that failed, timed out, or died during the drain truncates
    /// the snapshot at its batch: that batch and everything after it are
    /// simply planned again after [`Self::restore`] (or by this loader's
    /// look-ahead pool when iteration continues).
    pub fn snapshot(&mut self) -> DataloaderSnapshot {
        let mut planned = Vec::new();
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if let Slot::Planning(rx) = slot {
                match await_plan(rx, self.retry.batch_deadline) {
                    Ok(Ok(plan)) => *slot = Slot::Planned(Box::new(plan)),
                    _ => break,
                }
            }
            if let Slot::Planned(plan) = slot {
                planned.push((self.consumed + i, PlanOutput::clone(plan)));
            }
        }
        // Whatever was not drained cleanly must be re-submitted.
        self.slots.truncate(planned.len());
        let snap = DataloaderSnapshot {
            consumed: self.consumed,
            planned,
        };
        if self.obs.enabled() {
            self.obs.record(
                Event::instant(ObsSource::Dataloader, "snapshot")
                    .with_iter(self.consumed as u64)
                    .with_value(snap.planned.len() as f64),
            );
        }
        snap
    }

    /// Resumes from a [`DataloaderSnapshot`] (builder style; call before
    /// iterating): the consume cursor jumps to `snapshot.consumed` and the
    /// snapshot's plans are served without re-planning.
    ///
    /// The restored plans must match this loader's batches: each entry is
    /// accepted only while contiguous from the cursor, its layout's
    /// sequence lengths and masks equal the corresponding batch's *and* the
    /// stream verifier ([`verify_plan`]) accepts it. The first mismatch (a
    /// snapshot taken against a different dataset or mask, a gap, or a
    /// corrupted plan) discards that entry and everything after it — those
    /// batches are re-planned by the normal look-ahead path, never served a
    /// stale or broken plan.
    pub fn restore(mut self, snapshot: &DataloaderSnapshot) -> Self {
        self.consumed = snapshot.consumed.min(self.batches.len());
        self.slots.clear();
        for (idx, plan) in &snapshot.planned {
            let Some(batch) = self.batches.get(*idx) else {
                break;
            };
            // `verify_plan` checks a plan against its own layout, so the
            // layout itself must be the batch's: its lengths and masks.
            let layout = &plan.layout;
            let same_batch = layout.seq_lens.len() == batch.seqs.len()
                && layout.masks.len() == batch.seqs.len()
                && (batch.seqs.iter().zip(&layout.seq_lens).zip(&layout.masks)).all(
                    |(((len, spec), &l), mask)| {
                        l == *len && spec.instantiate(*len).is_ok_and(|m| m == *mask)
                    },
                );
            if *idx != self.consumed + self.slots.len()
                || !same_batch
                || verify_plan(layout, &plan.placement, &plan.plan).is_err()
            {
                break;
            }
            self.slots.push_back(Slot::Planned(Box::new(plan.clone())));
        }
        if self.obs.enabled() {
            self.obs.record(
                Event::instant(ObsSource::Dataloader, "snapshot_restored")
                    .with_iter(self.consumed as u64)
                    .with_value(self.slots.len() as f64),
            );
        }
        self
    }

    fn submit_upto(&mut self, target: usize) {
        loop {
            let next = self.consumed + self.slots.len();
            if next >= target.min(self.batches.len()) {
                break;
            }
            let (tx, rx) = sync_channel(1);
            self.pool.submit(self.batches[next].seqs.clone(), tx);
            if self.obs.enabled() {
                self.obs.record(
                    Event::instant(ObsSource::Dataloader, "lookahead_submit")
                        .with_iter(next as u64),
                );
            }
            self.slots.push_back(Slot::Planning(rx));
        }
    }

    /// One synchronous re-plan, isolating panics in the planning function.
    fn replan(&self, seqs: &[(u32, MaskSpec)]) -> Result<PlanOutput, String> {
        match plan_caught(self.plan_fn.as_ref(), seqs) {
            Some(Ok(plan)) => Ok(plan),
            Some(Err(e)) => Err(e.to_string()),
            None => Err("synchronous re-plan panicked".to_string()),
        }
    }

    /// The look-ahead result of batch `index` is unusable (`failed`, found
    /// after waiting since `t_wait`): re-plan synchronously with bounded
    /// retries and linear backoff. The failure stays confined to this batch
    /// — later batches keep their own workers and channels.
    fn recover(
        &mut self,
        batch: Batch,
        index: usize,
        (failure, mut last_error): (FailureClass, String),
        t_wait: Instant,
    ) -> DcpResult<(Batch, PlanOutput)> {
        let obs_on = self.obs.enabled();
        // Backoff sleeps are charged against the same per-batch deadline the
        // worker wait already consumed: each sleep is clamped to the budget
        // remaining, so a slow worker followed by linear backoff cannot
        // stretch one batch to deadline + sum-of-backoffs. Only the waiting
        // is bounded — every re-plan attempt still runs, even at zero budget
        // (a deadline is a latency contract, not a license to skip work).
        let t_recover = Instant::now();
        let sleep_budget = self
            .retry
            .batch_deadline
            .map(|d| d.saturating_sub(t_wait.elapsed()));
        let mut attempts = 0u32;
        let mut recovered = None;
        for attempt in 1..=self.retry.max_retries {
            if !self.retry.backoff.is_zero() {
                let mut sleep = self.retry.backoff * attempt;
                if let Some(budget) = sleep_budget {
                    sleep = sleep.min(budget.saturating_sub(t_recover.elapsed()));
                }
                if !sleep.is_zero() {
                    std::thread::sleep(sleep);
                }
            }
            attempts += 1;
            let t_attempt = Instant::now();
            let replanned = self.replan(&batch.seqs);
            if obs_on {
                self.obs.record(
                    Event::span(ObsSource::Dataloader, "replan_attempt")
                        .with_iter(index as u64)
                        .with_label(failure.label())
                        .with_value(attempt as f64)
                        .with_time(0.0, t_attempt.elapsed().as_secs_f64()),
                );
            }
            match replanned {
                Ok(plan) => {
                    recovered = Some(plan);
                    break;
                }
                Err(msg) => last_error = msg,
            }
        }
        let event = ReplanEvent {
            batch_index: index,
            failure,
            attempts,
            recovered: recovered.is_some(),
            recovery_wall_s: t_recover.elapsed().as_secs_f64(),
        };
        if obs_on {
            // The incident re-emitted as a span mirroring `ReplanEvent`.
            self.obs.record(
                Event::span(
                    ObsSource::Dataloader,
                    if event.recovered {
                        "recovery"
                    } else {
                        "recovery_failed"
                    },
                )
                .with_iter(index as u64)
                .with_label(failure.label())
                .with_value(attempts as f64)
                .with_time(0.0, event.recovery_wall_s),
            );
            if let Some(plan) = &recovered {
                self.emit_plan_summary(index, plan);
            }
        }
        self.events.push(event);
        match recovered {
            Some(plan) => Ok((batch, plan)),
            None => Err(DcpError::planning_failed(
                index,
                1 + self.retry.max_retries,
                last_error,
            )),
        }
    }

    /// Re-emits the worker-side planning summary for batch `index` on the
    /// consumer thread: cache outcome, then the stage breakdown recorded in
    /// [`crate::PlanStats`] as consecutive planner-source spans.
    fn emit_plan_summary(&self, index: usize, out: &PlanOutput) {
        let iter = index as u64;
        let s = &out.stats;
        let cache = if s.cache_hit {
            "plan_cache_hit"
        } else {
            "plan_cache_miss"
        };
        self.obs.record(
            Event::counter(ObsSource::Planner, cache, 1.0)
                .with_iter(iter)
                .with_label(out.tier.label()),
        );
        if !s.cache_hit {
            let mut at = 0.0;
            for (name, dur) in [
                ("block_gen", out.times.block_gen),
                ("coarsen", s.coarsen_s),
                ("initial", s.initial_s),
                ("refine", s.refine_s),
                ("schedule", s.schedule_s),
            ] {
                self.obs.record(
                    Event::span(ObsSource::Planner, name)
                        .with_iter(iter)
                        .with_label(out.tier.label())
                        .with_time(at, dur),
                );
                at += dur;
            }
        }
    }
}

impl Iterator for DcpDataloader {
    type Item = DcpResult<(Batch, PlanOutput)>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.consumed >= self.batches.len() {
            return None;
        }
        // Keep the window `consumed .. consumed + 1 + kappa` planned.
        // Saturating: κ = usize::MAX means "plan everything", not overflow.
        self.submit_upto(
            self.consumed
                .saturating_add(1)
                .saturating_add(self.lookahead),
        );
        let slot = self.slots.pop_front().expect("the window holds this batch");
        let batch = self.batches[self.consumed].clone();
        let index = self.consumed;
        self.consumed += 1;
        let plan = match slot {
            // Plans restored from a snapshot (or drained by one) are served
            // from memory.
            Slot::Planned(plan) => *plan,
            Slot::Planning(rx) => {
                let t_wait = Instant::now();
                let waited = await_plan(&rx, self.retry.batch_deadline);
                if self.obs.enabled() {
                    self.obs.record(
                        Event::span(ObsSource::Dataloader, "plan_wait")
                            .with_iter(index as u64)
                            .with_time(0.0, t_wait.elapsed().as_secs_f64()),
                    );
                }
                match waited {
                    Ok(Ok(plan)) => plan,
                    Ok(Err(e)) => {
                        let failed = (FailureClass::PlanError, e.to_string());
                        return Some(self.recover(batch, index, failed, t_wait));
                    }
                    Err(failed) => return Some(self.recover(batch, index, failed, t_wait)),
                }
            }
        };
        if self.obs.enabled() {
            self.emit_plan_summary(index, &plan);
            self.obs.record(
                Event::instant(ObsSource::Dataloader, "plan_ready")
                    .with_iter(index as u64)
                    .with_label(plan.tier.label()),
            );
        }
        Some(Ok((batch, plan)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::PlannerConfig;
    use dcp_mask::MaskSpec;
    use dcp_sched::Instr;
    use dcp_types::{AttnSpec, ClusterSpec};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn batches(n: usize) -> Vec<Batch> {
        (0..n)
            .map(|i| Batch {
                seqs: vec![(2048 + 512 * (i as u32 % 4), MaskSpec::Causal)],
            })
            .collect()
    }

    fn planner() -> Planner {
        Planner::new(
            ClusterSpec::single_node(4),
            AttnSpec::paper_micro(),
            PlannerConfig {
                block_size: 512,
                ..Default::default()
            },
        )
    }

    #[test]
    fn yields_all_batches_in_order() {
        let bs = batches(7);
        let loader = DcpDataloader::new(planner(), bs.clone(), 3);
        let got: Vec<Batch> = loader.map(|r| r.unwrap().0).collect();
        assert_eq!(got, bs);
    }

    #[test]
    fn plans_match_synchronous_planning() {
        let bs = batches(4);
        let p = planner();
        let direct: Vec<_> = bs.iter().map(|b| p.plan(&b.seqs).unwrap()).collect();
        let loader = DcpDataloader::new(planner(), bs, 2);
        for (item, expect) in loader.zip(direct) {
            let (_, got) = item.unwrap();
            assert_eq!(got.placement, expect.placement);
            assert_eq!(got.plan, expect.plan);
        }
    }

    #[test]
    fn zero_lookahead_still_works() {
        let loader = DcpDataloader::new(planner(), batches(3), 0);
        assert_eq!(loader.count(), 3);
    }

    #[test]
    fn huge_lookahead_does_not_overflow() {
        // Regression: `consumed + 1 + lookahead` used to overflow for
        // κ = usize::MAX; the window arithmetic must saturate.
        let bs = batches(3);
        let loader = DcpDataloader::new(planner(), bs.clone(), usize::MAX);
        let got: Vec<Batch> = loader.map(|r| r.unwrap().0).collect();
        assert_eq!(got, bs);
    }

    #[test]
    fn len_and_empty() {
        let loader = DcpDataloader::new(planner(), batches(5), 1);
        assert_eq!(loader.len(), 5);
        assert!(!loader.is_empty());
        let empty = DcpDataloader::new(planner(), vec![], 1);
        assert!(empty.is_empty());
        assert_eq!(empty.count(), 0);
    }

    /// A plan function that panics on one specific batch's first attempt
    /// (killing its look-ahead worker) but succeeds on the retry.
    fn flaky_plan_fn(poison_len: u32) -> Arc<PlanFn> {
        let p = planner();
        let panics = AtomicUsize::new(0);
        Arc::new(move |seqs: &[(u32, MaskSpec)]| {
            if seqs[0].0 == poison_len && panics.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("injected planning worker crash");
            }
            p.plan(seqs)
        })
    }

    #[test]
    fn dead_worker_recovers_via_sync_replan() {
        let bs = batches(6);
        // Batch index 1 has length 2560; its worker panics once.
        let mut loader = DcpDataloader::with_plan_fn(
            flaky_plan_fn(2560),
            bs.clone(),
            2,
            RetryConfig {
                backoff: Duration::from_millis(1),
                ..Default::default()
            },
        );
        let mut got = Vec::new();
        for item in loader.by_ref() {
            got.push(item.unwrap().0);
        }
        assert_eq!(got, bs, "every batch yields exactly once, in order");
        assert!(loader.replans() >= 1, "the dead worker forced a re-plan");
        let events = loader.replan_events();
        assert_eq!(events.len(), 1, "exactly one incident: {events:?}");
        let ev = &events[0];
        assert_eq!(ev.batch_index, 1);
        assert_eq!(ev.failure, FailureClass::WorkerDied);
        assert_eq!(ev.attempts, 1);
        assert!(ev.recovered);
        assert!(ev.recovery_wall_s >= 0.0);
    }

    #[test]
    fn plan_errors_are_classified_and_unrecovered_incidents_logged() {
        let bs = batches(3);
        let p = planner();
        // Batch index 1 (length 2560) always returns a planning error.
        let plan_fn: Arc<PlanFn> = Arc::new(move |seqs: &[(u32, MaskSpec)]| {
            if seqs[0].0 == 2560 {
                return Err(DcpError::invalid_plan("injected planning error"));
            }
            p.plan(seqs)
        });
        let mut loader = DcpDataloader::with_plan_fn(
            plan_fn,
            bs,
            1,
            RetryConfig {
                max_retries: 2,
                backoff: Duration::ZERO,
                ..Default::default()
            },
        );
        let results: Vec<_> = loader.by_ref().collect();
        assert!(results[1].is_err());
        let ev = &loader.replan_events()[0];
        assert_eq!(ev.batch_index, 1);
        assert_eq!(ev.failure, FailureClass::PlanError);
        assert_eq!(ev.attempts, 2);
        assert!(!ev.recovered);
        assert_eq!(loader.replans(), 2, "sum of attempts across events");
    }

    #[test]
    fn worker_pool_is_bounded_and_configurable() {
        let bs = batches(5);
        let loader = DcpDataloader::new(planner(), bs.clone(), 2);
        assert_eq!(loader.workers(), 2, "pool follows the look-ahead window");
        let loader = loader.with_workers(3);
        assert_eq!(loader.workers(), 3);
        let got: Vec<Batch> = loader.map(|r| r.unwrap().0).collect();
        assert_eq!(got, bs, "in-order delivery with a resized pool");
        // A single worker still drains the whole stream in order.
        let got: Vec<Batch> = DcpDataloader::new(planner(), bs.clone(), 4)
            .with_workers(1)
            .map(|r| r.unwrap().0)
            .collect();
        assert_eq!(got, bs);
    }

    /// Polls `Arc::strong_count(f)` until it reads `n` (or 5 s pass) and
    /// returns the last reading: pool threads drop their clone of the plan
    /// function only when they exit, some time after their queue closes.
    fn settled_holders(f: &Arc<PlanFn>, n: usize) -> usize {
        let t0 = Instant::now();
        while Arc::strong_count(f) != n && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_micros(200));
        }
        Arc::strong_count(f)
    }

    #[test]
    fn pool_threads_hold_the_plan_fn_until_they_exit() {
        // Callers count the plan function's holders to know when the pool
        // has spun up or wound down: this test, the loader, one per worker.
        let p = planner();
        let f: Arc<PlanFn> = Arc::new(move |seqs: &[(u32, MaskSpec)]| p.plan(seqs));
        let loader =
            DcpDataloader::with_plan_fn(Arc::clone(&f), batches(3), 4, RetryConfig::default());
        assert_eq!(settled_holders(&f, 2 + 4), 2 + 4, "spawned eagerly");
        let mut loader = loader.with_workers(1);
        assert_eq!(settled_holders(&f, 2 + 1), 2 + 1, "displaced pool exited");
        assert_eq!(loader.by_ref().count(), 3);
        drop(loader);
        assert_eq!(settled_holders(&f, 1), 1, "workers exit with the loader");
    }

    #[test]
    fn pool_workers_survive_panicking_plans() {
        // Every odd batch panics on its first attempt. With a 1-thread pool
        // the same OS thread must plan all batches — it only survives if
        // panics are caught per job.
        let bs = batches(6);
        let p = planner();
        let seen = std::sync::Mutex::new(std::collections::HashSet::<u32>::new());
        let plan_fn: Arc<PlanFn> = Arc::new(move |seqs: &[(u32, MaskSpec)]| {
            let first = seqs[0].0;
            if !first.is_multiple_of(1024) && seen.lock().unwrap().insert(first) {
                panic!("injected crash for {first}");
            }
            p.plan(seqs)
        });
        let mut loader = DcpDataloader::with_plan_fn(
            plan_fn,
            bs.clone(),
            2,
            RetryConfig {
                backoff: Duration::ZERO,
                ..Default::default()
            },
        )
        .with_workers(1);
        let got: Vec<Batch> = loader.by_ref().map(|r| r.unwrap().0).collect();
        assert_eq!(got, bs);
        for ev in loader.replan_events() {
            assert_eq!(ev.failure, FailureClass::WorkerDied);
            assert!(ev.recovered);
        }
    }

    #[test]
    fn persistent_failure_is_typed_and_does_not_poison_later_batches() {
        let bs = batches(5);
        let p = planner();
        // Batches with length 2560 (index 1) always panic.
        let plan_fn: Arc<PlanFn> = Arc::new(move |seqs: &[(u32, MaskSpec)]| {
            if seqs[0].0 == 2560 {
                panic!("injected permanent planner crash");
            }
            p.plan(seqs)
        });
        let loader = DcpDataloader::with_plan_fn(
            plan_fn,
            bs.clone(),
            2,
            RetryConfig {
                max_retries: 2,
                backoff: Duration::ZERO,
                ..Default::default()
            },
        );
        let results: Vec<_> = loader.collect();
        assert_eq!(results.len(), 5, "failure must not truncate the stream");
        for (i, r) in results.iter().enumerate() {
            if i == 1 {
                match r {
                    Err(DcpError::PlanningFailed {
                        batch_index,
                        attempts,
                        ..
                    }) => {
                        assert_eq!(*batch_index, 1);
                        assert_eq!(*attempts, 3, "initial + 2 retries");
                    }
                    other => panic!("expected PlanningFailed, got {other:?}"),
                }
            } else {
                let (batch, plan) = r.as_ref().unwrap();
                assert_eq!(batch, &bs[i]);
                assert_eq!(plan.num_devices(), 4);
            }
        }
    }

    #[test]
    fn snapshot_restore_round_trips_without_replanning() {
        let bs = batches(6);
        // Reference stream: plan everything synchronously.
        let p = planner();
        let expect: Vec<String> = bs
            .iter()
            .map(|b| serde_json::to_string(&p.plan(&b.seqs).unwrap().plan).unwrap())
            .collect();

        // Consume two batches, then checkpoint mid-stream.
        let mut loader = DcpDataloader::new(planner(), bs.clone(), 3);
        let first: Vec<_> = loader.by_ref().take(2).map(|r| r.unwrap()).collect();
        let snap = loader.snapshot();
        assert_eq!(snap.consumed, 2);
        assert!(
            !snap.planned.is_empty(),
            "the look-ahead window was planned and must be captured"
        );
        for (i, (idx, _)) in snap.planned.iter().enumerate() {
            assert_eq!(*idx, 2 + i, "planned entries are contiguous");
        }
        // The snapshotting loader itself keeps streaming, nothing lost.
        let rest: Vec<_> = loader.by_ref().map(|r| r.unwrap()).collect();
        assert_eq!(first.len() + rest.len(), bs.len());

        // Serialize, restore into a *fresh* loader whose plan function
        // counts invocations: the restored window must not be re-planned.
        let json = snap.to_json().unwrap();
        let back = DataloaderSnapshot::from_json(&json).unwrap();
        assert_eq!(back.consumed, snap.consumed);
        assert_eq!(back.planned.len(), snap.planned.len());

        let p = planner();
        let calls = Arc::new(AtomicUsize::new(0));
        let calls2 = Arc::clone(&calls);
        let plan_fn: Arc<PlanFn> = Arc::new(move |seqs: &[(u32, MaskSpec)]| {
            calls2.fetch_add(1, Ordering::SeqCst);
            p.plan(seqs)
        });
        let restored = DcpDataloader::with_plan_fn(plan_fn, bs.clone(), 2, RetryConfig::default())
            .restore(&back);
        let got: Vec<_> = restored.map(|r| r.unwrap()).collect();
        assert_eq!(got.len(), bs.len() - 2, "resumes at the consume cursor");
        for (i, (batch, out)) in got.iter().enumerate() {
            assert_eq!(batch, &bs[2 + i]);
            assert_eq!(
                serde_json::to_string(&out.plan).unwrap(),
                expect[2 + i],
                "restored stream diverges from synchronous planning at {i}"
            );
        }
        assert_eq!(
            calls.load(Ordering::SeqCst),
            bs.len() - 2 - back.planned.len(),
            "the restored window was served from the snapshot, not re-planned"
        );
    }

    #[test]
    fn restore_rejects_plans_for_a_different_dataset() {
        let bs = batches(4);
        let mut loader = DcpDataloader::new(planner(), bs, 3);
        loader.by_ref().take(1).for_each(|r| {
            r.unwrap();
        });
        let snap = loader.snapshot();
        assert!(!snap.planned.is_empty());

        // Different sequence lengths: every restored plan is stale.
        let other: Vec<Batch> = (0..4)
            .map(|_| Batch {
                seqs: vec![(4096, MaskSpec::Causal)],
            })
            .collect();
        let restored = DcpDataloader::new(planner(), other.clone(), 1).restore(&snap);
        let got: Vec<_> = restored.map(|r| r.unwrap()).collect();
        assert_eq!(got.len(), other.len() - 1, "cursor still honored");
        for (batch, out) in &got {
            assert_eq!(
                out.layout.seq_lens,
                batch.seqs.iter().map(|s| s.0).collect::<Vec<u32>>(),
                "stale snapshot plans must be re-planned, not served"
            );
        }
    }

    #[test]
    fn restore_rejects_plans_for_a_different_mask() {
        // Longer than the lambda mask's 4096-token window, so the two
        // masks differ.
        let with_mask = |mask: MaskSpec| -> Vec<Batch> {
            (0..4)
                .map(|i| Batch {
                    seqs: vec![(8192 + 1024 * i, mask.clone())],
                })
                .collect()
        };
        let mut loader = DcpDataloader::new(planner(), with_mask(MaskSpec::Causal), 3);
        loader.by_ref().take(1).for_each(|r| {
            r.unwrap();
        });
        let snap = loader.snapshot();
        assert!(!snap.planned.is_empty());

        // Same lengths, lambda masks: every restored causal plan is stale.
        let other = with_mask(MaskSpec::paper_lambda());
        let restored = DcpDataloader::new(planner(), other.clone(), 1).restore(&snap);
        let got: Vec<_> = restored.map(|r| r.unwrap()).collect();
        assert_eq!(got.len(), other.len() - 1, "cursor still honored");
        for (batch, out) in &got {
            let masks: Vec<_> = batch
                .seqs
                .iter()
                .map(|(len, spec)| spec.instantiate(*len).unwrap())
                .collect();
            assert_eq!(
                out.layout.masks, masks,
                "plans for another mask must be re-planned, not served"
            );
        }
    }

    #[test]
    fn restore_replans_a_snapshot_plan_the_verifier_rejects() {
        let bs = batches(4);
        let mut loader = DcpDataloader::new(planner(), bs.clone(), 3);
        loader.next().unwrap().unwrap();
        let mut snap = loader.snapshot();
        assert_eq!(snap.planned.first().map(|e| e.0), Some(1));
        // Drop one `CommWait` from the first restored plan's forward phase.
        let is_wait = |i: &Instr| matches!(i, Instr::CommWait(_));
        let fwd = &mut snap.planned[0].1.plan.fwd;
        let waits = fwd
            .devices
            .iter_mut()
            .find_map(|s| s.instrs.iter().position(is_wait).map(|i| (s, i)));
        let (stream, i) = waits.expect("the plan communicates");
        stream.instrs.remove(i);
        let p = planner();
        let fresh = p.plan(&bs[1].seqs).unwrap().plan;
        let calls = Arc::new(AtomicUsize::new(0));
        let calls2 = Arc::clone(&calls);
        let plan_fn: Arc<PlanFn> = Arc::new(move |seqs: &[(u32, MaskSpec)]| {
            calls2.fetch_add(1, Ordering::SeqCst);
            p.plan(seqs)
        });
        let restored = DcpDataloader::with_plan_fn(plan_fn, bs.clone(), 1, RetryConfig::default())
            .restore(&snap);
        let got: Vec<_> = restored.map(|r| r.unwrap()).collect();
        assert_eq!(got.len(), bs.len() - 1, "cursor still honored");
        assert_eq!(got[0].0, bs[1]);
        assert!(got[0].1.plan == fresh, "the stored plan was served");
        // The first rejected entry discards the rest of the window too.
        assert_eq!(calls.load(Ordering::SeqCst), bs.len() - 1);
    }

    #[test]
    fn timeout_triggers_sync_replan() {
        let bs = batches(3);
        let p = planner();
        // The look-ahead worker for batches of length 2560 hangs far past
        // the deadline; the synchronous re-plan path must rescue the batch.
        let slow = AtomicUsize::new(0);
        let plan_fn: Arc<PlanFn> = Arc::new(move |seqs: &[(u32, MaskSpec)]| {
            if seqs[0].0 == 2560 && slow.fetch_add(1, Ordering::SeqCst) == 0 {
                std::thread::sleep(Duration::from_secs(5));
            }
            p.plan(seqs)
        });
        let mut loader = DcpDataloader::with_plan_fn(
            plan_fn,
            bs.clone(),
            1,
            RetryConfig {
                batch_deadline: Some(Duration::from_millis(50)),
                max_retries: 1,
                backoff: Duration::ZERO,
            },
        );
        let mut got = Vec::new();
        for item in loader.by_ref() {
            got.push(item.unwrap().0);
        }
        assert_eq!(got, bs);
        assert!(loader.replans() >= 1, "the slow worker forced a re-plan");
        let ev = &loader.replan_events()[0];
        assert_eq!(ev.failure, FailureClass::Timeout);
        assert!(ev.recovered);
        assert!(
            ev.recovery_wall_s < 5.0,
            "recovery must not wait for the hung worker"
        );
    }
}
