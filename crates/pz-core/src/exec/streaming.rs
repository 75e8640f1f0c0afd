//! Streaming pipelined execution.
//!
//! Each physical operator runs as a *stage* on its own scoped thread,
//! linked to its neighbours by bounded channels
//! ([`crate::exec::channel`]): record batches flow downstream as soon as
//! they are produced, so LLM-bound stages overlap on the virtual clock
//! instead of serializing. Backpressure comes from channel capacity;
//! early termination (a satisfied `Limit`, a closed tail) propagates
//! upstream as a failed `send`, cancelling in-flight work at batch
//! granularity.
//!
//! ## Accounting under concurrency
//!
//! The materializing executor attributes per-operator cost by snapshotting
//! the shared ledger around each operator — invalid when stages run
//! concurrently. Here every stage gets its own [`StageMeter`]: a thin
//! `LlmClient` wrapper that serializes provider calls through one global
//! gate and attributes each call's ledger delta (requests, tokens,
//! dollars, modelled latency) to its stage. Cache hits never touch the
//! ledger and therefore bill nothing, exactly as in materializing mode;
//! retry backoff advances the clock *between* attempts (outside the gate)
//! and is attributed to no stage.
//!
//! Plan time is *modelled*, not measured: the virtual clock advances by
//! the full latency of every call regardless of mode, so overlap shows up
//! as `ExecutionStats::finalize_pipelined` — plan time is the bottleneck
//! stage plus upstream pipeline-fill delay, not the sum of stages.
//!
//! ## Intra-operator worker pools
//!
//! Per-batch stages can additionally fan their batches out to a pool of
//! workers ([`ExecutionConfig::parallelism`], clamped by the model's
//! provider rate limit). The pool is built for determinism first:
//!
//! - an **intake** hands each incoming batch a sequence number;
//! - a **turnstile** grants provider access strictly in sequence order,
//!   so the clock, the ledger, fault windows, and failover decisions are
//!   byte-identical to the serial schedule no matter how the OS schedules
//!   the workers;
//! - a sequence-numbered **reordering buffer** re-serializes completed
//!   batches before emission, so downstream sees exactly the serial
//!   output order;
//! - the stage's [`StageFailover`] is shared by all its workers, so one
//!   worker tripping a breaker fails the whole stage over exactly once.
//!
//! Concurrency therefore changes *time attribution only*: a stage's busy
//! time is divided by its effective worker count
//! (`min(workers, batches)`), mirroring the materializing executor's
//! `elapsed / workers` rule, and `finalize_pipelined` turns that into the
//! plan-level speedup.
//!
//! ## Spans
//!
//! The plan span is structural; per-operator spans are *leaf* spans
//! opened up-front in plan order (all siblings under the plan span), so
//! concurrent stage threads never push onto the tracer's shared scope
//! stack. LLM leaf spans made mid-stream therefore parent under the plan
//! span; per-operator totals live as attributes on the `op:` spans and
//! reconcile exactly with `ExecutionStats` and the ledger.

use crate::context::PzContext;
use crate::datasource::reserve_ids;
use crate::error::{PzError, PzResult};
use crate::exec::channel::{bounded, Receiver, Sender};
use crate::exec::failover;
use crate::exec::run::ExecutionConfig;
use crate::exec::stats::{DegradedExecution, ExecutionStats, OperatorStats};
use crate::ops::physical::{PhysicalOp, PhysicalPlan};
use crate::optimizer::adaptive::AdaptiveController;
use crate::record::DataRecord;
use parking_lot::Mutex;
use pz_llm::{
    CompletionRequest, CompletionResponse, EmbeddingRequest, EmbeddingResponse, LlmClient,
    LlmError, ModelId, Usage, UsageLedger,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Per-stage accounting accumulated by [`StageMeter`].
#[derive(Clone, Copy, Debug, Default)]
struct MeterTotals {
    llm_calls: usize,
    input_tokens: usize,
    output_tokens: usize,
    cost_usd: f64,
    /// Modelled latency attributed to this stage (sum of its calls'
    /// ledger latency — excludes retry backoff, which no stage owns).
    busy_secs: f64,
}

/// Per-stage profiling gauges, present only when the tracer's profiling
/// flag is on ([`pz_obs::Tracer::set_profiling`]). All quantities are
/// *virtual-clock* microseconds measured around the stage's blocking
/// regions; with profiling off no gauge exists and the executor's trace
/// output is byte-identical to a pre-profiler build.
struct StageProf {
    tracer: pz_obs::Tracer,
    /// Queue-depth histogram name for this stage's input channel
    /// (`stage.{idx}.queue_depth` — the channel feeding stage `idx`).
    in_depth: String,
    /// Same, for the output channel (`stage.{idx+1}.queue_depth`).
    out_depth: String,
    /// Blocked on an empty input channel.
    queue_wait_us: AtomicU64,
    /// Blocked on a full output channel (downstream too slow).
    backpressure_us: AtomicU64,
    /// Waiting for the provider gate/turnstile plus the modelled latency
    /// of the stage's own provider calls.
    provider_wait_us: AtomicU64,
    /// Retry-backoff sleeps, accumulated by the retry layer through the
    /// stage context's `retry_wait_us` sink (shared `Arc` so the clone
    /// handed to `RetryContext` lands here).
    retry_backoff_us: Arc<AtomicU64>,
}

impl StageProf {
    fn now(&self) -> u64 {
        self.tracer.now_micros()
    }
}

/// `LlmClient` wrapper attributing ledger deltas to one stage.
///
/// All stages share one `gate`, so ledger snapshots taken around a call
/// see exactly that call's contribution even though stages run on
/// concurrent threads. Failed (transient) attempts bill nothing — the
/// simulator errors before recording — so retries stay cost-neutral, as
/// in materializing mode.
struct StageMeter {
    inner: Arc<dyn LlmClient>,
    gate: Arc<Mutex<()>>,
    ledger: UsageLedger,
    totals: Mutex<MeterTotals>,
    /// Profiling gauges; `None` unless the tracer's profiling flag was on
    /// when the plan launched.
    prof: Option<StageProf>,
}

impl StageMeter {
    fn new(
        inner: Arc<dyn LlmClient>,
        gate: Arc<Mutex<()>>,
        ledger: UsageLedger,
        prof: Option<StageProf>,
    ) -> Self {
        Self {
            inner,
            gate,
            ledger,
            totals: Mutex::new(MeterTotals::default()),
            prof,
        }
    }

    fn snap(&self) -> (usize, Usage, f64, f64) {
        (
            self.ledger.total_requests(),
            self.ledger.total_usage(),
            self.ledger.total_cost_usd(),
            self.ledger.total_latency_secs(),
        )
    }

    fn metered<R>(&self, call: impl FnOnce(&dyn LlmClient) -> R) -> R {
        // Provider-wait covers gate contention (stages serialize provider
        // access) plus the call's own modelled latency.
        let prof_t0 = self.prof.as_ref().map(|p| p.now());
        let _serialized = self.gate.lock();
        let before = self.snap();
        let out = call(self.inner.as_ref());
        let after = self.snap();
        let mut t = self.totals.lock();
        t.llm_calls += after.0 - before.0;
        t.input_tokens += after.1.input_tokens - before.1.input_tokens;
        t.output_tokens += after.1.output_tokens - before.1.output_tokens;
        t.cost_usd += after.2 - before.2;
        t.busy_secs += after.3 - before.3;
        drop(t);
        if let (Some(p), Some(t0)) = (self.prof.as_ref(), prof_t0) {
            p.provider_wait_us
                .fetch_add(p.now().saturating_sub(t0), Ordering::Relaxed);
        }
        out
    }

    fn totals(&self) -> MeterTotals {
        *self.totals.lock()
    }

    fn busy_secs(&self) -> f64 {
        self.totals.lock().busy_secs
    }
}

impl LlmClient for StageMeter {
    fn complete(&self, req: &CompletionRequest) -> Result<CompletionResponse, LlmError> {
        self.metered(|c| c.complete(req))
    }

    fn embed(&self, req: &EmbeddingRequest) -> Result<EmbeddingResponse, LlmError> {
        self.metered(|c| c.embed(req))
    }
}

/// What one stage thread reports back after joining.
#[derive(Default)]
struct StageReport {
    input_records: usize,
    output_records: usize,
    /// Final-stage only: the plan's output records.
    collected: Vec<DataRecord>,
    /// Busy time accumulated before the first output batch was emitted —
    /// the stage's contribution to downstream pipeline-fill delay.
    startup_secs: f64,
    /// Failover decisions made by this stage, in order.
    degraded: Vec<DegradedExecution>,
    /// Workers that could actually overlap: `min(pool size, batches)`.
    /// `0`/`1` means serial; divides the stage's attributed busy time.
    effective_workers: usize,
    /// Profiling only: virtual µs from stage launch to the stage thread
    /// finishing — the window its attribution buckets must fill.
    window_us: u64,
    /// Most records one worker of this stage held at once: a batch's
    /// input and output together (a blocking stage's whole input).
    held: usize,
    /// Largest batch this stage sent downstream.
    largest_sent: usize,
}

impl StageReport {
    fn hold(&mut self, records: usize) {
        self.held = self.held.max(records);
    }
}

/// Streaming mode's `peak_resident_records`: the most records the
/// pipeline could hold at once given the batches that actually flowed —
/// every channel full of its sender's largest batch, every stage worker
/// holding its largest input and output at once, plus the collected
/// output. The true high-water mark depends on thread scheduling; this
/// bound does not, so the gauge repeats exactly from run to run.
fn resident_bound(reports: &[StageReport], channel_capacity: usize) -> usize {
    reports
        .iter()
        .map(|r| {
            r.effective_workers.max(1) * r.held
                + channel_capacity * r.largest_sent
                + r.collected.len()
        })
        .sum()
}

/// Per-stage failover state: once a stage swaps models it *stays* on the
/// substitute for later batches (sticky), re-checking the breaker per
/// batch so trips from other stages are seen promptly. Unlike the
/// materializing executor, only the in-flight batch is re-run on a swap —
/// earlier batches already streamed downstream on the planned model.
struct StageFailover {
    active: PhysicalOp,
    planned_model: Option<ModelId>,
    planned_desc: String,
    op_index: usize,
    enabled: bool,
    rank: crate::exec::FailoverRank,
    /// Adaptive controller shared by all stages; `None` unless enabled.
    adaptive: Option<Arc<AdaptiveController>>,
    /// Incremental re-execution armed (`ExecutionConfig::with_incremental`
    /// plus a context snapshot): memoized records in each batch replay,
    /// only the dirty subset reaches the operator below.
    incremental: bool,
}

impl StageFailover {
    fn new(
        op: PhysicalOp,
        op_index: usize,
        config: &ExecutionConfig,
        adaptive: Option<Arc<AdaptiveController>>,
    ) -> Self {
        let enabled = config.failover && failover::swappable(&op);
        Self {
            planned_model: op.model().cloned(),
            planned_desc: op.describe(),
            active: op,
            op_index,
            enabled,
            rank: config.rank,
            adaptive: if enabled { adaptive } else { None },
            incremental: config.incremental,
        }
    }

    /// Run one batch through the active operator, swapping models on
    /// provider faults / open breakers. Successful batches processed by a
    /// substitute accrue onto the latest degraded entry so
    /// `records_affected` sums to exactly the records the planned model
    /// did not handle.
    ///
    /// With an adaptive controller attached, each batch is preceded by a
    /// champion/challenger check (sticky swap off a degraded-but-alive
    /// model) and followed by an observation: the batch's clock delta
    /// minus *other* stages' billed latency — the only attribution that
    /// sees fault stalls and retry backoff, which never reach the ledger.
    fn execute(
        &mut self,
        ctx: &PzContext,
        input: Vec<DataRecord>,
        degraded: &mut Vec<DegradedExecution>,
        meter: &StageMeter,
    ) -> PzResult<Vec<DataRecord>> {
        // Memo split first, so every stage shape (source, per-batch,
        // pooled, blocking) replays memoized records and routes only the
        // dirty subset through the adaptive/failover machinery below. The
        // fingerprint follows the *active* operator: a sticky model swap
        // changes the memo namespace along with the outputs.
        if self.incremental {
            if let Some(snap) = ctx.incremental.clone() {
                let op = self.active.clone();
                if crate::exec::incremental::memoizable(&op) {
                    return crate::exec::incremental::execute_memoized(
                        ctx,
                        &snap,
                        &op,
                        input,
                        &mut |dirty| self.execute_direct(ctx, dirty, degraded, meter),
                    );
                }
            }
        }
        self.execute_direct(ctx, input, degraded, meter)
    }

    fn execute_direct(
        &mut self,
        ctx: &PzContext,
        input: Vec<DataRecord>,
        degraded: &mut Vec<DegradedExecution>,
        meter: &StageMeter,
    ) -> PzResult<Vec<DataRecord>> {
        if !self.enabled {
            return self.active.execute(ctx, input);
        }
        if let Some(to) = self
            .adaptive
            .as_ref()
            .and_then(|ctrl| ctrl.challenge(ctx, &self.active, self.op_index))
        {
            self.active = failover::with_model(&self.active, to).expect("swappable operator");
            // The substitution is sticky: later failover entries and
            // records_affected accrual are relative to the adaptively
            // chosen model, not the originally planned one.
            self.planned_model = self.active.model().cloned();
            self.planned_desc = self.active.describe();
        }
        let batch_len = input.len();
        let obs = self.adaptive.as_ref().map(|_| {
            (
                self.active.model().cloned(),
                ctx.clock.now_secs(),
                ctx.ledger.total_latency_secs(),
                meter.busy_secs(),
            )
        });
        let out = self.execute_with_failover(ctx, input, degraded);
        if let (Some(ctrl), Some((model, clock0, lat0, busy0))) = (&self.adaptive, obs) {
            if out.is_ok() {
                let clock_delta = ctx.clock.now_secs() - clock0;
                let others = (ctx.ledger.total_latency_secs() - lat0) - (meter.busy_secs() - busy0);
                let attributed = (clock_delta - others).max(0.0);
                ctrl.observe(self.op_index, model.as_ref(), batch_len, attributed, 0.0);
            }
        }
        out
    }

    fn execute_with_failover(
        &mut self,
        ctx: &PzContext,
        input: Vec<DataRecord>,
        degraded: &mut Vec<DegradedExecution>,
    ) -> PzResult<Vec<DataRecord>> {
        let mut tried: Vec<ModelId> = self.active.model().cloned().into_iter().collect();
        let mut first_err: Option<PzError> = None;
        loop {
            let model = self
                .active
                .model()
                .cloned()
                .expect("swappable operator carries a model");
            let now = ctx.clock.now_secs();
            let (reason, err) = if ctx.health.is_open(&model, now) {
                ("breaker open", None)
            } else {
                match self.active.execute(ctx, input.clone()) {
                    Ok(out) => {
                        if self.active.model() != self.planned_model.as_ref() {
                            if let Some(entry) = degraded.last_mut() {
                                entry.records_affected += input.len();
                            }
                        }
                        return Ok(out);
                    }
                    Err(e) if is_provider_fault(&e) => ("provider fault", Some(e)),
                    Err(e) => return Err(e),
                }
            };
            if first_err.is_none() {
                first_err = err;
            }
            let next =
                failover::candidates(&ctx.catalog, &ctx.health, &self.active, self.rank, now)
                    .into_iter()
                    .find(|m| !tried.contains(m));
            let Some(to) = next else {
                return Err(first_err.unwrap_or_else(|| {
                    PzError::Execution(format!(
                        "circuit breaker open for {model} and no healthy substitute model"
                    ))
                }));
            };
            let entry = DegradedExecution {
                operator_index: self.op_index,
                operator: self.planned_desc.clone(),
                from_model: model.to_string(),
                to_model: to.to_string(),
                // Accrued per successfully processed batch, above.
                records_affected: 0,
                est_quality_delta: failover::quality_delta(&ctx.catalog, &model, &to),
                at_secs: ctx.clock.now_secs(),
                reason: reason.to_string(),
            };
            failover::emit_event(&ctx.tracer, &entry);
            degraded.push(entry);
            self.active =
                failover::with_model(&self.active, to.clone()).expect("swappable operator");
            tried.push(to);
        }
    }
}

fn is_provider_fault(e: &PzError) -> bool {
    matches!(e, PzError::Llm(inner) if inner.is_provider_fault())
}

/// How a stage consumes its input stream.
enum StageKind {
    /// Batch-at-a-time: `op.execute` per incoming batch.
    PerBatch,
    /// Must see the whole input before producing anything.
    Blocking,
    /// Stateful pass-through that cancels upstream once satisfied.
    Limit(usize),
    /// Pass-through, then flush the other dataset at end-of-stream.
    Union,
}

fn stage_kind(op: &PhysicalOp) -> StageKind {
    match op {
        PhysicalOp::Limit { n } => StageKind::Limit(*n),
        // Sort/Distinct/Aggregate need the full input; Retrieve builds a
        // temporary vector collection over it, so per-batch top-k would
        // be wrong. A mid-plan Scan ignores its input entirely — running
        // it once over the collected stream matches materializing mode.
        PhysicalOp::Sort { .. }
        | PhysicalOp::Distinct { .. }
        | PhysicalOp::Aggregate { .. }
        | PhysicalOp::Retrieve { .. }
        | PhysicalOp::Scan { .. } => StageKind::Blocking,
        PhysicalOp::UnionAll { .. } => StageKind::Union,
        _ => StageKind::PerBatch,
    }
}

/// Where a stage's output goes: the next stage's channel, or (for the
/// final stage) an in-memory collection.
struct Emitter {
    output: Option<Sender<Vec<DataRecord>>>,
    collected: Vec<DataRecord>,
    first_emit_busy: Option<f64>,
    largest_sent: usize,
}

impl Emitter {
    /// Deliver a batch downstream. `false` means downstream disconnected
    /// (early termination) and the stage should stop producing.
    fn emit(&mut self, meter: &StageMeter, batch: Vec<DataRecord>) -> bool {
        if self.first_emit_busy.is_none() {
            self.first_emit_busy = Some(meter.busy_secs());
        }
        if self.output.is_some() {
            self.largest_sent = self.largest_sent.max(batch.len());
        }
        match &self.output {
            Some(tx) => match meter.prof.as_ref() {
                None => tx.send(batch).is_ok(),
                Some(p) => {
                    // A blocked send is backpressure: downstream (or the
                    // provider it waits on) is the slow party.
                    let t0 = p.now();
                    let ok = tx.send(batch).is_ok();
                    p.backpressure_us
                        .fetch_add(p.now().saturating_sub(t0), Ordering::Relaxed);
                    if ok {
                        p.tracer.observe(&p.out_depth, tx.len() as f64);
                    }
                    ok
                }
            },
            None => {
                self.collected.extend(batch);
                true
            }
        }
    }
}

/// `rx.recv()` with the wait charged to the stage's queue-wait gauge and
/// the post-receive queue depth sampled (profiling only).
fn recv_timed(rx: &Receiver<Vec<DataRecord>>, meter: &StageMeter) -> Option<Vec<DataRecord>> {
    match meter.prof.as_ref() {
        None => rx.recv(),
        Some(p) => {
            let t0 = p.now();
            let out = rx.recv();
            p.queue_wait_us
                .fetch_add(p.now().saturating_sub(t0), Ordering::Relaxed);
            if out.is_some() {
                p.tracer.observe(&p.in_depth, rx.len() as f64);
            }
            out
        }
    }
}

/// Sequence-numbered reordering buffer: workers insert completed batches
/// in any order; [`ReorderBuffer::pop_ready`] yields them strictly in
/// sequence order. This is the invariant that keeps a worker pool's
/// output order byte-identical to the serial run.
struct ReorderBuffer {
    next_seq: usize,
    pending: BTreeMap<usize, Vec<DataRecord>>,
}

impl ReorderBuffer {
    fn new() -> Self {
        Self {
            next_seq: 0,
            pending: BTreeMap::new(),
        }
    }

    fn insert(&mut self, seq: usize, batch: Vec<DataRecord>) {
        self.pending.insert(seq, batch);
    }

    /// The next in-sequence batch, if it has arrived. Empty batches flow
    /// through too — they advance the sequence without being emitted.
    fn pop_ready(&mut self) -> Option<Vec<DataRecord>> {
        let batch = self.pending.remove(&self.next_seq)?;
        self.next_seq += 1;
        Some(batch)
    }
}

/// Grants workers provider access strictly in batch-sequence order.
///
/// The virtual clock, ledger, fault windows, and breaker state are all
/// shared global state: if workers hit the provider in OS-scheduling
/// order, timestamps (and therefore fault-window hits and failover
/// decisions) would differ run to run. The turnstile pins provider-call
/// order to the serial schedule, making worker pools deterministic;
/// concurrency is then *modelled* by dividing attributed time.
struct Turnstile {
    turn: std::sync::Mutex<usize>,
    advanced: std::sync::Condvar,
}

impl Turnstile {
    fn new() -> Self {
        Self {
            turn: std::sync::Mutex::new(0),
            advanced: std::sync::Condvar::new(),
        }
    }

    fn wait_for(&self, seq: usize) {
        let mut turn = self.turn.lock().expect("turnstile lock");
        while *turn != seq {
            turn = self.advanced.wait(turn).expect("turnstile lock");
        }
    }

    fn advance(&self) {
        let mut turn = self.turn.lock().expect("turnstile lock");
        *turn += 1;
        self.advanced.notify_all();
    }
}

/// The intake side of a worker pool: workers pull the next batch and its
/// sequence number atomically, so sequence numbers mirror channel order.
struct Intake {
    rx: Receiver<Vec<DataRecord>>,
    next_seq: usize,
}

/// The emit side of a worker pool: completed batches funnel through the
/// reordering buffer into the stage's ordinary [`Emitter`].
struct EmitGate {
    emitter: Emitter,
    buffer: ReorderBuffer,
    output_records: usize,
    /// Most records one worker held at once ([`StageReport::held`]).
    held: usize,
}

impl EmitGate {
    /// Insert a completed batch and flush everything now in sequence.
    /// `false` means downstream disconnected (early termination).
    fn push(&mut self, seq: usize, batch: Vec<DataRecord>, meter: &StageMeter) -> bool {
        self.buffer.insert(seq, batch);
        while let Some(b) = self.buffer.pop_ready() {
            if b.is_empty() {
                continue;
            }
            self.output_records += b.len();
            if !self.emitter.emit(meter, b) {
                return false;
            }
        }
        true
    }
}

struct StageShared {
    abort: AtomicBool,
    first_error: Mutex<Option<PzError>>,
    /// Absolute deadline on the virtual clock, if any.
    deadline_at: Option<f64>,
    deadline_exceeded: AtomicBool,
}

impl StageShared {
    fn fail(&self, op: &PhysicalOp, e: PzError) {
        self.abort.store(true, Ordering::SeqCst);
        let mut slot = self.first_error.lock();
        if slot.is_none() {
            *slot = Some(PzError::Execution(format!(
                "operator {}: {e}",
                op.describe()
            )));
        }
    }

    fn aborted(&self) -> bool {
        self.abort.load(Ordering::SeqCst)
    }

    /// Deadline check, flagging the run as partial when it fires. Stages
    /// stop *cleanly* (dropping their receiver cancels upstream), so the
    /// pipeline drains to partial results rather than an error.
    fn past_deadline(&self, now: f64) -> bool {
        match self.deadline_at {
            Some(d) if now >= d => {
                self.deadline_exceeded.store(true, Ordering::SeqCst);
                true
            }
            _ => false,
        }
    }
}

/// Execute `plan` as a stage-per-operator pipeline.
pub(crate) fn execute_streaming(
    ctx: &PzContext,
    plan: &PhysicalPlan,
    channel_capacity: usize,
    batch_size: usize,
    config: &ExecutionConfig,
    adaptive: Option<Arc<AdaptiveController>>,
) -> PzResult<(Vec<DataRecord>, ExecutionStats)> {
    let mut stats = ExecutionStats {
        plan: plan.describe(),
        ..Default::default()
    };
    if plan.ops.is_empty() {
        return Ok((Vec::new(), stats));
    }
    let channel_capacity = channel_capacity.max(1);
    let batch_size = batch_size.max(1);

    let plan_span = ctx.tracer.span(pz_obs::Layer::Executor, "execute_plan");
    plan_span.set_attr("plan", plan.describe());
    plan_span.set_attr("mode", "streaming");
    plan_span.set_attr("channel_capacity", channel_capacity.to_string());
    plan_span.set_attr("batch_size", batch_size.to_string());

    // Leaf spans do not push the tracer's scope stack, so opening them
    // up-front keeps parenting correct while stages run concurrently.
    let op_spans: Vec<pz_obs::SpanGuard> = plan
        .ops
        .iter()
        .map(|op| {
            ctx.tracer
                .leaf_span(pz_obs::Layer::Executor, &format!("op:{}", op.describe()))
        })
        .collect();

    let gate = Arc::new(Mutex::new(()));
    let shared = Arc::new(StageShared {
        abort: AtomicBool::new(false),
        first_error: Mutex::new(None),
        deadline_at: ctx.deadline_at_secs,
        deadline_exceeded: AtomicBool::new(false),
    });
    // Profiling gauges exist only when the tracer's flag is on, so the
    // default run records nothing new and its trace stays byte-identical.
    let profiling = ctx.tracer.profiling_enabled();
    let meters: Vec<Arc<StageMeter>> = plan
        .ops
        .iter()
        .enumerate()
        .map(|(idx, _)| {
            Arc::new(StageMeter::new(
                ctx.llm.clone(),
                gate.clone(),
                ctx.ledger.clone(),
                profiling.then(|| StageProf {
                    tracer: ctx.tracer.clone(),
                    in_depth: format!("stage.{idx}.queue_depth"),
                    out_depth: format!("stage.{}.queue_depth", idx + 1),
                    queue_wait_us: AtomicU64::new(0),
                    backpressure_us: AtomicU64::new(0),
                    provider_wait_us: AtomicU64::new(0),
                    retry_backoff_us: Arc::new(AtomicU64::new(0)),
                }),
            ))
        })
        .collect();

    let mut reports: Vec<StageReport> = Vec::with_capacity(plan.ops.len());
    crossbeam::thread::scope(|s| {
        let mut handles = Vec::with_capacity(plan.ops.len());
        let mut upstream: Option<Receiver<Vec<DataRecord>>> = None;
        for (idx, op) in plan.ops.iter().enumerate() {
            let (tx, next_rx) = if idx + 1 < plan.ops.len() {
                let (tx, rx) = bounded(channel_capacity);
                (Some(tx), Some(rx))
            } else {
                (None, None)
            };
            let input = upstream.take();
            upstream = next_rx;

            let meter = meters[idx].clone();
            let mut stage_ctx = ctx.clone();
            stage_ctx.llm = meter.clone();
            // Point the retry layer's backoff sink at this stage's gauge.
            stage_ctx.retry_wait_us = meter.prof.as_ref().map(|p| p.retry_backoff_us.clone());
            let op = op.clone();
            let shared = shared.clone();
            let config = *config;
            let adaptive = adaptive.clone();
            handles.push(s.spawn(move |_| {
                run_stage(
                    &stage_ctx, &op, idx, input, tx, batch_size, &shared, &meter, &config, adaptive,
                )
            }));
        }
        for h in handles {
            reports.push(h.join().expect("stage thread panicked"));
        }
    })
    .expect("crossbeam scope");

    // A fatal stage error wins over any partial output: the pipeline has
    // drained (all threads joined above), now surface the first error.
    if let Some(e) = shared.first_error.lock().take() {
        return Err(e);
    }

    // Merge per-stage failover decisions in plan order.
    for report in &mut reports {
        stats.degraded.append(&mut report.degraded);
    }
    if let Some(ctrl) = &adaptive {
        stats.adaptive = ctrl.take_reports();
    }
    if shared.deadline_exceeded.load(Ordering::SeqCst) {
        stats.deadline_exceeded = true;
        ctx.tracer.event(
            pz_obs::Layer::Executor,
            "deadline_exceeded",
            &[("at_secs", format!("{:.3}", ctx.clock.now_secs()))],
        );
    }

    let mut startup = Vec::with_capacity(plan.ops.len());
    for ((op, report), (meter, span)) in plan
        .ops
        .iter()
        .zip(&reports)
        .zip(meters.iter().zip(op_spans))
    {
        let m = meter.totals();
        // Worker pools overlap a stage's calls on the modelled timeline:
        // attributed time divides by the workers that could actually run
        // concurrently (mirrors the materializing `elapsed / workers`).
        // Cost, calls, and tokens never divide — billing is identical.
        let workers = report.effective_workers.max(1);
        let op_stats = OperatorStats {
            logical: op.logical_kind().to_string(),
            physical: op.describe(),
            model: op.model().map(|m| m.to_string()),
            input_records: report.input_records,
            output_records: report.output_records,
            llm_calls: m.llm_calls,
            input_tokens: m.input_tokens,
            output_tokens: m.output_tokens,
            cost_usd: m.cost_usd,
            time_secs: m.busy_secs / workers as f64,
        };
        if workers > 1 {
            // Serial runs skip the attribute so their traces stay
            // byte-identical to pre-parallelism output.
            span.set_attr("workers", workers.to_string());
        }
        span.set_attr("in", op_stats.input_records.to_string());
        span.set_attr("out", op_stats.output_records.to_string());
        span.set_attr("llm_calls", op_stats.llm_calls.to_string());
        span.set_attr("cost_usd", format!("{:.6}", op_stats.cost_usd));
        span.set_attr("time_secs", format!("{:.6}", op_stats.time_secs));
        if let Some(p) = &meter.prof {
            // Raw gauge sums; `pz_obs::profile` normalizes pooled stages
            // (whose waits sum over workers) back into the wall window.
            span.set_attr("prof_window_us", report.window_us.to_string());
            span.set_attr(
                "prof_queue_wait_us",
                p.queue_wait_us.load(Ordering::Relaxed).to_string(),
            );
            span.set_attr(
                "prof_backpressure_us",
                p.backpressure_us.load(Ordering::Relaxed).to_string(),
            );
            span.set_attr(
                "prof_provider_wait_us",
                p.provider_wait_us.load(Ordering::Relaxed).to_string(),
            );
            span.set_attr(
                "prof_retry_backoff_us",
                p.retry_backoff_us.load(Ordering::Relaxed).to_string(),
            );
            span.set_attr("prof_startup_secs", format!("{:.6}", report.startup_secs));
            if report.window_us > 0 {
                let util = (op_stats.time_secs * 1e6) / report.window_us as f64;
                span.set_attr("prof_utilization", format!("{:.4}", util.clamp(0.0, 1.0)));
            }
        }
        span.finish();
        startup.push(report.startup_secs);
        stats.operators.push(op_stats);
    }
    stats.parallelism = reports
        .iter()
        .map(|r| r.effective_workers.max(1))
        .max()
        .unwrap_or(1);
    stats.finalize_pipelined(&startup);
    stats.peak_resident_records = resident_bound(&reports, channel_capacity);

    let records = reports.pop().map(|r| r.collected).unwrap_or_default();
    stats.output_records = records.len();
    plan_span.set_attr("output_records", stats.output_records.to_string());
    plan_span.set_attr("llm_calls", stats.total_llm_calls.to_string());
    plan_span.set_attr("cost_usd", format!("{:.6}", stats.total_cost_usd));
    Ok((records, stats))
}

#[allow(clippy::too_many_arguments)]
fn run_stage(
    ctx: &PzContext,
    op: &PhysicalOp,
    idx: usize,
    input: Option<Receiver<Vec<DataRecord>>>,
    output: Option<Sender<Vec<DataRecord>>>,
    batch_size: usize,
    shared: &StageShared,
    meter: &StageMeter,
    config: &ExecutionConfig,
    adaptive: Option<Arc<AdaptiveController>>,
) -> StageReport {
    let mut report = StageReport::default();
    let mut emitter = Emitter {
        output,
        collected: Vec::new(),
        first_emit_busy: None,
        largest_sent: 0,
    };
    let mut fo = StageFailover::new(op.clone(), idx, config, adaptive);
    let prof_t0 = meter.prof.as_ref().map(|p| p.now());

    match input {
        // Source stage: a leading Scan pulls its source chunk-at-a-time
        // (`DataSource::batches`), so at most one batch of leaf records is
        // resident here however large the corpus. Batch boundaries equal
        // the old materialize-then-`chunks(batch_size)` split, ids are
        // reserved identically up front, and a Scan never swaps models or
        // memoizes — output and ledger are byte-identical to the old
        // path. A failed emit means downstream cancelled — stop early.
        None if matches!(op, PhysicalOp::Scan { .. }) => {
            let pulled = (|| {
                let PhysicalOp::Scan { dataset } = op else {
                    unreachable!()
                };
                let src = ctx.registry.get(dataset)?;
                src.batches(reserve_ids(ctx, src.as_ref())?, batch_size)
            })();
            match pulled {
                Ok(batches) => {
                    for batch in batches {
                        if shared.aborted() || shared.past_deadline(ctx.clock.now_secs()) {
                            break;
                        }
                        match batch {
                            // The old path emitted nothing for an empty
                            // corpus (`chunks` of an empty vec); keep that.
                            Ok(b) if b.is_empty() => continue,
                            Ok(b) => {
                                report.output_records += b.len();
                                report.hold(b.len());
                                if !emitter.emit(meter, b) {
                                    break;
                                }
                            }
                            Err(e) => {
                                shared.fail(op, e);
                                break;
                            }
                        }
                    }
                }
                Err(e) => shared.fail(op, e),
            }
        }
        // Non-Scan sources (none today) keep the materialize-once path.
        None => match fo.execute(ctx, Vec::new(), &mut report.degraded, meter) {
            Ok(out) => {
                report.hold(out.len());
                for chunk in out.chunks(batch_size) {
                    if shared.aborted() || shared.past_deadline(ctx.clock.now_secs()) {
                        break;
                    }
                    report.output_records += chunk.len();
                    if !emitter.emit(meter, chunk.to_vec()) {
                        break;
                    }
                }
            }
            Err(e) => shared.fail(op, e),
        },
        Some(rx) => match stage_kind(op) {
            StageKind::PerBatch => {
                let pool = effective_pool_size(ctx, op, idx, config);
                if pool > 1 {
                    emitter =
                        run_stage_pool(ctx, op, rx, emitter, shared, meter, fo, pool, &mut report);
                } else {
                    while let Some(batch) = recv_timed(&rx, meter) {
                        if shared.aborted() || shared.past_deadline(ctx.clock.now_secs()) {
                            break;
                        }
                        let consumed = batch.len();
                        report.input_records += consumed;
                        match fo.execute(ctx, batch, &mut report.degraded, meter) {
                            Ok(out) => {
                                report.hold(consumed + out.len());
                                if out.is_empty() {
                                    continue;
                                }
                                report.output_records += out.len();
                                if !emitter.emit(meter, out) {
                                    break;
                                }
                            }
                            Err(e) => {
                                shared.fail(op, e);
                                break;
                            }
                        }
                    }
                }
            }
            StageKind::Blocking => {
                let mut buf = Vec::new();
                while let Some(batch) = recv_timed(&rx, meter) {
                    if shared.aborted() {
                        break;
                    }
                    report.input_records += batch.len();
                    buf.extend(batch);
                }
                // A blocking op whose input was cut short by the deadline
                // still runs — partial input, partial output.
                if !shared.aborted() && !shared.past_deadline(ctx.clock.now_secs()) {
                    let consumed = buf.len();
                    match fo.execute(ctx, buf, &mut report.degraded, meter) {
                        Ok(out) => {
                            report.hold(consumed + out.len());
                            for chunk in out.chunks(batch_size) {
                                report.output_records += chunk.len();
                                if !emitter.emit(meter, chunk.to_vec()) {
                                    break;
                                }
                            }
                        }
                        Err(e) => shared.fail(op, e),
                    }
                }
            }
            StageKind::Limit(n) => {
                let mut remaining = n;
                while remaining > 0 {
                    let Some(mut batch) = recv_timed(&rx, meter) else {
                        break;
                    };
                    if shared.aborted() {
                        break;
                    }
                    report.input_records += batch.len();
                    report.hold(batch.len());
                    batch.truncate(remaining);
                    remaining -= batch.len();
                    report.output_records += batch.len();
                    if !emitter.emit(meter, batch) {
                        break;
                    }
                }
                // Falling out drops `rx`: upstream sends start failing and
                // the cancellation cascades to the source.
            }
            StageKind::Union => {
                let mut cancelled = false;
                while let Some(batch) = recv_timed(&rx, meter) {
                    if shared.aborted() || shared.past_deadline(ctx.clock.now_secs()) {
                        cancelled = true;
                        break;
                    }
                    report.input_records += batch.len();
                    report.output_records += batch.len();
                    report.hold(batch.len());
                    if !emitter.emit(meter, batch) {
                        cancelled = true;
                        break;
                    }
                }
                if !cancelled && !shared.aborted() {
                    // UnionAll over empty input yields the other dataset.
                    match op.execute(ctx, Vec::new()) {
                        Ok(other) => {
                            report.hold(other.len());
                            for chunk in other.chunks(batch_size) {
                                report.output_records += chunk.len();
                                if !emitter.emit(meter, chunk.to_vec()) {
                                    break;
                                }
                            }
                        }
                        Err(e) => shared.fail(op, e),
                    }
                }
            }
        },
    }
    report.startup_secs = emitter.first_emit_busy.unwrap_or_else(|| meter.busy_secs());
    report.largest_sent = emitter.largest_sent;
    report.collected = emitter.collected;
    if let (Some(p), Some(t0)) = (meter.prof.as_ref(), prof_t0) {
        report.window_us = p.now().saturating_sub(t0);
    }
    report
}

/// Worker-pool size for a stage: the configured per-operator parallelism
/// clamped by the operator model's provider rate limit
/// (`ModelCard::max_concurrency`). Stages without a model get the raw
/// configured size (their pool is free — no provider to rate-limit).
fn effective_pool_size(
    ctx: &PzContext,
    op: &PhysicalOp,
    idx: usize,
    config: &ExecutionConfig,
) -> usize {
    let requested = config.parallelism.workers_for(idx);
    let rate_cap = op
        .model()
        .and_then(|m| ctx.catalog.get(m))
        .map(|card| card.concurrency_cap())
        .unwrap_or(usize::MAX);
    requested.min(rate_cap).max(1)
}

/// Run a per-batch stage through a pool of `pool_size` workers.
///
/// Determinism contract (see the module docs): the intake assigns each
/// batch a sequence number, the [`Turnstile`] serializes provider access
/// in that order, and the [`ReorderBuffer`] re-serializes emission — so
/// output order, the ledger, fault-window hits, and failover decisions
/// are byte-identical to the serial run. One shared [`StageFailover`]
/// means a breaker trip observed by any worker swaps the whole stage
/// exactly once; later batches from every worker stay on the substitute.
///
/// Returns the stage's [`Emitter`] so the caller can finish its report
/// (collected records, startup time) exactly as in the serial path.
#[allow(clippy::too_many_arguments)]
fn run_stage_pool(
    ctx: &PzContext,
    op: &PhysicalOp,
    rx: Receiver<Vec<DataRecord>>,
    emitter: Emitter,
    shared: &StageShared,
    meter: &StageMeter,
    fo: StageFailover,
    pool_size: usize,
    report: &mut StageReport,
) -> Emitter {
    let intake = std::sync::Mutex::new(Intake { rx, next_seq: 0 });
    let turnstile = Turnstile::new();
    let failover = Mutex::new((fo, Vec::new()));
    let gate = Mutex::new(EmitGate {
        emitter,
        buffer: ReorderBuffer::new(),
        output_records: 0,
        held: 0,
    });
    let stop = AtomicBool::new(false);
    let input_records = AtomicUsize::new(0);

    crossbeam::thread::scope(|s| {
        for _ in 0..pool_size {
            let wctx = ctx.clone();
            let intake = &intake;
            let turnstile = &turnstile;
            let failover = &failover;
            let gate = &gate;
            let stop = &stop;
            let input_records = &input_records;
            s.spawn(move |_| {
                pool_worker(
                    &wctx,
                    op,
                    shared,
                    meter,
                    intake,
                    turnstile,
                    failover,
                    gate,
                    stop,
                    input_records,
                )
            });
        }
    })
    .expect("worker pool scope");

    let intake = intake.into_inner().expect("intake lock");
    report.input_records = input_records.load(Ordering::SeqCst);
    report.effective_workers = pool_size.min(intake.next_seq).max(1);
    let (_, degraded) = failover.into_inner();
    report.degraded = degraded;
    let gate = gate.into_inner();
    report.output_records = gate.output_records;
    report.held = gate.held;
    gate.emitter
}

/// One pool worker: pull the next sequenced batch, execute it at its
/// turnstile turn, and hand the result to the reordering gate. Every
/// sequence number taken from the intake MUST advance the turnstile
/// exactly once — the `stop` paths below still advance, otherwise a
/// later-sequence worker would wait forever.
#[allow(clippy::too_many_arguments)]
fn pool_worker(
    ctx: &PzContext,
    op: &PhysicalOp,
    shared: &StageShared,
    meter: &StageMeter,
    intake: &std::sync::Mutex<Intake>,
    turnstile: &Turnstile,
    failover: &Mutex<(StageFailover, Vec<DegradedExecution>)>,
    gate: &Mutex<EmitGate>,
    stop: &AtomicBool,
    input_records: &AtomicUsize,
) {
    loop {
        let (seq, batch) = {
            let mut intake = intake.lock().expect("intake lock");
            if stop.load(Ordering::SeqCst) || shared.aborted() {
                return;
            }
            match recv_timed(&intake.rx, meter) {
                Some(batch) => {
                    let seq = intake.next_seq;
                    intake.next_seq += 1;
                    (seq, batch)
                }
                None => return,
            }
        };
        // Turnstile wait groups with provider-wait: the worker is queued
        // for its (serialized) turn at the provider.
        match meter.prof.as_ref() {
            None => turnstile.wait_for(seq),
            Some(p) => {
                let t0 = p.now();
                turnstile.wait_for(seq);
                p.provider_wait_us
                    .fetch_add(p.now().saturating_sub(t0), Ordering::Relaxed);
            }
        }
        let mut done = stop.load(Ordering::SeqCst);
        if !done && !shared.aborted() && !shared.past_deadline(ctx.clock.now_secs()) {
            let consumed = batch.len();
            input_records.fetch_add(consumed, Ordering::SeqCst);
            let result = {
                let mut guard = failover.lock();
                let (fo, degraded) = &mut *guard;
                fo.execute(ctx, batch, degraded, meter)
            };
            match result {
                Ok(out) => {
                    let mut gate = gate.lock();
                    gate.held = gate.held.max(consumed + out.len());
                    if !gate.push(seq, out, meter) {
                        // Downstream disconnected: early termination.
                        stop.store(true, Ordering::SeqCst);
                        done = true;
                    }
                }
                Err(e) => {
                    shared.fail(op, e);
                    stop.store(true, Ordering::SeqCst);
                    done = true;
                }
            }
        } else {
            // Stopping: the batch is discarded, but its sequence number
            // must still flow through the reorder buffer and turnstile.
            gate.lock().push(seq, Vec::new(), meter);
            stop.store(true, Ordering::SeqCst);
            done = true;
        }
        turnstile.advance();
        if done {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reorder_buffer_emits_in_sequence_regardless_of_insertion_order() {
        let rec = |n: u64| DataRecord::new(n);
        let mut buf = ReorderBuffer::new();
        buf.insert(2, vec![rec(2)]);
        assert!(buf.pop_ready().is_none(), "seq 0 not in yet");
        buf.insert(0, vec![rec(0)]);
        assert_eq!(buf.pop_ready().unwrap()[0].id, 0);
        assert!(buf.pop_ready().is_none(), "seq 1 still missing");
        buf.insert(1, vec![rec(1)]);
        assert_eq!(buf.pop_ready().unwrap()[0].id, 1);
        assert_eq!(buf.pop_ready().unwrap()[0].id, 2);
        assert!(buf.pop_ready().is_none());
    }

    #[test]
    fn turnstile_grants_turns_in_order_across_threads() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let turnstile = Arc::new(Turnstile::new());
        let order = Arc::new(std::sync::Mutex::new(Vec::new()));
        let spawned = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..4usize)
            .rev() // spawn in reverse to make out-of-order arrival likely
            .map(|seq| {
                let t = turnstile.clone();
                let order = order.clone();
                let spawned = spawned.clone();
                std::thread::spawn(move || {
                    spawned.fetch_add(1, Ordering::SeqCst);
                    t.wait_for(seq);
                    order.lock().unwrap().push(seq);
                    t.advance();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn resident_peak_is_positive_repeatable_and_below_the_corpus() {
        use crate::datasource::GeneratedSource;
        use crate::exec::run::execute_plan;
        use crate::schema::Schema;
        let n = 2_000;
        let ctx = PzContext::simulated();
        ctx.registry.register(Arc::new(GeneratedSource::new(
            "gen",
            Schema::text_file(),
            n,
            |i| (format!("doc-{i:05}.txt"), format!("body {i}")),
        )));
        ctx.udfs.register_filter("rare", |r: &DataRecord| {
            r.get("filename")
                .and_then(|v| v.as_text())
                .is_some_and(|f| f.ends_with("00.txt"))
        });
        let plan = PhysicalPlan {
            ops: vec![
                PhysicalOp::Scan {
                    dataset: "gen".into(),
                },
                PhysicalOp::UdfFilter { udf: "rare".into() },
            ],
        };
        let (capacity, batch) = (2, 16);
        for workers in [1, 2] {
            let config = ExecutionConfig::streaming_with(capacity, batch).with_parallelism(workers);
            let peaks: Vec<usize> = (0..3)
                .map(|_| {
                    let (out, stats) = execute_plan(&ctx, &plan, config).unwrap();
                    assert_eq!(out.len(), n / 100);
                    stats.peak_resident_records
                })
                .collect();
            let peak = peaks[0];
            assert!(
                peaks.iter().all(|p| *p == peak),
                "peak varies run to run: {peaks:?}"
            );
            // At least the collected output plus a batch in flight; far
            // below the corpus, since nothing holds more than a few
            // batches of it.
            assert!(
                peak > n / 100 + batch && peak < n / 10,
                "peak {peak} at {workers} worker(s)"
            );
        }
    }
}
