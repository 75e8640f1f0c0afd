//! Plan executor.
//!
//! Materializing (operator-at-a-time) execution with per-operator
//! accounting. LLM-bound operators can fan their records out over a worker
//! pool (`workers > 1`): calls still accrue full cost on the ledger, but
//! attributed *time* is divided by the worker count — on the virtual clock,
//! parallel calls overlap.

use crate::context::PzContext;
use crate::datasource::reserve_ids;
use crate::error::{PzError, PzResult};
use crate::exec::failover::{self, FailoverRank};
use crate::exec::stats::{DegradedExecution, ExecutionStats, OperatorStats};
use crate::ops::physical::{PhysicalOp, PhysicalPlan};
use crate::optimizer::adaptive::{AdaptiveConfig, AdaptiveController};
use crate::record::DataRecord;
use pz_llm::ModelId;
use std::sync::Arc;

/// How a physical plan is driven.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecMode {
    /// Operator-at-a-time: each operator consumes the full record set
    /// before the next starts. `workers` fans parallelizable operators
    /// out over a thread pool.
    #[default]
    Materializing,
    /// Stage-per-operator pipeline over bounded channels: stages overlap
    /// on the virtual clock; downstream early termination cancels
    /// upstream work.
    Streaming {
        /// In-flight batches each channel may hold (backpressure knob).
        channel_capacity: usize,
        /// Records per batch flowing between stages.
        batch_size: usize,
    },
}

impl ExecMode {
    /// Streaming with the default knobs (capacity 2, batch 4).
    pub fn streaming() -> Self {
        ExecMode::Streaming {
            channel_capacity: 2,
            batch_size: 4,
        }
    }
}

/// Intra-operator worker-pool sizing for streaming stages.
///
/// Each per-batch streaming stage fans its record batches out to a pool of
/// `workers_for(op_index)` workers; the effective pool is further clamped
/// by the operator's model rate limit (`ModelCard::max_concurrency`) and
/// by how many batches actually arrive. Kept `Copy` so it can travel
/// inside [`ExecutionConfig`]: per-operator overrides live in a small
/// fixed table (plans in this reproduction are shallow).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParallelismConfig {
    /// Default workers per stage. `0` means *auto*: one worker per
    /// available core.
    pub default_workers: usize,
    /// `(op_index, workers)` overrides, first `len` entries valid.
    overrides: [(usize, usize); Self::MAX_OVERRIDES],
    len: usize,
}

impl ParallelismConfig {
    /// Fixed-size override table (kept tiny so the config stays `Copy`).
    pub const MAX_OVERRIDES: usize = 4;

    /// One worker per stage — serial, byte-identical to pre-pool runs.
    pub fn serial() -> Self {
        Self::fixed(1)
    }

    /// The same worker count for every stage.
    pub fn fixed(workers: usize) -> Self {
        Self {
            default_workers: workers.max(1),
            overrides: [(0, 0); Self::MAX_OVERRIDES],
            len: 0,
        }
    }

    /// One worker per available core.
    pub fn auto() -> Self {
        Self::fixed(available_cores())
    }

    /// Override the pool size for one operator (by plan index). At most
    /// [`Self::MAX_OVERRIDES`] overrides are kept; excess ones are ignored.
    pub fn with_override(mut self, op_index: usize, workers: usize) -> Self {
        if let Some(slot) = self.overrides.get_mut(self.len) {
            *slot = (op_index, workers.max(1));
            self.len += 1;
        }
        self
    }

    /// Pool size for the operator at `op_index`.
    pub fn workers_for(&self, op_index: usize) -> usize {
        self.overrides[..self.len]
            .iter()
            .find(|(i, _)| *i == op_index)
            .map(|(_, w)| *w)
            .unwrap_or(self.default_workers)
            .max(1)
    }

    /// Largest pool any stage may get (used for reporting).
    pub fn max_workers(&self) -> usize {
        self.overrides[..self.len]
            .iter()
            .map(|(_, w)| *w)
            .chain(std::iter::once(self.default_workers))
            .max()
            .unwrap_or(1)
            .max(1)
    }
}

impl Default for ParallelismConfig {
    fn default() -> Self {
        Self::serial()
    }
}

/// Worker count for "auto" parallelism: the cores the OS reports.
pub fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Executor configuration.
#[derive(Clone, Copy, Debug)]
pub struct ExecutionConfig {
    /// Worker threads for parallelizable operators (materializing mode
    /// only; streaming overlap comes from the stage pipeline). 0 and 1
    /// both mean sequential.
    pub workers: usize,
    /// Materializing or streaming execution.
    pub mode: ExecMode,
    /// Mid-plan model failover: when an operator's model goes unhealthy
    /// (circuit breaker open, or a provider fault survives retries), swap
    /// the operator to the next-best healthy model instead of aborting.
    /// On by default; a no-op while all models stay healthy.
    pub failover: bool,
    /// How failover ranks substitute models — the active policy's primary
    /// dimension ([`crate::execute`] sets this from the policy).
    pub rank: FailoverRank,
    /// Execution deadline in virtual seconds, relative to plan start.
    /// Retries, backoff, and failover all respect it; exceeding it yields
    /// partial results flagged `deadline_exceeded`, never a hang.
    pub deadline_secs: Option<f64>,
    /// Intra-operator worker pools for streaming stages: each per-batch
    /// stage fans batches out to this many workers and merges results
    /// through a sequence-numbered reordering buffer, so output order,
    /// ledger cost, and trace reconciliation are byte-identical to the
    /// serial run — only attributed time shrinks.
    pub parallelism: ParallelismConfig,
    /// Runtime adaptive re-optimization: re-cost the remaining plan suffix
    /// during execution and swap degraded models out before they fail
    /// outright. Requires `failover` (it reuses the same substitution
    /// machinery); disabled by default and byte-invisible while off.
    pub adaptive: AdaptiveConfig,
    /// Incremental re-execution: replay memoized operator verdicts for
    /// unchanged records from the context's `ExecutionSnapshot` and
    /// re-bill only the dirty delta. Requires a snapshot installed via
    /// `PzContext::with_incremental`; off by default and byte-invisible
    /// while off (or while no snapshot is installed).
    pub incremental: bool,
    /// Out-of-core scan: in materializing mode, pull the leading `Scan`
    /// in chunks of this many records and push each chunk through the
    /// maximal prefix of per-record operators before the next chunk is
    /// generated, so at most O(chunk) leaf records are resident at once.
    /// `0` (the default) keeps the legacy whole-corpus materialization and
    /// is byte-identical to pre-chunking builds. Streaming mode already
    /// pulls the source in `batch_size` chunks and ignores this knob.
    /// Output, ledger cost, and per-operator stats are identical at every
    /// chunk size; only peak memory changes.
    pub scan_chunk_size: usize,
    /// Memory budget (in records) for blocking operators, plumbed to
    /// `PzContext::spill_budget_records` on the executor's cloned context.
    /// Past it, `Sort` spills sorted runs to temp files and `HashJoin`
    /// streams its build side in budget-sized batches. `None` (the
    /// default) never spills.
    pub spill_budget_records: Option<usize>,
}

impl Default for ExecutionConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            mode: ExecMode::default(),
            failover: true,
            rank: FailoverRank::default(),
            deadline_secs: None,
            parallelism: ParallelismConfig::serial(),
            adaptive: AdaptiveConfig::default(),
            incremental: false,
            scan_chunk_size: 0,
            spill_budget_records: None,
        }
    }
}

impl ExecutionConfig {
    pub fn sequential() -> Self {
        Self {
            workers: 1,
            ..Self::default()
        }
    }

    pub fn parallel(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
            ..Self::default()
        }
    }

    /// Streaming pipeline with default knobs.
    pub fn streaming() -> Self {
        Self {
            workers: 1,
            mode: ExecMode::streaming(),
            ..Self::default()
        }
    }

    /// Streaming pipeline with explicit backpressure knobs.
    pub fn streaming_with(channel_capacity: usize, batch_size: usize) -> Self {
        Self {
            workers: 1,
            mode: ExecMode::Streaming {
                channel_capacity: channel_capacity.max(1),
                batch_size: batch_size.max(1),
            },
            ..Self::default()
        }
    }

    /// Replace the execution mode, keeping the worker count.
    pub fn with_mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// Set the execution deadline (virtual seconds from plan start).
    pub fn with_deadline(mut self, secs: f64) -> Self {
        self.deadline_secs = Some(secs);
        self
    }

    /// Set the failover ranking dimension.
    pub fn with_rank(mut self, rank: FailoverRank) -> Self {
        self.rank = rank;
        self
    }

    /// Disable mid-plan model failover (provider faults abort the plan).
    pub fn without_failover(mut self) -> Self {
        self.failover = false;
        self
    }

    /// Set the same intra-operator worker-pool size for every streaming
    /// stage (also raises the materializing worker count so both modes
    /// benefit from one knob). `0` means auto (available cores).
    pub fn with_parallelism(mut self, workers: usize) -> Self {
        let workers = if workers == 0 {
            available_cores()
        } else {
            workers
        };
        self.parallelism = ParallelismConfig::fixed(workers);
        if self.workers < workers {
            self.workers = workers;
        }
        self
    }

    /// Set a full per-operator parallelism configuration.
    pub fn with_parallelism_config(mut self, parallelism: ParallelismConfig) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Set the adaptive re-optimization configuration.
    pub fn with_adaptive(mut self, adaptive: AdaptiveConfig) -> Self {
        self.adaptive = adaptive;
        self
    }

    /// Enable incremental re-execution against the context's memo
    /// snapshot (`PzContext::with_incremental`): unchanged records replay
    /// memoized operator verdicts, only the delta is executed and billed.
    pub fn with_incremental(mut self) -> Self {
        self.incremental = true;
        self
    }

    /// Pull the leading `Scan` in chunks of `records` and drive each chunk
    /// through the per-record operator prefix before generating the next
    /// (materializing mode; `0` restores the legacy whole-corpus scan).
    pub fn with_scan_chunk_size(mut self, records: usize) -> Self {
        self.scan_chunk_size = records;
        self
    }

    /// Set the blocking-operator memory budget: past `records`, `Sort`
    /// spills runs to temp files and `HashJoin` streams its build side.
    pub fn with_spill_budget(mut self, records: usize) -> Self {
        self.spill_budget_records = Some(records.max(1));
        self
    }
}

/// Holds an admission slot for the duration of one run; `end` fires on
/// every exit path (success, pipeline error, panic unwind).
struct AdmissionGuard {
    gate: std::sync::Arc<dyn crate::context::AdmissionGate>,
    clock: pz_llm::VirtualClock,
    ticket: u64,
}

impl Drop for AdmissionGuard {
    fn drop(&mut self) {
        self.gate.end(self.ticket, self.clock.now_secs());
    }
}

/// True when `e` is the tenant's own budget refusing further calls — the
/// signal for quota truncation (flagged partial results) rather than a
/// pipeline failure.
fn is_quota_exhausted(e: &crate::error::PzError) -> bool {
    matches!(
        e,
        crate::error::PzError::Llm(pz_llm::LlmError::QuotaExhausted { .. })
    )
}

/// Execute a physical plan, returning output records and statistics.
pub fn execute_plan(
    ctx: &PzContext,
    plan: &PhysicalPlan,
    config: ExecutionConfig,
) -> PzResult<(Vec<DataRecord>, ExecutionStats)> {
    // The deadline is absolute on the virtual clock; retries see it via
    // the cloned context so backoff never sleeps past it.
    let deadline_at = config.deadline_secs.map(|d| ctx.clock.now_secs() + d);
    // Admission: a serving host gates the run here (capacity, queueing,
    // deadline-aware shedding). The deadline is anchored at *submission*,
    // so queue wait eats into it. The RAII guard releases the slot on
    // every exit path, including errors.
    let _admission = match &ctx.admission {
        Some(gate) => {
            let ticket = gate.begin(ctx.clock.now_secs(), deadline_at)?;
            Some(AdmissionGuard {
                gate: gate.clone(),
                clock: ctx.clock.clone(),
                ticket,
            })
        }
        None => None,
    };
    let profiling = ctx.tracer.profiling_enabled();
    let ctx = &{
        let mut c = ctx.clone();
        c.deadline_at_secs = deadline_at;
        // Blocking operators consult the budget straight off the context,
        // so it rides the same clone the deadline does (streaming stage
        // contexts derive from this clone too).
        c.spill_budget_records = config.spill_budget_records;
        if profiling {
            // Collect retry-backoff time; per-op deltas are attributed on
            // the op spans below. Off by default (no sink, no overhead).
            c.retry_wait_us = Some(std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0)));
        } else {
            // A caller's context may still carry the sink a previous run
            // installed (e.g. a deadline-aborted profiled run): clear it
            // so this run's retries never leak into stale attribution.
            c.retry_wait_us = None;
        }
        c
    };
    // Adaptive re-optimization rides on the failover machinery; the
    // controller is only constructed when both are on, so disabled runs
    // stay byte-identical.
    let adaptive = if config.adaptive.enabled && config.failover {
        AdaptiveController::from_plan(ctx, plan, config.adaptive, config.rank).map(Arc::new)
    } else {
        None
    };
    // Incremental re-execution is armed only when both the config flag and
    // a context snapshot are present; the per-run replay count is the
    // delta on the (shared, cumulative) snapshot counter.
    let memo = if config.incremental {
        ctx.incremental.clone()
    } else {
        None
    };
    let memo_hits_before = memo.as_ref().map_or(0, |s| s.hits());
    if let ExecMode::Streaming {
        channel_capacity,
        batch_size,
    } = config.mode
    {
        let (records, mut stats) = crate::exec::streaming::execute_streaming(
            ctx,
            plan,
            channel_capacity,
            batch_size,
            &config,
            adaptive,
        )?;
        if let Some(s) = &memo {
            stats.memo_hits = s.hits() - memo_hits_before;
        }
        return Ok((records, stats));
    }
    let mut records: Vec<DataRecord> = Vec::new();
    let mut stats = ExecutionStats {
        plan: plan.describe(),
        ..Default::default()
    };
    let plan_span = ctx.tracer.span(pz_obs::Layer::Executor, "execute_plan");
    plan_span.set_attr("plan", plan.describe());
    plan_span.set_attr("workers", config.workers.to_string());

    // The plan is cloned into a working copy so the adaptive controller
    // can rewrite not-yet-executed operators between steps.
    let mut ops: Vec<PhysicalOp> = plan.ops.clone();
    let mut op_index = 0usize;
    // Quota truncation is armed only when the tenant ledger carries a
    // budget: unbudgeted runs skip the per-op input clone entirely and
    // stay byte-identical to pre-quota builds.
    let quota_armed = ctx.ledger.quota().is_limited();
    // Out-of-core scan: pull the leading Scan in chunks and push each
    // chunk through the longest prefix of chunk-safe (per-record)
    // operators before the next chunk is generated, so at most
    // O(chunk + carried output) leaf records are resident at once.
    // Chunking commutes with these operators — output, ledger, and
    // per-operator stats are identical at every chunk size — so the gate
    // only excludes paths whose control flow depends on whole-input state
    // (adaptive re-planning between ops, quota restore points).
    if config.scan_chunk_size > 0
        && !quota_armed
        && adaptive.is_none()
        && matches!(ops.first(), Some(PhysicalOp::Scan { .. }))
    {
        let prefix_len = 1 + ops[1..].iter().take_while(|op| chunk_safe(op)).count();
        records = run_chunked_prefix(ctx, &ops[..prefix_len], &config, profiling, &mut stats)?;
        // A deadline that tripped mid-drive already stopped the plan (the
        // drive emitted the event); don't run the suffix on partial input.
        op_index = if stats.deadline_exceeded {
            ops.len()
        } else {
            prefix_len
        };
        stats.peak_resident_records = stats.peak_resident_records.max(records.len());
    }
    while op_index < ops.len() {
        let op = &ops[op_index].clone();
        if let Some(d) = deadline_at {
            if ctx.clock.now_secs() >= d {
                stats.deadline_exceeded = true;
                ctx.tracer.event(
                    pz_obs::Layer::Executor,
                    "deadline_exceeded",
                    &[
                        ("at_op", op.describe()),
                        ("at_secs", format!("{:.3}", ctx.clock.now_secs())),
                    ],
                );
                break;
            }
        }
        let input_count = if matches!(op, PhysicalOp::Scan { .. }) {
            0
        } else {
            records.len()
        };
        let ledger_before = snapshot(ctx);
        let clock_before = ctx.clock.now_secs();
        let latency_before = ctx.ledger.total_latency_secs();
        let retry_before = ctx
            .retry_wait_us
            .as_ref()
            .map_or(0, |s| s.load(std::sync::atomic::Ordering::Relaxed));
        // Structural span: LLM leaf spans made by this operator (from any
        // worker thread) nest under it.
        let op_span = ctx
            .tracer
            .span(pz_obs::Layer::Executor, &format!("op:{}", op.describe()));

        let workers = config.workers.min(records.len().max(1));
        // Under a budget, keep the op's input so a mid-op quota refusal can
        // return results through the last *completed* operator.
        let saved = if quota_armed {
            Some(records.clone())
        } else {
            None
        };
        let result = execute_op_with_failover(
            ctx,
            op,
            op_index,
            std::mem::take(&mut records),
            workers,
            &config,
            &mut stats.degraded,
        );
        records = match result {
            Ok(out) => out,
            Err(e) if quota_armed && is_quota_exhausted(&e) => {
                // The tenant's own budget refused the next call. Calls made
                // before the refusal are billed (they ran); nothing past the
                // budget ever was. Truncate: flag the stats, restore the
                // input of the aborted operator, and stop here.
                stats.quota_exhausted = true;
                ctx.tracer.event(
                    pz_obs::Layer::Executor,
                    "quota_exhausted",
                    &[
                        ("at_op", op.describe()),
                        ("at_secs", format!("{:.3}", ctx.clock.now_secs())),
                    ],
                );
                op_span.finish();
                records = saved.unwrap_or_default();
                break;
            }
            Err(e) => {
                return Err(crate::error::PzError::Execution(format!(
                    "operator {}: {e}",
                    op.describe()
                )))
            }
        };

        stats.peak_resident_records = stats.peak_resident_records.max(records.len());
        let ledger_after = snapshot(ctx);
        let raw_elapsed = ctx.clock.now_secs() - clock_before;
        let elapsed = if workers > 1 && op.is_parallelizable() {
            raw_elapsed / workers as f64
        } else {
            raw_elapsed
        };

        let op_stats = OperatorStats {
            logical: op.logical_kind().to_string(),
            physical: op.describe(),
            model: op.model().map(|m| m.to_string()),
            input_records: input_count,
            output_records: records.len(),
            llm_calls: ledger_after.0 - ledger_before.0,
            input_tokens: ledger_after.1 - ledger_before.1,
            output_tokens: ledger_after.2 - ledger_before.2,
            cost_usd: ledger_after.3 - ledger_before.3,
            time_secs: elapsed,
        };
        op_span.set_attr("in", op_stats.input_records.to_string());
        op_span.set_attr("out", op_stats.output_records.to_string());
        op_span.set_attr("llm_calls", op_stats.llm_calls.to_string());
        op_span.set_attr("cost_usd", format!("{:.6}", op_stats.cost_usd));
        op_span.set_attr("time_secs", format!("{:.6}", op_stats.time_secs));
        if profiling {
            // Materializing attribution: ops run sequentially, so each
            // op's window is its raw clock elapsed; provider-wait is the
            // ledger's modelled latency delta, retry is the sink delta,
            // queue/backpressure do not exist in this mode.
            let window_us = (raw_elapsed * 1e6).round() as u64;
            let provider_us =
                ((ctx.ledger.total_latency_secs() - latency_before) * 1e6).round() as u64;
            let retry_after = ctx
                .retry_wait_us
                .as_ref()
                .map_or(0, |s| s.load(std::sync::atomic::Ordering::Relaxed));
            op_span.set_attr("prof_window_us", window_us.to_string());
            op_span.set_attr("prof_provider_wait_us", provider_us.to_string());
            op_span.set_attr(
                "prof_retry_backoff_us",
                retry_after.saturating_sub(retry_before).to_string(),
            );
            if window_us > 0 {
                let util = (op_stats.time_secs * 1e6) / window_us as f64;
                op_span.set_attr("prof_utilization", format!("{:.4}", util.clamp(0.0, 1.0)));
            }
        }
        op_span.finish();
        stats.operators.push(op_stats);
        if let Some(ctrl) = &adaptive {
            // Feed the completed operator's observation in, then let the
            // controller repair the unexecuted suffix if a model drifted.
            ctrl.observe(
                op_index,
                op.model(),
                input_count,
                raw_elapsed,
                ledger_after.3 - ledger_before.3,
            );
            ctrl.repair_suffix(ctx, &mut ops, op_index + 1, records.len());
        }
        op_index += 1;
    }
    if let Some(ctrl) = &adaptive {
        stats.adaptive = ctrl.take_reports();
    }
    if let Some(s) = &memo {
        stats.memo_hits = s.hits() - memo_hits_before;
    }
    stats.finalize();
    plan_span.set_attr("output_records", stats.output_records.to_string());
    plan_span.set_attr("llm_calls", stats.total_llm_calls.to_string());
    plan_span.set_attr("cost_usd", format!("{:.6}", stats.total_cost_usd));
    Ok((records, stats))
}

/// True when `op` commutes with input chunking: `op(a ++ b)` equals
/// `op(a) ++ op(b)` bytewise, including ledger charges and derived-id
/// assignment order. Mirrors the streaming executor's per-batch stage set,
/// minus the joins (whose build side would re-materialize per chunk) and
/// minus `Limit` (kept a barrier so chunked materializing bills exactly
/// what the legacy path bills; early-stop economies are streaming mode's
/// contract).
fn chunk_safe(op: &PhysicalOp) -> bool {
    matches!(
        op,
        PhysicalOp::LlmFilter { .. }
            | PhysicalOp::EmbeddingFilter { .. }
            | PhysicalOp::EnsembleFilter { .. }
            | PhysicalOp::UdfFilter { .. }
            | PhysicalOp::LlmConvert { .. }
            | PhysicalOp::FieldwiseConvert { .. }
            | PhysicalOp::Map { .. }
            | PhysicalOp::Project { .. }
            | PhysicalOp::LlmClassify { .. }
    )
}

/// Per-operator accumulator for the chunked drive: the same ledger deltas
/// the legacy loop takes per op, summed over chunks.
#[derive(Clone, Copy, Default)]
struct PrefixAcc {
    input_records: usize,
    output_records: usize,
    llm_calls: usize,
    input_tokens: usize,
    output_tokens: usize,
    cost_usd: f64,
    raw_elapsed: f64,
}

/// Drive `prefix` (a leading `Scan` plus zero or more chunk-safe
/// operators) chunk-at-a-time: each scan chunk flows through the whole
/// prefix before the next chunk is generated, so resident records stay at
/// O(chunk + carried output). Ids are reserved exactly as the legacy
/// `Scan` reserves them, chunks are consecutive, and every operator runs
/// through the same failover/memo machinery the legacy loop uses — output,
/// ledger, and the accumulated per-operator stats rows are identical to
/// the whole-corpus path at every chunk size. The deadline is checked at
/// chunk boundaries (chunk-granular, vs. the legacy loop's op-granular
/// check).
fn run_chunked_prefix(
    ctx: &PzContext,
    prefix: &[PhysicalOp],
    config: &ExecutionConfig,
    profiling: bool,
    stats: &mut ExecutionStats,
) -> PzResult<Vec<DataRecord>> {
    let PhysicalOp::Scan { dataset } = &prefix[0] else {
        unreachable!("chunked drive requires a leading Scan");
    };
    let wrap = |op: &PhysicalOp, e: PzError| {
        PzError::Execution(format!("operator {}: {e}", op.describe()))
    };
    let batches = (|| {
        let src = ctx.registry.get(dataset)?;
        src.batches(reserve_ids(ctx, src.as_ref())?, config.scan_chunk_size)
    })()
    .map_err(|e| wrap(&prefix[0], e))?;

    let mut acc = vec![PrefixAcc::default(); prefix.len()];
    let mut out: Vec<DataRecord> = Vec::new();
    for batch in batches {
        if let Some(d) = ctx.deadline_at_secs {
            if ctx.clock.now_secs() >= d {
                stats.deadline_exceeded = true;
                ctx.tracer.event(
                    pz_obs::Layer::Executor,
                    "deadline_exceeded",
                    &[
                        ("at_op", prefix[0].describe()),
                        ("at_secs", format!("{:.3}", ctx.clock.now_secs())),
                    ],
                );
                break;
            }
        }
        // The pull itself gets a (leaf-free) span so chunked traces still
        // carry one `op:Scan[..]` span per unit of scan work.
        let scan_span = ctx.tracer.span(
            pz_obs::Layer::Executor,
            &format!("op:{}", prefix[0].describe()),
        );
        let mut chunk = batch.map_err(|e| wrap(&prefix[0], e))?;
        acc[0].output_records += chunk.len();
        scan_span.set_attr("out", chunk.len().to_string());
        scan_span.finish();
        stats.peak_resident_records = stats.peak_resident_records.max(out.len() + chunk.len());
        for (i, op) in prefix.iter().enumerate().skip(1) {
            let in_len = chunk.len();
            let ledger_before = snapshot(ctx);
            let clock_before = ctx.clock.now_secs();
            let latency_before = ctx.ledger.total_latency_secs();
            let retry_before = ctx
                .retry_wait_us
                .as_ref()
                .map_or(0, |s| s.load(std::sync::atomic::Ordering::Relaxed));
            let op_span = ctx
                .tracer
                .span(pz_obs::Layer::Executor, &format!("op:{}", op.describe()));
            let workers = config.workers.min(in_len.max(1));
            chunk = execute_op_with_failover(
                ctx,
                op,
                i,
                std::mem::take(&mut chunk),
                workers,
                config,
                &mut stats.degraded,
            )
            .map_err(|e| wrap(op, e))?;
            let ledger_after = snapshot(ctx);
            let raw = ctx.clock.now_secs() - clock_before;
            acc[i].input_records += in_len;
            acc[i].output_records += chunk.len();
            acc[i].llm_calls += ledger_after.0 - ledger_before.0;
            acc[i].input_tokens += ledger_after.1 - ledger_before.1;
            acc[i].output_tokens += ledger_after.2 - ledger_before.2;
            acc[i].cost_usd += ledger_after.3 - ledger_before.3;
            acc[i].raw_elapsed += raw;
            op_span.set_attr("in", in_len.to_string());
            op_span.set_attr("out", chunk.len().to_string());
            op_span.set_attr("llm_calls", (ledger_after.0 - ledger_before.0).to_string());
            op_span.set_attr(
                "cost_usd",
                format!("{:.6}", ledger_after.3 - ledger_before.3),
            );
            op_span.set_attr("time_secs", format!("{:.6}", raw));
            if profiling {
                let window_us = (raw * 1e6).round() as u64;
                let provider_us =
                    ((ctx.ledger.total_latency_secs() - latency_before) * 1e6).round() as u64;
                let retry_after = ctx
                    .retry_wait_us
                    .as_ref()
                    .map_or(0, |s| s.load(std::sync::atomic::Ordering::Relaxed));
                op_span.set_attr("prof_window_us", window_us.to_string());
                op_span.set_attr("prof_provider_wait_us", provider_us.to_string());
                op_span.set_attr(
                    "prof_retry_backoff_us",
                    retry_after.saturating_sub(retry_before).to_string(),
                );
            }
            op_span.finish();
            stats.peak_resident_records = stats.peak_resident_records.max(out.len() + chunk.len());
        }
        out.extend(chunk);
    }
    // One stats row per prefix operator, in the legacy row shape: the
    // parallel-time divisor uses the op's *total* input so `time_secs`
    // matches the whole-corpus run bit-for-bit.
    for (i, op) in prefix.iter().enumerate() {
        let a = acc[i];
        let workers = config.workers.min(a.input_records.max(1));
        let elapsed = if workers > 1 && op.is_parallelizable() {
            a.raw_elapsed / workers as f64
        } else {
            a.raw_elapsed
        };
        stats.operators.push(OperatorStats {
            logical: op.logical_kind().to_string(),
            physical: op.describe(),
            model: op.model().map(|m| m.to_string()),
            input_records: if i == 0 { 0 } else { a.input_records },
            output_records: a.output_records,
            llm_calls: a.llm_calls,
            input_tokens: a.input_tokens,
            output_tokens: a.output_tokens,
            cost_usd: a.cost_usd,
            time_secs: elapsed,
        });
    }
    Ok(out)
}

/// Run one operator, splitting off memoized records first when incremental
/// re-execution is armed: unchanged records replay their memoized verdicts
/// from the context snapshot, and only the dirty subset flows through the
/// normal (failover-wrapped) execution path below.
#[allow(clippy::too_many_arguments)]
fn execute_op_with_failover(
    ctx: &PzContext,
    op: &PhysicalOp,
    op_index: usize,
    input: Vec<DataRecord>,
    workers: usize,
    config: &ExecutionConfig,
    degraded: &mut Vec<DegradedExecution>,
) -> PzResult<Vec<DataRecord>> {
    if config.incremental {
        if let Some(snap) = ctx.incremental.clone() {
            return crate::exec::incremental::execute_memoized(
                ctx,
                &snap,
                op,
                input,
                &mut |dirty| {
                    execute_op_uncached(ctx, op, op_index, dirty, workers, config, degraded)
                },
            );
        }
    }
    execute_op_uncached(ctx, op, op_index, input, workers, config, degraded)
}

/// Run one operator, failing over to substitute models when its fault
/// domain is unhealthy. Materializing semantics: a mid-operator provider
/// fault re-runs the *whole* input on the substitute (already-billed calls
/// stay on the ledger; per-op snapshot deltas keep stats reconciled).
/// Errors come back unwrapped — the caller adds operator context.
#[allow(clippy::too_many_arguments)]
fn execute_op_uncached(
    ctx: &PzContext,
    op: &PhysicalOp,
    op_index: usize,
    input: Vec<DataRecord>,
    workers: usize,
    config: &ExecutionConfig,
    degraded: &mut Vec<DegradedExecution>,
) -> PzResult<Vec<DataRecord>> {
    let run = |active: &PhysicalOp, records: Vec<DataRecord>| {
        if workers > 1 && active.is_parallelizable() {
            execute_parallel(ctx, active, records, workers)
        } else {
            active.execute(ctx, records)
        }
    };
    if !config.failover || !failover::swappable(op) {
        return run(op, input);
    }
    let mut active = op.clone();
    let mut tried: Vec<ModelId> = active.model().cloned().into_iter().collect();
    let mut first_err: Option<PzError> = None;
    loop {
        let model = active
            .model()
            .cloned()
            .expect("swappable operator carries a model");
        let now = ctx.clock.now_secs();
        // Proactive: skip a model whose breaker is already open (tripped by
        // an earlier operator) instead of burning a doomed attempt.
        let (reason, err) = if ctx.health.is_open(&model, now) {
            ("breaker open", None)
        } else {
            match run(&active, input.clone()) {
                Ok(out) => return Ok(out),
                Err(e) if is_provider_fault(&e) => ("provider fault", Some(e)),
                Err(e) => return Err(e),
            }
        };
        if first_err.is_none() {
            first_err = err;
        }
        let next = failover::candidates(&ctx.catalog, &ctx.health, &active, config.rank, now)
            .into_iter()
            .find(|m| !tried.contains(m));
        let Some(to) = next else {
            // No healthy substitute left: surface the first provider error
            // exactly as a failover-less executor would have.
            return Err(first_err.unwrap_or_else(|| {
                PzError::Execution(format!(
                    "circuit breaker open for {model} and no healthy substitute model"
                ))
            }));
        };
        let entry = DegradedExecution {
            operator_index: op_index,
            operator: op.describe(),
            from_model: model.to_string(),
            to_model: to.to_string(),
            records_affected: input.len(),
            est_quality_delta: failover::quality_delta(&ctx.catalog, &model, &to),
            at_secs: ctx.clock.now_secs(),
            reason: reason.to_string(),
        };
        failover::emit_event(&ctx.tracer, &entry);
        degraded.push(entry);
        active = failover::with_model(&active, to.clone()).expect("swappable operator");
        tried.push(to);
    }
}

/// Is this the kind of error failover can route around — a fault of the
/// model's provider rather than of the plan or the data?
fn is_provider_fault(e: &PzError) -> bool {
    matches!(e, PzError::Llm(inner) if inner.is_provider_fault())
}

fn snapshot(ctx: &PzContext) -> (usize, usize, usize, f64) {
    let usage = ctx.ledger.total_usage();
    (
        ctx.ledger.total_requests(),
        usage.input_tokens,
        usage.output_tokens,
        ctx.ledger.total_cost_usd(),
    )
}

/// Fan records out over `workers` threads, preserving input order.
fn execute_parallel(
    ctx: &PzContext,
    op: &PhysicalOp,
    input: Vec<DataRecord>,
    workers: usize,
) -> PzResult<Vec<DataRecord>> {
    let chunk_size = input.len().div_ceil(workers);
    let chunks: Vec<Vec<DataRecord>> = input
        .chunks(chunk_size.max(1))
        .map(|c| c.to_vec())
        .collect();
    let mut results: Vec<PzResult<Vec<DataRecord>>> = Vec::with_capacity(chunks.len());
    crossbeam::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                let ctx = ctx.clone();
                let op = op.clone();
                s.spawn(move |_| op.execute(&ctx, chunk))
            })
            .collect();
        for h in handles {
            results.push(h.join().expect("worker panicked"));
        }
    })
    .expect("crossbeam scope");
    let mut out = Vec::new();
    for r in results {
        out.extend(r?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasource::MemorySource;
    use crate::field::FieldDef;
    use crate::ops::logical::Cardinality;
    use crate::schema::Schema;
    use pz_llm::protocol::Effort;
    use std::sync::Arc;

    fn science_ctx() -> PzContext {
        let ctx = PzContext::simulated();
        let (docs, _) = pz_datagen::science::demo_corpus();
        let items: Vec<(String, String)> =
            docs.into_iter().map(|d| (d.filename, d.content)).collect();
        ctx.registry.register(Arc::new(MemorySource::new(
            "sigmod-demo",
            Schema::pdf_file(),
            items,
        )));
        ctx
    }

    fn clinical() -> Schema {
        Schema::new(
            "ClinicalData",
            "datasets in papers",
            vec![
                FieldDef::text("name", "The name of the clinical data dataset"),
                FieldDef::text("description", "A short description of the dataset"),
                FieldDef::text("url", "The public URL where the dataset can be accessed"),
            ],
        )
        .unwrap()
    }

    fn demo_plan() -> PhysicalPlan {
        PhysicalPlan {
            ops: vec![
                PhysicalOp::Scan {
                    dataset: "sigmod-demo".into(),
                },
                PhysicalOp::LlmFilter {
                    predicate: "The papers are about colorectal cancer".into(),
                    model: "gpt-4o".into(),
                    effort: Effort::Standard,
                },
                PhysicalOp::LlmConvert {
                    target: clinical(),
                    cardinality: Cardinality::OneToMany,
                    description: "extract datasets".into(),
                    model: "gpt-4o".into(),
                    effort: Effort::Standard,
                },
            ],
        }
    }

    #[test]
    fn end_to_end_scientific_pipeline() {
        let ctx = science_ctx();
        let (records, stats) =
            execute_plan(&ctx, &demo_plan(), ExecutionConfig::sequential()).unwrap();
        // The demo: 11 papers in, ~5 pass the filter, ~6 datasets out.
        assert_eq!(stats.operators[0].output_records, 11);
        assert!(
            (4..=6).contains(&stats.operators[1].output_records),
            "filter kept {}",
            stats.operators[1].output_records
        );
        assert!(
            (4..=8).contains(&records.len()),
            "extracted {}",
            records.len()
        );
        assert!(stats.total_cost_usd > 0.0);
        assert!(stats.total_time_secs > 0.0);
        assert_eq!(stats.operators.len(), 3);
        // URLs present on most outputs.
        let with_url = records
            .iter()
            .filter(|r| r.get("url").is_some_and(|v| !v.is_null()))
            .count();
        assert!(with_url >= records.len() / 2);
    }

    #[test]
    fn per_operator_accounting_sums_to_total() {
        let ctx = science_ctx();
        let (_, stats) = execute_plan(&ctx, &demo_plan(), ExecutionConfig::sequential()).unwrap();
        let op_cost: f64 = stats.operators.iter().map(|o| o.cost_usd).sum();
        assert!((op_cost - stats.total_cost_usd).abs() < 1e-9);
        assert!((ctx.ledger.total_cost_usd() - stats.total_cost_usd).abs() < 1e-9);
        // Scan is free; filter and convert each made LLM calls.
        assert_eq!(stats.operators[0].llm_calls, 0);
        assert_eq!(stats.operators[1].llm_calls, 11);
        assert!(stats.operators[2].llm_calls >= 4);
    }

    #[test]
    fn parallel_execution_same_records_less_time() {
        let ctx1 = science_ctx();
        let (rec_seq, stats_seq) =
            execute_plan(&ctx1, &demo_plan(), ExecutionConfig::sequential()).unwrap();
        let ctx2 = science_ctx();
        let (rec_par, stats_par) =
            execute_plan(&ctx2, &demo_plan(), ExecutionConfig::parallel(4)).unwrap();
        // Same outputs (determinism is per record content, not thread order
        // within chunks — chunk order preserves input order).
        assert_eq!(rec_seq.len(), rec_par.len());
        let mut names_seq: Vec<String> = rec_seq
            .iter()
            .map(|r| r.get("name").unwrap().as_display())
            .collect();
        let mut names_par: Vec<String> = rec_par
            .iter()
            .map(|r| r.get("name").unwrap().as_display())
            .collect();
        names_seq.sort();
        names_par.sort();
        assert_eq!(names_seq, names_par);
        // Cost identical, attributed time smaller.
        assert!((stats_seq.total_cost_usd - stats_par.total_cost_usd).abs() < 1e-9);
        assert!(
            stats_par.total_time_secs < stats_seq.total_time_secs,
            "par {} vs seq {}",
            stats_par.total_time_secs,
            stats_seq.total_time_secs
        );
    }

    #[test]
    fn conventional_ops_in_pipeline() {
        let ctx = science_ctx();
        let plan = PhysicalPlan {
            ops: vec![
                PhysicalOp::Scan {
                    dataset: "sigmod-demo".into(),
                },
                PhysicalOp::Sort {
                    field: "filename".into(),
                    descending: true,
                },
                PhysicalOp::Limit { n: 3 },
                PhysicalOp::Project {
                    fields: vec!["filename".into()],
                },
            ],
        };
        let (records, stats) = execute_plan(&ctx, &plan, ExecutionConfig::sequential()).unwrap();
        assert_eq!(records.len(), 3);
        assert!(records[0].get("contents").is_none());
        assert_eq!(stats.total_llm_calls, 0);
        assert_eq!(stats.total_cost_usd, 0.0);
    }

    #[test]
    fn streaming_same_records_and_cost_less_virtual_time() {
        let ctx_m = science_ctx();
        let (rec_m, stats_m) =
            execute_plan(&ctx_m, &demo_plan(), ExecutionConfig::sequential()).unwrap();
        let ctx_s = science_ctx();
        let (rec_s, stats_s) =
            execute_plan(&ctx_s, &demo_plan(), ExecutionConfig::streaming()).unwrap();

        // Identical outputs: the simulator keys responses on record
        // content, and stages preserve batch order.
        assert_eq!(rec_m.len(), rec_s.len());
        let names = |recs: &[DataRecord]| {
            let mut v: Vec<String> = recs
                .iter()
                .map(|r| r.get("name").unwrap().as_display())
                .collect();
            v.sort();
            v
        };
        assert_eq!(names(&rec_m), names(&rec_s));

        // Identical cost and calls on the ledger and in the stats.
        assert!((stats_m.total_cost_usd - stats_s.total_cost_usd).abs() < 1e-9);
        assert_eq!(stats_m.total_llm_calls, stats_s.total_llm_calls);
        assert!((ctx_m.ledger.total_cost_usd() - ctx_s.ledger.total_cost_usd()).abs() < 1e-9);

        // Overlapping stages: strictly less attributed virtual time.
        assert!(
            stats_s.total_time_secs < stats_m.total_time_secs,
            "streaming {} vs materializing {}",
            stats_s.total_time_secs,
            stats_m.total_time_secs
        );
        assert!(stats_s.total_time_secs > 0.0);
    }

    #[test]
    fn streaming_per_operator_accounting_sums_to_ledger() {
        let ctx = science_ctx();
        let (_, stats) = execute_plan(&ctx, &demo_plan(), ExecutionConfig::streaming()).unwrap();
        assert_eq!(stats.operators.len(), 3);
        assert_eq!(stats.operators[0].llm_calls, 0);
        assert_eq!(stats.operators[1].llm_calls, 11);
        assert!(stats.operators[2].llm_calls >= 4);
        let op_cost: f64 = stats.operators.iter().map(|o| o.cost_usd).sum();
        assert!((op_cost - ctx.ledger.total_cost_usd()).abs() < 1e-9);
        let op_calls: usize = stats.operators.iter().map(|o| o.llm_calls).sum();
        assert_eq!(op_calls, ctx.ledger.total_requests());
    }

    #[test]
    fn parallel_streaming_same_records_cost_less_attributed_time() {
        let base = ExecutionConfig::streaming_with(2, 1);
        let ctx_1 = science_ctx();
        let (rec_1, stats_1) = execute_plan(&ctx_1, &demo_plan(), base).unwrap();
        let ctx_8 = science_ctx();
        let (rec_8, stats_8) =
            execute_plan(&ctx_8, &demo_plan(), base.with_parallelism(8)).unwrap();

        // The worker pool is attribution-only: identical records…
        let names = |recs: &[DataRecord]| {
            let mut v: Vec<String> = recs
                .iter()
                .map(|r| r.get("name").unwrap().as_display())
                .collect();
            v.sort();
            v
        };
        assert_eq!(names(&rec_1), names(&rec_8));
        // …identical ledger (same calls, same dollars, same clock order)…
        assert!((ctx_1.ledger.total_cost_usd() - ctx_8.ledger.total_cost_usd()).abs() < 1e-9);
        assert_eq!(ctx_1.ledger.total_requests(), ctx_8.ledger.total_requests());
        assert!((stats_1.total_cost_usd - stats_8.total_cost_usd).abs() < 1e-9);
        // …but at least 2x less attributed plan time, and the pool size is
        // recorded on the stats.
        assert!(
            stats_8.total_time_secs * 2.0 < stats_1.total_time_secs,
            "parallel 8 {} vs serial {}",
            stats_8.total_time_secs,
            stats_1.total_time_secs
        );
        assert_eq!(stats_1.parallelism, 1);
        assert_eq!(stats_8.parallelism, 8);
        // Per-operator accounting still reconciles against the ledger.
        let op_cost: f64 = stats_8.operators.iter().map(|o| o.cost_usd).sum();
        assert!((op_cost - ctx_8.ledger.total_cost_usd()).abs() < 1e-9);
    }

    #[test]
    fn parallel_streaming_pool_clamped_by_model_rate_limit() {
        // gpt-4o publishes max_concurrency 8: a 32-worker request clamps to
        // the same effective pool, so attribution is identical.
        let base = ExecutionConfig::streaming_with(2, 1);
        let ctx_8 = science_ctx();
        let (_, stats_8) = execute_plan(&ctx_8, &demo_plan(), base.with_parallelism(8)).unwrap();
        let ctx_32 = science_ctx();
        let (_, stats_32) = execute_plan(&ctx_32, &demo_plan(), base.with_parallelism(32)).unwrap();
        assert!((stats_8.total_time_secs - stats_32.total_time_secs).abs() < 1e-9);
        assert_eq!(stats_8.parallelism, stats_32.parallelism);
    }

    #[test]
    fn parallel_streaming_failover_matches_serial_decisions() {
        // PR 4 semantics must hold per worker: one worker tripping the
        // breaker fails the whole stage over exactly once, and the pooled
        // run lands on the same substitute model as the serial run.
        let outage = pz_llm::FaultPlan::none().outage("gpt-4o", 0.0, 1e9);
        let base = ExecutionConfig::streaming_with(2, 1);
        let ctx_1 = science_ctx();
        ctx_1.faults.set(outage.clone());
        let (rec_1, stats_1) = execute_plan(&ctx_1, &demo_plan(), base).unwrap();
        let ctx_4 = science_ctx();
        ctx_4.faults.set(outage);
        let (rec_4, stats_4) =
            execute_plan(&ctx_4, &demo_plan(), base.with_parallelism(4)).unwrap();

        assert!(!rec_4.is_empty());
        assert!(
            !stats_4.degraded.is_empty(),
            "outage must record a failover"
        );
        assert_eq!(rec_1.len(), rec_4.len());
        let decisions = |stats: &ExecutionStats| {
            stats
                .degraded
                .iter()
                .map(|d| {
                    (
                        d.operator_index,
                        d.from_model.clone(),
                        d.to_model.clone(),
                        d.records_affected,
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(decisions(&stats_1), decisions(&stats_4));
        assert!((ctx_1.ledger.total_cost_usd() - ctx_4.ledger.total_cost_usd()).abs() < 1e-9);
    }

    #[test]
    fn streaming_limit_cancels_upstream_llm_calls() {
        // scan -> filter -> limit 2: streaming stops filtering once the
        // limit is satisfied; materializing filters all 11 papers.
        let plan = PhysicalPlan {
            ops: vec![
                PhysicalOp::Scan {
                    dataset: "sigmod-demo".into(),
                },
                PhysicalOp::LlmFilter {
                    predicate: "The papers are about colorectal cancer".into(),
                    model: "gpt-4o".into(),
                    effort: Effort::Standard,
                },
                PhysicalOp::Limit { n: 2 },
            ],
        };
        let ctx_m = science_ctx();
        let (rec_m, _) = execute_plan(&ctx_m, &plan, ExecutionConfig::sequential()).unwrap();
        let ctx_s = science_ctx();
        // batch 1 so cancellation lands at record granularity.
        let (rec_s, _) =
            execute_plan(&ctx_s, &plan, ExecutionConfig::streaming_with(1, 1)).unwrap();
        assert_eq!(rec_m.len(), 2);
        assert_eq!(rec_s.len(), 2);
        assert_eq!(ctx_m.ledger.total_requests(), 11);
        assert!(
            ctx_s.ledger.total_requests() < ctx_m.ledger.total_requests(),
            "streaming made {} calls, materializing {}",
            ctx_s.ledger.total_requests(),
            ctx_m.ledger.total_requests()
        );
    }

    #[test]
    fn streaming_conventional_ops_match_materializing() {
        let plan = PhysicalPlan {
            ops: vec![
                PhysicalOp::Scan {
                    dataset: "sigmod-demo".into(),
                },
                PhysicalOp::Sort {
                    field: "filename".into(),
                    descending: true,
                },
                PhysicalOp::Limit { n: 3 },
                PhysicalOp::Project {
                    fields: vec!["filename".into()],
                },
            ],
        };
        let ctx_m = science_ctx();
        let (rec_m, _) = execute_plan(&ctx_m, &plan, ExecutionConfig::sequential()).unwrap();
        let ctx_s = science_ctx();
        let (rec_s, stats_s) = execute_plan(&ctx_s, &plan, ExecutionConfig::streaming()).unwrap();
        let files = |recs: &[DataRecord]| -> Vec<String> {
            recs.iter()
                .map(|r| r.get("filename").unwrap().as_display())
                .collect()
        };
        assert_eq!(files(&rec_m), files(&rec_s));
        assert_eq!(stats_s.total_llm_calls, 0);
        assert_eq!(stats_s.total_cost_usd, 0.0);
    }

    #[test]
    fn streaming_failing_op_surfaces_first_error_with_context() {
        let ctx = science_ctx();
        let plan = PhysicalPlan {
            ops: vec![
                PhysicalOp::Scan {
                    dataset: "sigmod-demo".into(),
                },
                PhysicalOp::UdfFilter {
                    udf: "not-registered".into(),
                },
                PhysicalOp::Limit { n: 3 },
            ],
        };
        let err = execute_plan(&ctx, &plan, ExecutionConfig::streaming_with(1, 2)).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("UDFFilter[not-registered]"), "{msg}");
        assert!(msg.contains("unknown UDF"), "{msg}");
    }

    #[test]
    fn streaming_empty_plan_and_unknown_dataset() {
        let ctx = PzContext::simulated();
        let empty = PhysicalPlan { ops: vec![] };
        let (recs, stats) = execute_plan(&ctx, &empty, ExecutionConfig::streaming()).unwrap();
        assert!(recs.is_empty());
        assert_eq!(stats.operators.len(), 0);
        let ghost = PhysicalPlan {
            ops: vec![PhysicalOp::Scan {
                dataset: "ghost".into(),
            }],
        };
        assert!(execute_plan(&ctx, &ghost, ExecutionConfig::streaming()).is_err());
    }

    #[test]
    fn failing_op_propagates_error_with_operator_context() {
        let ctx = science_ctx();
        let plan = PhysicalPlan {
            ops: vec![
                PhysicalOp::Scan {
                    dataset: "sigmod-demo".into(),
                },
                PhysicalOp::UdfFilter {
                    udf: "not-registered".into(),
                },
            ],
        };
        let err = execute_plan(&ctx, &plan, ExecutionConfig::sequential()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("UDFFilter[not-registered]"), "{msg}");
        assert!(msg.contains("unknown UDF"), "{msg}");
    }

    #[test]
    fn unknown_dataset_errors() {
        let ctx = PzContext::simulated();
        let plan = PhysicalPlan {
            ops: vec![PhysicalOp::Scan {
                dataset: "ghost".into(),
            }],
        };
        assert!(execute_plan(&ctx, &plan, ExecutionConfig::sequential()).is_err());
    }

    /// Equality the chunked drive guarantees against the legacy path:
    /// records bytewise, and every per-operator stats row field-for-field
    /// (peak_resident_records is a memory *measurement* and differs by
    /// design).
    fn assert_drive_equal(
        (lr, ls): &(Vec<DataRecord>, ExecutionStats),
        (cr, cs): &(Vec<DataRecord>, ExecutionStats),
        label: &str,
    ) {
        assert_eq!(lr, cr, "{label}: records diverge");
        assert_eq!(
            ls.operators.len(),
            cs.operators.len(),
            "{label}: operator row count"
        );
        for (a, b) in ls.operators.iter().zip(&cs.operators) {
            // Money and time accumulate per chunk, so they can differ by
            // f64 summation order (~1e-17); every counted field is exact.
            assert_eq!(a.physical, b.physical, "{label}: operator row diverges");
            assert_eq!(
                a.input_records, b.input_records,
                "{label}: {}: in",
                a.physical
            );
            assert_eq!(
                a.output_records, b.output_records,
                "{label}: {}: out",
                a.physical
            );
            assert_eq!(a.llm_calls, b.llm_calls, "{label}: {}: calls", a.physical);
            assert_eq!(
                a.input_tokens, b.input_tokens,
                "{label}: {}: in toks",
                a.physical
            );
            assert_eq!(
                a.output_tokens, b.output_tokens,
                "{label}: {}: out toks",
                a.physical
            );
            assert!(
                (a.cost_usd - b.cost_usd).abs() < 1e-12,
                "{label}: {}: cost {} vs {}",
                a.physical,
                a.cost_usd,
                b.cost_usd
            );
            assert!(
                (a.time_secs - b.time_secs).abs() < 1e-9,
                "{label}: {}: time {} vs {}",
                a.physical,
                a.time_secs,
                b.time_secs
            );
        }
        assert_eq!(ls.total_llm_calls, cs.total_llm_calls, "{label}: calls");
        assert!(
            (ls.total_cost_usd - cs.total_cost_usd).abs() < 1e-12,
            "{label}: cost"
        );
        assert!(
            (ls.total_time_secs - cs.total_time_secs).abs() < 1e-9,
            "{label}: time"
        );
        assert_eq!(ls.output_records, cs.output_records, "{label}: outputs");
    }

    #[test]
    fn chunked_scan_identical_at_every_chunk_size() {
        // Fresh contexts per run so id counters, ledgers, and clocks all
        // start from the same state; the simulator keys responses on
        // request content, so equal inputs mean equal outputs.
        let legacy =
            execute_plan(&science_ctx(), &demo_plan(), ExecutionConfig::sequential()).unwrap();
        for chunk in [1, 3, 7, 64] {
            let chunked = execute_plan(
                &science_ctx(),
                &demo_plan(),
                ExecutionConfig::sequential().with_scan_chunk_size(chunk),
            )
            .unwrap();
            assert_drive_equal(&legacy, &chunked, &format!("chunk={chunk}"));
        }
    }

    #[test]
    fn chunked_scan_bounds_resident_records() {
        let (_, legacy) =
            execute_plan(&science_ctx(), &demo_plan(), ExecutionConfig::sequential()).unwrap();
        // Legacy materializes the whole 11-paper corpus at once.
        assert_eq!(legacy.peak_resident_records, 11);
        let (_, chunked) = execute_plan(
            &science_ctx(),
            &demo_plan(),
            ExecutionConfig::sequential().with_scan_chunk_size(2),
        )
        .unwrap();
        // Chunked holds one 2-record chunk plus the filtered survivors.
        assert!(
            chunked.peak_resident_records < legacy.peak_resident_records,
            "chunked peak {} not below legacy {}",
            chunked.peak_resident_records,
            legacy.peak_resident_records
        );
    }

    #[test]
    fn chunked_scan_blocking_suffix_runs_on_accumulated_records() {
        // Sort is not chunk-safe: the drive must stop at it and hand the
        // accumulated records to the legacy loop.
        let mut plan = demo_plan();
        plan.ops.push(PhysicalOp::Sort {
            field: "name".into(),
            descending: false,
        });
        plan.ops.push(PhysicalOp::Limit { n: 3 });
        let legacy = execute_plan(&science_ctx(), &plan, ExecutionConfig::sequential()).unwrap();
        for chunk in [1, 4] {
            let chunked = execute_plan(
                &science_ctx(),
                &plan,
                ExecutionConfig::sequential().with_scan_chunk_size(chunk),
            )
            .unwrap();
            assert_drive_equal(&legacy, &chunked, &format!("suffix chunk={chunk}"));
        }
    }

    #[test]
    fn chunked_scan_parallel_same_multiset_and_cost() {
        // With worker pools the thread interleaving may reassign derived
        // ids, so compare the field multiset plus the accounted totals
        // (time uses the same total-input divisor, so it matches exactly).
        let multiset = |records: &[DataRecord]| {
            let mut keys: Vec<String> = records.iter().map(|r| format!("{:?}", r.fields)).collect();
            keys.sort();
            keys
        };
        let (lr, ls) =
            execute_plan(&science_ctx(), &demo_plan(), ExecutionConfig::parallel(4)).unwrap();
        let (cr, cs) = execute_plan(
            &science_ctx(),
            &demo_plan(),
            ExecutionConfig::parallel(4).with_scan_chunk_size(3),
        )
        .unwrap();
        assert_eq!(multiset(&lr), multiset(&cr));
        assert_eq!(ls.total_llm_calls, cs.total_llm_calls);
        assert!((ls.total_cost_usd - cs.total_cost_usd).abs() < 1e-12);
        assert!((ls.total_time_secs - cs.total_time_secs).abs() < 1e-9);
    }

    #[test]
    fn chunk_size_zero_is_legacy_path() {
        // The default config never enters the drive: stats carry the
        // legacy whole-corpus peak.
        let (_, stats) = execute_plan(
            &science_ctx(),
            &demo_plan(),
            ExecutionConfig::sequential().with_scan_chunk_size(0),
        )
        .unwrap();
        assert_eq!(stats.peak_resident_records, 11);
    }
}
