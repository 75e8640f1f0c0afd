//! Cost model: per-operator and per-plan estimates of dollar cost, virtual
//! runtime, and output quality.
//!
//! Estimates compose along the chain: each operator transforms the running
//! (cardinality, avg-tokens-per-record) state and contributes cost/time;
//! quality multiplies across semantic operators (an error anywhere corrupts
//! the output). Defaults are deliberately coarse — that is what sentinel
//! calibration (E9) is for.

use crate::context::PzContext;
use crate::datasource::{count_records, prefix, DataSource};
use crate::error::{PzError, PzResult};
use crate::ops::logical::{Cardinality, LogicalOp, LogicalPlan};
use crate::ops::physical::{PhysicalOp, PhysicalPlan};
use pz_llm::protocol::Effort;
use pz_llm::{count_tokens, Catalog};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Default assumed selectivity of a semantic filter.
pub const DEFAULT_FILTER_SELECTIVITY: f64 = 0.5;
/// Default assumed fan-out of a one-to-many convert.
pub const DEFAULT_CONVERT_FANOUT: f64 = 1.3;
/// Assumed quality of the embedding-similarity filter strategy.
pub const EMBEDDING_FILTER_QUALITY: f64 = 0.72;
/// Default assumed match rate of a join per (left, right) pair.
pub const DEFAULT_JOIN_SELECTIVITY: f64 = 0.1;
/// Assumed build-side cardinality when the registry is unavailable to the
/// estimator (plans against a live context measure it instead).
pub const DEFAULT_BUILD_CARDINALITY: f64 = 20.0;
/// Output tokens produced per extracted field.
const TOKENS_PER_FIELD: f64 = 12.0;
/// Virtual CPU seconds per record for conventional operators (mirrors the
/// executor's charge).
const CPU_SECS_PER_RECORD: f64 = 0.000_05;

/// Measurements from sentinel calibration, overriding the defaults.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Calibration {
    /// Observed selectivity per logical op index.
    pub selectivity: BTreeMap<usize, f64>,
    /// Observed fan-out per logical op index (converts).
    pub fanout: BTreeMap<usize, f64>,
    /// Observed agreement-with-champion per (op index, model id).
    pub quality: BTreeMap<(usize, String), f64>,
    /// Observed average record size in tokens at the source.
    pub avg_record_tokens: Option<f64>,
}

/// Inputs the cost model needs.
#[derive(Clone, Debug)]
pub struct CostContext {
    pub catalog: Catalog,
    /// Source cardinality.
    pub input_cardinality: f64,
    /// Average record size in tokens at the source.
    pub avg_record_tokens: f64,
    /// Cardinality of join build sides, keyed by dataset name (measured
    /// from the registry when built via [`CostContext::from_context`]).
    pub build_cardinality: BTreeMap<String, f64>,
    pub calibration: Option<Calibration>,
    /// Intra-operator worker-pool size the executor will use for
    /// streaming stages. With `pipelined` estimation, a per-record LLM
    /// stage's time divides by `min(workers, records)` clamped by the
    /// model's rate limit (`ModelCard::max_concurrency`). `1` = serial.
    pub workers: usize,
}

/// Records sampled at the source to estimate the average record size.
const SIZE_SAMPLE: usize = 5;

/// Cardinality and average record size (tokens) of a scan source. The
/// count comes from [`count_records`] (the source's hint when it has one);
/// the size averages the first [`SIZE_SAMPLE`] records, generated through
/// [`prefix`], so costing a plan never holds the whole corpus.
fn profile_source(src: &dyn DataSource) -> PzResult<(usize, f64)> {
    let n = count_records(src)?;
    let sample: Vec<usize> = prefix(src, 0, SIZE_SAMPLE)?
        .iter()
        .map(|r| count_tokens(&r.prompt_text()))
        .collect();
    let avg = if sample.is_empty() {
        200.0
    } else {
        sample.iter().sum::<usize>() as f64 / sample.len() as f64
    };
    Ok((n, avg))
}

impl CostContext {
    /// Build from a runtime context: cardinality from the scan source's
    /// hint, record size from its first few records, and build-side
    /// cardinalities for every join and union. The source is never
    /// materialized unless it has no hint ([`profile_source`]).
    pub fn from_context(ctx: &PzContext, plan: &LogicalPlan) -> PzResult<Self> {
        let build_sides = plan.ops.iter().filter_map(|op| match op {
            LogicalOp::Join { dataset, .. } | LogicalOp::Union { dataset } => Some(dataset),
            _ => None,
        });
        Self::measure(ctx, plan.dataset(), build_sides)
    }

    /// Build from a runtime context and a *physical* plan: same sampling as
    /// [`CostContext::from_context`], reading the scan dataset and the
    /// join/union build sides off physical operators instead of logical
    /// ones. Used by the adaptive controller, which re-costs plan suffixes
    /// mid-execution where only the physical plan exists.
    pub fn from_physical_plan(ctx: &PzContext, plan: &PhysicalPlan) -> PzResult<Self> {
        let dataset = plan
            .ops
            .iter()
            .find_map(|op| match op {
                PhysicalOp::Scan { dataset } => Some(dataset.as_str()),
                _ => None,
            })
            .ok_or_else(|| PzError::Optimizer("plan has no scan to sample for costing".into()))?;
        let build_sides = plan.ops.iter().filter_map(|op| match op {
            PhysicalOp::HashJoin { dataset, .. }
            | PhysicalOp::LlmJoin { dataset, .. }
            | PhysicalOp::UnionAll { dataset } => Some(dataset),
            _ => None,
        });
        Self::measure(ctx, dataset, build_sides)
    }

    fn measure<'a>(
        ctx: &PzContext,
        dataset: &str,
        build_sides: impl Iterator<Item = &'a String>,
    ) -> PzResult<Self> {
        let (n, avg) = profile_source(ctx.registry.get(dataset)?.as_ref())
            .map_err(|e| PzError::Optimizer(format!("cannot sample source for costing: {e}")))?;
        let mut build_cardinality = BTreeMap::new();
        for dataset in build_sides {
            if let Ok(src) = ctx.registry.get(dataset) {
                let n = count_records(src.as_ref()).unwrap_or(DEFAULT_BUILD_CARDINALITY as usize);
                build_cardinality.insert(dataset.clone(), n as f64);
            }
        }
        Ok(Self {
            catalog: ctx.catalog.clone(),
            input_cardinality: n as f64,
            avg_record_tokens: avg,
            build_cardinality,
            calibration: None,
            workers: 1,
        })
    }

    fn build_side(&self, dataset: &str) -> f64 {
        self.build_cardinality
            .get(dataset)
            .copied()
            .unwrap_or(DEFAULT_BUILD_CARDINALITY)
    }

    fn selectivity(&self, op_idx: usize) -> f64 {
        self.selectivity_or(op_idx, DEFAULT_FILTER_SELECTIVITY)
    }

    fn selectivity_or(&self, op_idx: usize, default: f64) -> f64 {
        self.calibration
            .as_ref()
            .and_then(|c| c.selectivity.get(&op_idx).copied())
            .unwrap_or(default)
    }

    fn fanout(&self, op_idx: usize) -> f64 {
        self.calibration
            .as_ref()
            .and_then(|c| c.fanout.get(&op_idx).copied())
            .unwrap_or(DEFAULT_CONVERT_FANOUT)
    }

    fn quality_override(&self, op_idx: usize, model: &str) -> Option<f64> {
        self.calibration
            .as_ref()
            .and_then(|c| c.quality.get(&(op_idx, model.to_string())).copied())
    }

    fn source_tokens(&self) -> f64 {
        self.calibration
            .as_ref()
            .and_then(|c| c.avg_record_tokens)
            .unwrap_or(self.avg_record_tokens)
    }
}

/// Estimated totals for one plan.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct PlanEstimate {
    pub cost_usd: f64,
    pub time_secs: f64,
    /// Expected output quality in (0, 1]: product of semantic-op qualities.
    pub quality: f64,
    pub output_cardinality: f64,
}

/// The optimizer's per-operator predictions, retained from the chosen
/// plan's estimate so the drift report can compare them against observed
/// `OperatorStats` after execution.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct OperatorEstimate {
    pub physical: String,
    pub model: Option<String>,
    pub input_cardinality: f64,
    pub output_cardinality: f64,
    pub cost_usd: f64,
    /// Predicted operator time (after any worker-pool divisor).
    pub time_secs: f64,
    /// Predicted provider calls (fractional: cardinalities are estimates).
    pub llm_calls: f64,
    /// Predicted total tokens (input + output) across those calls.
    pub tokens: f64,
}

impl OperatorEstimate {
    /// Predicted selectivity (output/input); 1.0 for a source operator.
    pub fn selectivity(&self) -> f64 {
        if self.input_cardinality <= 0.0 {
            1.0
        } else {
            self.output_cardinality / self.input_cardinality
        }
    }
}

/// Probability a strict-majority vote of *independent* judges with
/// per-judge accuracies `qs` is correct (ties count as wrong). Computed by
/// dynamic programming over the count of correct votes.
pub fn majority_quality(qs: &[f64]) -> f64 {
    if qs.is_empty() {
        return 0.0;
    }
    // dist[k] = probability exactly k judges are correct.
    let mut dist = vec![1.0f64];
    for &q in qs {
        let mut next = vec![0.0; dist.len() + 1];
        for (k, p) in dist.iter().enumerate() {
            next[k] += p * (1.0 - q);
            next[k + 1] += p * q;
        }
        dist = next;
    }
    dist.iter()
        .enumerate()
        .filter(|(k, _)| k * 2 > qs.len())
        .map(|(_, p)| p)
        .sum()
}

/// Majority-vote quality under the simulator's correlated-error model
/// (`pz_llm::sim::ERROR_CORRELATION`): each judge errs when a *shared*
/// record-difficulty draw falls inside its shared error budget
/// (`rho·(1-q)`) or an independent draw falls inside `(1-rho)·(1-q)`.
/// Weaker judges err on a superset of hard records, so voting helps much
/// less than independence predicts — exactly the published finding on
/// LLM ensembles.
pub fn ensemble_quality(qs: &[f64], rho: f64) -> f64 {
    if qs.is_empty() {
        return 0.0;
    }
    let shared: Vec<f64> = qs.iter().map(|q| rho * (1.0 - q)).collect();
    let indep: Vec<f64> = qs.iter().map(|q| (1.0 - rho) * (1.0 - q)).collect();
    // Integrate over the shared-difficulty draw: breakpoints at each
    // judge's shared budget. Within a segment, a fixed subset errs from
    // the shared draw; the rest err independently.
    let mut cuts: Vec<f64> = shared.clone();
    cuts.push(0.0);
    cuts.push(1.0);
    cuts.sort_by(f64::total_cmp);
    cuts.dedup();
    let mut correct = 0.0;
    for w in cuts.windows(2) {
        let (lo, hi) = (w[0], w[1]);
        if hi <= lo {
            continue;
        }
        let mid = (lo + hi) / 2.0;
        // dist[k] = P(exactly k errors) given the shared draw is `mid`.
        let mut dist = vec![1.0f64];
        for (s, d) in shared.iter().zip(&indep) {
            let e = if mid < *s { 1.0 } else { *d };
            let mut next = vec![0.0; dist.len() + 1];
            for (k, p) in dist.iter().enumerate() {
                next[k] += p * (1.0 - e);
                next[k + 1] += p * e;
            }
            dist = next;
        }
        let p_correct: f64 = dist
            .iter()
            .enumerate()
            .filter(|(k, _)| k * 2 < qs.len()) // strict majority of *correct*
            .map(|(_, p)| p)
            .sum();
        correct += (hi - lo) * p_correct;
    }
    correct
}

/// Effort-adjusted quality, mirroring the simulator's boost.
pub fn effective_quality(base: f64, effort: Effort) -> f64 {
    match effort {
        Effort::Standard => base,
        Effort::High => base + (1.0 - base) * 0.5,
    }
}

fn effort_multiplier(effort: Effort) -> f64 {
    match effort {
        Effort::Standard => 1.0,
        Effort::High => 2.0,
    }
}

/// Estimate a full physical plan under materializing execution (plan time
/// is the sum of operator times).
pub fn estimate_plan(plan: &PhysicalPlan, ctx: &CostContext) -> PlanEstimate {
    estimate_plan_for(plan, ctx, false)
}

/// Estimate a full physical plan. With `pipelined`, plan time models the
/// streaming executor: stages overlap on the virtual clock, so total time
/// is driven by the bottleneck stage rather than the sum of stages. Cost,
/// quality, and cardinality are mode-independent.
pub fn estimate_plan_for(plan: &PhysicalPlan, ctx: &CostContext, pipelined: bool) -> PlanEstimate {
    estimate_plan_detailed(plan, ctx, pipelined).0
}

/// [`estimate_plan_for`] plus the per-operator breakdown — the totals are
/// produced by the same single pass, so they always agree.
pub fn estimate_plan_detailed(
    plan: &PhysicalPlan,
    ctx: &CostContext,
    pipelined: bool,
) -> (PlanEstimate, Vec<OperatorEstimate>) {
    let mut details: Vec<OperatorEstimate> = Vec::with_capacity(plan.ops.len());
    let mut card = 0.0f64;
    let mut tokens = ctx.source_tokens();
    let mut bottleneck = 0.0f64;
    let mut est = PlanEstimate {
        quality: 1.0,
        ..Default::default()
    };

    // Streaming worker pools divide a per-batch stage's time by the pool
    // size, clamped by how many records there are to overlap and by the
    // slowest member model's published rate limit
    // (`ModelCard::max_concurrency`). Cost and quality are unaffected:
    // the pool changes *when* calls overlap on the virtual clock, not how
    // many calls are made.
    let parallel_divisor = |model_ids: &[&pz_llm::ModelId], records: f64| -> f64 {
        if !pipelined || ctx.workers <= 1 {
            return 1.0;
        }
        let rate_cap = model_ids
            .iter()
            .filter_map(|id| ctx.catalog.get(id))
            .map(|m| m.concurrency_cap())
            .min()
            .unwrap_or(usize::MAX);
        let w = ctx.workers.min(rate_cap).max(1) as f64;
        w.min(records.ceil().max(1.0))
    };

    for (idx, op) in plan.ops.iter().enumerate() {
        let time_before = est.time_secs;
        let card_before = card;
        let cost_before = est.cost_usd;
        let mut op_calls = 0.0f64;
        let mut op_tokens = 0.0f64;
        match op {
            PhysicalOp::Scan { .. } => {
                card = ctx.input_cardinality;
                est.time_secs += card * CPU_SECS_PER_RECORD;
            }
            PhysicalOp::LlmFilter {
                predicate,
                model,
                effort,
            } => {
                if let Some(m) = ctx.catalog.get(model) {
                    let raw_tokens =
                        (tokens + count_tokens(predicate) as f64).min(m.context_window as f64);
                    let in_tokens = raw_tokens * effort_multiplier(*effort);
                    est.cost_usd += card * m.cost_usd(in_tokens as usize, 1);
                    est.time_secs +=
                        card * m.latency_secs(raw_tokens as usize, 1) * effort_multiplier(*effort);
                    op_calls = card;
                    op_tokens = card * (in_tokens + 1.0);
                    let q = ctx
                        .quality_override(idx, model.as_str())
                        .unwrap_or_else(|| effective_quality(m.quality, *effort));
                    est.quality *= q;
                }
                card *= ctx.selectivity(idx);
            }
            PhysicalOp::EnsembleFilter {
                predicate,
                models,
                effort,
            } => {
                let mut member_q = Vec::with_capacity(models.len());
                for model in models {
                    if let Some(m) = ctx.catalog.get(model) {
                        let raw_tokens =
                            (tokens + count_tokens(predicate) as f64).min(m.context_window as f64);
                        let in_tokens = raw_tokens * effort_multiplier(*effort);
                        est.cost_usd += card * m.cost_usd(in_tokens as usize, 1);
                        est.time_secs += card
                            * m.latency_secs(raw_tokens as usize, 1)
                            * effort_multiplier(*effort);
                        op_calls += card;
                        op_tokens += card * (in_tokens + 1.0);
                        member_q.push(
                            ctx.quality_override(idx, model.as_str())
                                .unwrap_or_else(|| effective_quality(m.quality, *effort)),
                        );
                    }
                }
                est.quality *= ensemble_quality(&member_q, pz_llm::sim::ERROR_CORRELATION);
                card *= ctx.selectivity(idx);
            }
            PhysicalOp::EmbeddingFilter { model, .. } => {
                if let Some(m) = ctx.catalog.get(model) {
                    est.cost_usd += card * m.cost_usd(tokens as usize, 0);
                    est.time_secs += card * m.latency_secs(tokens as usize, 0);
                    op_calls = card;
                    op_tokens = card * tokens;
                }
                est.quality *= ctx
                    .quality_override(idx, model.as_str())
                    .unwrap_or(EMBEDDING_FILTER_QUALITY);
                card *= ctx.selectivity(idx);
            }
            PhysicalOp::UdfFilter { .. } => {
                est.time_secs += card * CPU_SECS_PER_RECORD;
                card *= ctx.selectivity(idx);
            }
            PhysicalOp::LlmConvert {
                target,
                cardinality,
                model,
                effort,
                ..
            } => {
                let fanout = match cardinality {
                    Cardinality::OneToOne => 1.0,
                    Cardinality::OneToMany => ctx.fanout(idx),
                };
                let out_tokens = target.fields.len() as f64 * TOKENS_PER_FIELD * fanout;
                if let Some(m) = ctx.catalog.get(model) {
                    let raw_tokens = (tokens + 30.0).min(m.context_window as f64);
                    let in_tokens = raw_tokens * effort_multiplier(*effort);
                    est.cost_usd += card * m.cost_usd(in_tokens as usize, out_tokens as usize);
                    est.time_secs += card
                        * m.latency_secs(raw_tokens as usize, out_tokens as usize)
                        * effort_multiplier(*effort);
                    op_calls = card;
                    op_tokens = card * (in_tokens + out_tokens);
                    let q = ctx
                        .quality_override(idx, model.as_str())
                        .unwrap_or_else(|| effective_quality(m.quality, *effort));
                    est.quality *= q;
                }
                card *= fanout;
                tokens = target.fields.len() as f64 * TOKENS_PER_FIELD;
            }
            PhysicalOp::FieldwiseConvert {
                target,
                cardinality,
                model,
                effort,
                ..
            } => {
                let fanout = match cardinality {
                    Cardinality::OneToOne => 1.0,
                    Cardinality::OneToMany => ctx.fanout(idx),
                };
                let n_fields = target.fields.len().max(1) as f64;
                // One call per field: each pays the full input again but a
                // smaller output. Focused prompts raise per-field accuracy.
                let out_tokens = TOKENS_PER_FIELD * fanout;
                if let Some(m) = ctx.catalog.get(model) {
                    let raw_tokens = (tokens + 30.0).min(m.context_window as f64);
                    let in_tokens = raw_tokens * effort_multiplier(*effort);
                    est.cost_usd +=
                        card * n_fields * m.cost_usd(in_tokens as usize, out_tokens as usize);
                    est.time_secs += card
                        * n_fields
                        * m.latency_secs(raw_tokens as usize, out_tokens as usize)
                        * effort_multiplier(*effort);
                    op_calls = card * n_fields;
                    op_tokens = card * n_fields * (in_tokens + out_tokens);
                    let base_q = ctx
                        .quality_override(idx, model.as_str())
                        .unwrap_or_else(|| effective_quality(m.quality, *effort));
                    // Focused prompts: per-field error rate drops by a
                    // quarter — but one-to-many positional zipping loses
                    // alignment, costing quality back for multi-object
                    // outputs.
                    let focused = base_q + (1.0 - base_q) * 0.25;
                    let q = match cardinality {
                        Cardinality::OneToOne => focused,
                        Cardinality::OneToMany => focused * 0.92,
                    };
                    est.quality *= q;
                }
                card *= fanout;
                tokens = target.fields.len() as f64 * TOKENS_PER_FIELD;
            }
            PhysicalOp::LlmClassify {
                labels,
                model,
                effort,
                ..
            } => {
                if let Some(m) = ctx.catalog.get(model) {
                    let label_tokens: f64 = labels.iter().map(|l| count_tokens(l) as f64).sum();
                    let raw_tokens = (tokens + label_tokens).min(m.context_window as f64);
                    let in_tokens = raw_tokens * effort_multiplier(*effort);
                    est.cost_usd += card * m.cost_usd(in_tokens as usize, 4);
                    est.time_secs +=
                        card * m.latency_secs(raw_tokens as usize, 4) * effort_multiplier(*effort);
                    op_calls = card;
                    op_tokens = card * (in_tokens + 4.0);
                    let q = ctx
                        .quality_override(idx, model.as_str())
                        .unwrap_or_else(|| effective_quality(m.quality, *effort));
                    est.quality *= q;
                }
                // Classification drops nothing; records just gain a field.
            }
            PhysicalOp::Map { .. } | PhysicalOp::Sort { .. } => {
                est.time_secs += card * CPU_SECS_PER_RECORD;
            }
            PhysicalOp::Project { fields } => {
                est.time_secs += card * CPU_SECS_PER_RECORD;
                tokens = (tokens * 0.5).min(fields.len() as f64 * TOKENS_PER_FIELD * 2.0);
            }
            PhysicalOp::Limit { n } => {
                card = card.min(*n as f64);
            }
            PhysicalOp::Distinct { .. } => {
                est.time_secs += card * CPU_SECS_PER_RECORD;
                card *= 0.9;
            }
            PhysicalOp::Aggregate { group_by, .. } => {
                est.time_secs += card * CPU_SECS_PER_RECORD;
                card = if group_by.is_empty() {
                    1.0
                } else {
                    card.sqrt().max(1.0)
                };
                tokens = 24.0;
            }
            PhysicalOp::UnionAll { dataset } => {
                let other = ctx.build_side(dataset);
                est.time_secs += other * CPU_SECS_PER_RECORD;
                card += other;
            }
            PhysicalOp::HashJoin { dataset, .. } => {
                let right = ctx.build_side(dataset);
                est.time_secs += (card + right) * CPU_SECS_PER_RECORD;
                card *= right * DEFAULT_JOIN_SELECTIVITY;
                tokens *= 2.0;
            }
            PhysicalOp::LlmJoin {
                dataset,
                criterion,
                model,
                effort,
            } => {
                let right = ctx.build_side(dataset);
                let pairs = card * right;
                if let Some(m) = ctx.catalog.get(model) {
                    let raw_tokens = (2.0 * tokens + count_tokens(criterion) as f64)
                        .min(m.context_window as f64);
                    let in_tokens = raw_tokens * effort_multiplier(*effort);
                    est.cost_usd += pairs * m.cost_usd(in_tokens as usize, 1);
                    est.time_secs +=
                        pairs * m.latency_secs(raw_tokens as usize, 1) * effort_multiplier(*effort);
                    op_calls = pairs;
                    op_tokens = pairs * (in_tokens + 1.0);
                    let q = ctx
                        .quality_override(idx, model.as_str())
                        .unwrap_or_else(|| effective_quality(m.quality, *effort));
                    est.quality *= q;
                }
                card = pairs * ctx.selectivity_or(idx, DEFAULT_JOIN_SELECTIVITY);
                tokens *= 2.0;
            }
            PhysicalOp::Retrieve { k, model, .. } => {
                if let Some(m) = ctx.catalog.get(model) {
                    let total_tokens = card * tokens;
                    est.cost_usd += m.cost_usd(total_tokens as usize, 0);
                    est.time_secs += m.latency_secs(total_tokens as usize, 0);
                    op_calls = 1.0;
                    op_tokens = total_tokens;
                }
                est.quality *= 0.9;
                card = card.min(*k as f64);
            }
        }
        // Worker pools apply to per-batch stages only; blocking stages
        // (scan, sort, aggregate, retrieve) and limits run single-threaded.
        let divisor = match op {
            PhysicalOp::LlmFilter { model, .. }
            | PhysicalOp::EmbeddingFilter { model, .. }
            | PhysicalOp::LlmConvert { model, .. }
            | PhysicalOp::FieldwiseConvert { model, .. }
            | PhysicalOp::LlmClassify { model, .. }
            | PhysicalOp::LlmJoin { model, .. } => parallel_divisor(&[model], card_before),
            PhysicalOp::EnsembleFilter { models, .. } => {
                parallel_divisor(&models.iter().collect::<Vec<_>>(), card_before)
            }
            PhysicalOp::UdfFilter { .. }
            | PhysicalOp::Map { .. }
            | PhysicalOp::Project { .. }
            | PhysicalOp::HashJoin { .. } => parallel_divisor(&[], card_before),
            _ => 1.0,
        };
        if divisor > 1.0 {
            est.time_secs = time_before + (est.time_secs - time_before) / divisor;
        }
        bottleneck = bottleneck.max(est.time_secs - time_before);
        details.push(OperatorEstimate {
            physical: op.describe(),
            model: op.model().map(|m| m.to_string()),
            input_cardinality: card_before,
            output_cardinality: card,
            cost_usd: est.cost_usd - cost_before,
            time_secs: est.time_secs - time_before,
            llm_calls: op_calls,
            tokens: op_tokens,
        });
    }
    est.output_cardinality = card;
    if pipelined {
        est.time_secs = bottleneck;
    }
    (est, details)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::FieldDef;
    use crate::schema::Schema;
    use proptest::prelude::*;

    fn ctx() -> CostContext {
        CostContext {
            catalog: Catalog::builtin(),
            input_cardinality: 100.0,
            avg_record_tokens: 500.0,
            build_cardinality: Default::default(),
            calibration: None,
            workers: 1,
        }
    }

    fn filter_plan(model: &str, effort: Effort) -> PhysicalPlan {
        PhysicalPlan {
            ops: vec![
                PhysicalOp::Scan {
                    dataset: "d".into(),
                },
                PhysicalOp::LlmFilter {
                    predicate: "about cancer".into(),
                    model: model.into(),
                    effort,
                },
            ],
        }
    }

    #[test]
    fn premium_model_estimated_costlier_and_better() {
        let c = ctx();
        let big = estimate_plan(&filter_plan("gpt-4o", Effort::Standard), &c);
        let small = estimate_plan(&filter_plan("gpt-4o-mini", Effort::Standard), &c);
        assert!(big.cost_usd > small.cost_usd);
        assert!(big.quality > small.quality);
    }

    #[test]
    fn high_effort_costs_double_and_boosts_quality() {
        let c = ctx();
        let std = estimate_plan(&filter_plan("gpt-4o", Effort::Standard), &c);
        let high = estimate_plan(&filter_plan("gpt-4o", Effort::High), &c);
        assert!(high.cost_usd > std.cost_usd * 1.8);
        assert!(high.quality > std.quality);
    }

    #[test]
    fn embedding_filter_cheapest_worst() {
        let c = ctx();
        let emb = estimate_plan(
            &PhysicalPlan {
                ops: vec![
                    PhysicalOp::Scan {
                        dataset: "d".into(),
                    },
                    PhysicalOp::EmbeddingFilter {
                        predicate: "p".into(),
                        model: "text-embedding-3-small".into(),
                        threshold: 0.3,
                    },
                ],
            },
            &c,
        );
        let llm = estimate_plan(&filter_plan("llama-3-8b", Effort::Standard), &c);
        assert!(emb.cost_usd < llm.cost_usd / 3.0);
        assert!(emb.quality <= llm.quality);
    }

    #[test]
    fn selectivity_compounds_cardinality() {
        let c = ctx();
        let plan = PhysicalPlan {
            ops: vec![
                PhysicalOp::Scan {
                    dataset: "d".into(),
                },
                PhysicalOp::UdfFilter { udf: "a".into() },
                PhysicalOp::UdfFilter { udf: "b".into() },
            ],
        };
        let est = estimate_plan(&plan, &c);
        assert!((est.output_cardinality - 25.0).abs() < 1e-9);
    }

    #[test]
    fn second_filter_cheaper_than_first() {
        // Cost of an LLM filter after another filter reflects the reduced
        // cardinality.
        let c = ctx();
        let single = estimate_plan(&filter_plan("gpt-4o", Effort::Standard), &c);
        let double = estimate_plan(
            &PhysicalPlan {
                ops: vec![
                    PhysicalOp::Scan {
                        dataset: "d".into(),
                    },
                    PhysicalOp::UdfFilter {
                        udf: "cheap".into(),
                    },
                    PhysicalOp::LlmFilter {
                        predicate: "about cancer".into(),
                        model: "gpt-4o".into(),
                        effort: Effort::Standard,
                    },
                ],
            },
            &c,
        );
        assert!(double.cost_usd < single.cost_usd * 0.6);
    }

    #[test]
    fn pipelined_estimate_is_bottleneck_not_sum() {
        let c = ctx();
        let plan = PhysicalPlan {
            ops: vec![
                PhysicalOp::Scan {
                    dataset: "d".into(),
                },
                PhysicalOp::LlmFilter {
                    predicate: "about cancer".into(),
                    model: "gpt-4o".into(),
                    effort: Effort::Standard,
                },
                PhysicalOp::LlmFilter {
                    predicate: "uses public data".into(),
                    model: "gpt-4o".into(),
                    effort: Effort::Standard,
                },
            ],
        };
        let mat = estimate_plan_for(&plan, &c, false);
        let pipe = estimate_plan_for(&plan, &c, true);
        // Overlap: strictly less than the sum, at least the largest stage.
        assert!(pipe.time_secs < mat.time_secs);
        assert!(pipe.time_secs > 0.0);
        // Everything but time is mode-independent.
        assert_eq!(pipe.cost_usd, mat.cost_usd);
        assert_eq!(pipe.quality, mat.quality);
        assert_eq!(pipe.output_cardinality, mat.output_cardinality);
    }

    #[test]
    fn parallel_workers_divide_pipelined_llm_time() {
        let serial = ctx();
        let mut pooled = ctx();
        pooled.workers = 4;
        let plan = filter_plan("gpt-4o", Effort::Standard);
        let base = estimate_plan_for(&plan, &serial, true);
        let par = estimate_plan_for(&plan, &pooled, true);
        // 100 input records, 4 workers, gpt-4o rate cap 8: full 4x on the
        // LLM bottleneck stage.
        assert!((par.time_secs - base.time_secs / 4.0).abs() < base.time_secs * 1e-9);
        // Pools change when calls overlap, not how many are made.
        assert_eq!(par.cost_usd, base.cost_usd);
        assert_eq!(par.quality, base.quality);
        assert_eq!(par.output_cardinality, base.output_cardinality);
        // Materializing estimates ignore workers entirely.
        assert_eq!(
            estimate_plan_for(&plan, &pooled, false).time_secs,
            estimate_plan_for(&plan, &serial, false).time_secs
        );
    }

    #[test]
    fn parallel_workers_clamped_by_rate_limit_and_records() {
        let plan = filter_plan("gpt-4o", Effort::Standard);
        // gpt-4o publishes max_concurrency 8: 32 requested workers clamp to 8.
        let mut want8 = ctx();
        want8.workers = 32;
        let mut at8 = ctx();
        at8.workers = 8;
        assert_eq!(
            estimate_plan_for(&plan, &want8, true).time_secs,
            estimate_plan_for(&plan, &at8, true).time_secs
        );
        // Two records can overlap at most two ways, however many workers.
        let mut tiny = ctx();
        tiny.input_cardinality = 2.0;
        let mut tiny_pool = tiny.clone();
        tiny_pool.workers = 8;
        let base = estimate_plan_for(&plan, &tiny, true);
        let par = estimate_plan_for(&plan, &tiny_pool, true);
        assert!((par.time_secs - base.time_secs / 2.0).abs() < base.time_secs * 1e-9);
    }

    #[test]
    fn convert_fanout_and_tokens() {
        let c = ctx();
        let schema = Schema::new(
            "S",
            "",
            vec![FieldDef::text("a", ""), FieldDef::text("b", "")],
        )
        .unwrap();
        let plan = PhysicalPlan {
            ops: vec![
                PhysicalOp::Scan {
                    dataset: "d".into(),
                },
                PhysicalOp::LlmConvert {
                    target: schema,
                    cardinality: Cardinality::OneToMany,
                    description: String::new(),
                    model: "gpt-4o".into(),
                    effort: Effort::Standard,
                },
            ],
        };
        let est = estimate_plan(&plan, &c);
        assert!((est.output_cardinality - 130.0).abs() < 1e-6);
        assert!(est.cost_usd > 0.0);
        assert!(est.quality < 1.0);
    }

    #[test]
    fn limit_caps_cardinality() {
        let c = ctx();
        let plan = PhysicalPlan {
            ops: vec![
                PhysicalOp::Scan {
                    dataset: "d".into(),
                },
                PhysicalOp::Limit { n: 7 },
            ],
        };
        assert_eq!(estimate_plan(&plan, &c).output_cardinality, 7.0);
    }

    #[test]
    fn calibration_overrides_defaults() {
        let mut c = ctx();
        let mut calib = Calibration::default();
        calib.selectivity.insert(1, 0.1);
        calib.quality.insert((1, "gpt-4o".to_string()), 0.5);
        c.calibration = Some(calib);
        let est = estimate_plan(&filter_plan("gpt-4o", Effort::Standard), &c);
        assert!((est.output_cardinality - 10.0).abs() < 1e-9);
        assert!((est.quality - 0.5).abs() < 1e-9);
    }

    #[test]
    fn quality_multiplies_across_ops() {
        let c = ctx();
        let plan = PhysicalPlan {
            ops: vec![
                PhysicalOp::Scan {
                    dataset: "d".into(),
                },
                PhysicalOp::LlmFilter {
                    predicate: "p".into(),
                    model: "gpt-4o".into(),
                    effort: Effort::Standard,
                },
                PhysicalOp::LlmFilter {
                    predicate: "q".into(),
                    model: "gpt-4o".into(),
                    effort: Effort::Standard,
                },
            ],
        };
        let est = estimate_plan(&plan, &c);
        let single = estimate_plan(&filter_plan("gpt-4o", Effort::Standard), &c);
        assert!((est.quality - single.quality * single.quality).abs() < 1e-9);
    }

    #[test]
    fn ensemble_quality_correlation_effects() {
        // rho = 0: reduces to the independent majority.
        let qs = [0.8, 0.8, 0.8];
        assert!((ensemble_quality(&qs, 0.0) - majority_quality(&qs)).abs() < 1e-9);
        // rho = 1: fully nested difficulty — the vote errs whenever the
        // second-weakest judge errs, so quality equals the 2nd-best q.
        assert!((ensemble_quality(&[0.9, 0.8, 0.7], 1.0) - 0.8).abs() < 1e-9);
        // Monotone: more correlation, less benefit.
        let lo = ensemble_quality(&qs, 0.2);
        let hi = ensemble_quality(&qs, 0.8);
        assert!(lo > hi, "{lo} vs {hi}");
        assert_eq!(ensemble_quality(&[], 0.5), 0.0);
    }

    #[test]
    fn majority_quality_math() {
        // Unanimous perfection.
        assert!((majority_quality(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        // Single judge: majority = that judge.
        assert!((majority_quality(&[0.8]) - 0.8).abs() < 1e-12);
        // Three independent 0.8 judges: 0.8^3 + 3·0.8²·0.2 = 0.896.
        assert!((majority_quality(&[0.8, 0.8, 0.8]) - 0.896).abs() < 1e-12);
        // Majority of equals beats the individual.
        assert!(majority_quality(&[0.8, 0.8, 0.8]) > 0.8);
        // Even panel: a 1-1 tie counts as wrong, so two 0.8 judges are
        // worse than one (0.64 < 0.8).
        assert!((majority_quality(&[0.8, 0.8]) - 0.64).abs() < 1e-12);
        assert_eq!(majority_quality(&[]), 0.0);
    }

    #[test]
    fn ensemble_estimate_sums_cost_and_boosts_quality() {
        let c = ctx();
        let single = estimate_plan(&filter_plan("gpt-4o", Effort::Standard), &c);
        let ens = estimate_plan(
            &PhysicalPlan {
                ops: vec![
                    PhysicalOp::Scan {
                        dataset: "d".into(),
                    },
                    PhysicalOp::EnsembleFilter {
                        predicate: "about cancer".into(),
                        models: vec!["gpt-4o".into(), "llama-3-70b".into(), "gpt-4o-mini".into()],
                        effort: Effort::Standard,
                    },
                ],
            },
            &c,
        );
        assert!(ens.cost_usd > single.cost_usd, "ensemble must cost more");
        // Under the correlated-error model the 3-way vote edges out the
        // best *standard-effort* member but stays below the high-effort
        // champion — a mid-frontier point, matching published findings on
        // LLM ensembles.
        assert!(
            ens.quality > single.quality,
            "vote must beat best standard member"
        );
        let high = estimate_plan(&filter_plan("gpt-4o", Effort::High), &c);
        assert!(
            ens.quality < high.quality,
            "vote must not beat the high-effort champion"
        );
    }

    proptest! {
        #[test]
        fn estimates_are_nonnegative_and_quality_bounded(
            card in 0.0f64..10_000.0,
            tokens in 1.0f64..20_000.0,
        ) {
            let c = CostContext {
                catalog: Catalog::builtin(),
                input_cardinality: card,
                avg_record_tokens: tokens,
                build_cardinality: Default::default(),
                calibration: None,
                workers: 1,
            };
            let est = estimate_plan(&filter_plan("gpt-4o", Effort::High), &c);
            prop_assert!(est.cost_usd >= 0.0);
            prop_assert!(est.time_secs >= 0.0);
            prop_assert!(est.output_cardinality >= 0.0);
            prop_assert!((0.0..=1.0).contains(&est.quality));
        }

        #[test]
        fn cost_monotone_in_cardinality(a in 1.0f64..1_000.0, delta in 0.0f64..1_000.0) {
            let mk = |card: f64| CostContext {
                catalog: Catalog::builtin(),
                input_cardinality: card,
                avg_record_tokens: 2_000.0,
                build_cardinality: Default::default(),
                calibration: None,
                workers: 1,
            };
            let small = estimate_plan(&filter_plan("gpt-4o", Effort::Standard), &mk(a));
            let big = estimate_plan(&filter_plan("gpt-4o", Effort::Standard), &mk(a + delta));
            prop_assert!(big.cost_usd >= small.cost_usd);
            prop_assert!(big.time_secs >= small.time_secs);
        }

        #[test]
        fn majority_quality_in_unit_interval(
            qs in proptest::collection::vec(0.0f64..=1.0, 1..7),
            rho in 0.0f64..=1.0,
        ) {
            let m = majority_quality(&qs);
            prop_assert!((0.0..=1.0 + 1e-9).contains(&m));
            let e = ensemble_quality(&qs, rho);
            prop_assert!((-1e-9..=1.0 + 1e-9).contains(&e));
        }
    }

    #[test]
    fn effective_quality_bounds() {
        assert_eq!(effective_quality(0.8, Effort::Standard), 0.8);
        assert!((effective_quality(0.8, Effort::High) - 0.9).abs() < 1e-12);
        assert!(effective_quality(1.0, Effort::High) <= 1.0);
    }
}
