//! Sentinel calibration.
//!
//! The coarse defaults of the cost model (selectivity 0.5, fan-out 1.3,
//! card quality factors) can badly misrank plans. Following the Palimpzest
//! optimizer's sample-based approach, calibration executes the semantic
//! operators over a small *sample* of the input with every candidate model,
//! using the champion (highest-quality) model's output as reference:
//!
//! * observed champion selectivity / fan-out replaces the defaults;
//! * per-model agreement with the champion replaces the card quality.
//!
//! The sample runs charge real (virtual) cost — calibration is an
//! investment the optimizer amortizes over the full run (experiment E9).

use crate::context::PzContext;
use crate::datasource::prefix;
use crate::error::PzResult;
use crate::ops::logical::{FilterPredicate, LogicalOp, LogicalPlan};
use crate::ops::physical::{default_physical, PhysicalOp};
use crate::optimizer::cost::Calibration;
use crate::optimizer::enumerate::EMBEDDING_FILTER_THRESHOLD;
use crate::record::DataRecord;
use pz_llm::count_tokens;
use pz_llm::protocol::Effort;
use pz_llm::ModelId;
use pz_llm::ModelKind;

/// Run sentinel calibration for `plan` on a sample of `sample_size` source
/// records: the first ones, generated without materializing the rest.
pub fn calibrate(ctx: &PzContext, plan: &LogicalPlan, sample_size: usize) -> PzResult<Calibration> {
    let mut calib = Calibration::default();
    let src = ctx.registry.get(plan.dataset())?;
    let base = ctx.next_ids(sample_size.max(1) as u64 * 4);
    let mut sample = prefix(src.as_ref(), base, sample_size.max(1))?;
    if sample.is_empty() {
        return Ok(calib);
    }
    let toks: usize = sample.iter().map(|r| count_tokens(&r.prompt_text())).sum();
    calib.avg_record_tokens = Some(toks as f64 / sample.len() as f64);

    let champion: ModelId = ctx
        .catalog
        .chat_models_by_quality()
        .first()
        .map(|m| m.id.clone())
        .unwrap_or_else(|| "gpt-4o".into());
    let challengers: Vec<ModelId> = ctx
        .catalog
        .of_kind(ModelKind::Chat)
        .map(|m| m.id.clone())
        .filter(|m| *m != champion)
        .collect();

    for (idx, op) in plan.ops.iter().enumerate() {
        match op {
            LogicalOp::Scan { .. } => {}
            LogicalOp::Filter {
                predicate: FilterPredicate::NaturalLanguage(pred),
            } => {
                // Champion decisions = reference.
                let champ: Vec<bool> = decisions(ctx, &sample, pred, &champion)?;
                let kept = champ.iter().filter(|b| **b).count();
                calib
                    .selectivity
                    .insert(idx, kept as f64 / sample.len() as f64);
                calib.quality.insert(
                    (idx, champion.to_string()),
                    champion_self_quality(ctx, &champion),
                );
                for m in &challengers {
                    let d = decisions(ctx, &sample, pred, m)?;
                    let agree = d.iter().zip(&champ).filter(|(a, b)| a == b).count();
                    calib
                        .quality
                        .insert((idx, m.to_string()), agree as f64 / sample.len() as f64);
                }
                // Embedding strategy agreement.
                if let Some(em) = ctx.catalog.of_kind(ModelKind::Embedding).next() {
                    let kept_emb = crate::ops::filter::embedding_filter(
                        ctx,
                        sample.clone(),
                        pred,
                        &em.id,
                        EMBEDDING_FILTER_THRESHOLD,
                    )?;
                    let emb_ids: Vec<u64> = kept_emb.iter().map(|r| r.id).collect();
                    let agree = sample
                        .iter()
                        .zip(&champ)
                        .filter(|(r, c)| emb_ids.contains(&r.id) == **c)
                        .count();
                    calib
                        .quality
                        .insert((idx, em.id.to_string()), agree as f64 / sample.len() as f64);
                }
                // The sample continues with the champion-filtered subset.
                sample = sample
                    .into_iter()
                    .zip(champ)
                    .filter(|(_, keep)| *keep)
                    .map(|(r, _)| r)
                    .collect();
            }
            LogicalOp::Convert {
                target,
                cardinality,
                ..
            } => {
                if sample.is_empty() {
                    break;
                }
                let champ_out = crate::ops::convert::llm_convert(
                    ctx,
                    sample.clone(),
                    target,
                    *cardinality,
                    &champion,
                    Effort::Standard,
                )?;
                calib
                    .fanout
                    .insert(idx, champ_out.len() as f64 / sample.len() as f64);
                calib.quality.insert(
                    (idx, champion.to_string()),
                    champion_self_quality(ctx, &champion),
                );
                for m in &challengers {
                    let out = crate::ops::convert::llm_convert(
                        ctx,
                        sample.clone(),
                        target,
                        *cardinality,
                        m,
                        Effort::Standard,
                    )?;
                    calib
                        .quality
                        .insert((idx, m.to_string()), extraction_agreement(&champ_out, &out));
                }
                sample = champ_out;
            }
            other => {
                // Conventional ops: apply their default physical semantics
                // so downstream calibration sees realistic data.
                if let Some(phys) = default_physical(other) {
                    if !matches!(phys, PhysicalOp::Scan { .. }) {
                        sample = phys.execute(ctx, sample)?;
                    }
                }
                if let LogicalOp::Filter {
                    predicate: FilterPredicate::Udf(_),
                } = other
                {
                    // (UDF filters have no default_physical; run directly.)
                }
            }
        }
    }
    Ok(calib)
}

/// The champion has no external reference on the sample; its calibrated
/// quality stays at the card value.
fn champion_self_quality(ctx: &PzContext, champion: &ModelId) -> f64 {
    ctx.catalog.get(champion).map(|m| m.quality).unwrap_or(1.0)
}

/// Per-record boolean decisions for a filter.
fn decisions(
    ctx: &PzContext,
    sample: &[DataRecord],
    predicate: &str,
    model: &ModelId,
) -> PzResult<Vec<bool>> {
    let mut out = Vec::with_capacity(sample.len());
    for rec in sample {
        let kept = crate::ops::filter::llm_filter(
            ctx,
            vec![rec.clone()],
            predicate,
            model,
            Effort::Standard,
        )?;
        out.push(!kept.is_empty());
    }
    Ok(out)
}

/// Fraction of champion field values a challenger reproduced exactly.
fn extraction_agreement(champion: &[DataRecord], challenger: &[DataRecord]) -> f64 {
    let mut total = 0usize;
    let mut agree = 0usize;
    for c in champion {
        for (k, v) in &c.fields {
            if v.is_null() {
                continue;
            }
            total += 1;
            // Match on lineage (same parent record) and field value.
            if challenger.iter().any(|o| {
                o.lineage.last() == c.lineage.last() && o.get(k).map(|ov| ov == v).unwrap_or(false)
            }) {
                agree += 1;
            }
        }
    }
    if total == 0 {
        1.0
    } else {
        agree as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::datasource::MemorySource;
    use crate::field::FieldDef;
    use crate::ops::logical::Cardinality;
    use crate::schema::Schema;
    use std::sync::Arc;

    fn science_ctx(n: usize) -> PzContext {
        let ctx = PzContext::simulated();
        let (docs, _) = pz_datagen::science::generate(pz_datagen::science::ScienceConfig {
            n_papers: n,
            ..Default::default()
        });
        let items = docs.into_iter().map(|d| (d.filename, d.content)).collect();
        ctx.registry.register(Arc::new(MemorySource::new(
            "sci",
            Schema::pdf_file(),
            items,
        )));
        ctx
    }

    fn demo_plan() -> LogicalPlan {
        let clinical = Schema::new(
            "ClinicalData",
            "",
            vec![
                FieldDef::text("name", "The dataset name"),
                FieldDef::text("url", "The public URL of the dataset"),
            ],
        )
        .unwrap();
        Dataset::source("sci")
            .filter("The papers are about colorectal cancer")
            .convert(clinical, Cardinality::OneToMany, "extract datasets")
            .build()
            .unwrap()
    }

    #[test]
    fn calibration_measures_selectivity_and_quality() {
        let ctx = science_ctx(30);
        let calib = calibrate(&ctx, &demo_plan(), 12).unwrap();
        // Filter selectivity observed (op index 1).
        let sel = calib.selectivity.get(&1).copied().unwrap();
        assert!((0.0..=1.0).contains(&sel));
        // Quality entries exist for challenger models.
        assert!(calib
            .quality
            .keys()
            .any(|(i, m)| *i == 1 && m == "llama-3-8b"));
        assert!(calib
            .quality
            .keys()
            .any(|(i, m)| *i == 2 && m == "gpt-4o-mini"));
        // Convert fan-out measured.
        assert!(calib.fanout.contains_key(&2));
        assert!(calib.avg_record_tokens.unwrap() > 50.0);
    }

    #[test]
    fn weak_models_calibrate_lower_than_strong() {
        let ctx = science_ctx(80);
        let calib = calibrate(&ctx, &demo_plan(), 32).unwrap();
        let strong = calib
            .quality
            .get(&(1, "llama-3-70b".to_string()))
            .copied()
            .unwrap();
        let weak = calib
            .quality
            .get(&(1, "llama-3-8b".to_string()))
            .copied()
            .unwrap();
        assert!(
            strong >= weak,
            "calibrated quality should rank strong >= weak ({strong} vs {weak})"
        );
    }

    #[test]
    fn calibration_charges_cost() {
        let ctx = science_ctx(20);
        calibrate(&ctx, &demo_plan(), 8).unwrap();
        assert!(
            ctx.ledger.total_cost_usd() > 0.0,
            "sentinel runs cost money"
        );
    }

    #[test]
    fn empty_sample_is_benign() {
        let ctx = PzContext::simulated();
        ctx.registry.register(Arc::new(MemorySource::new(
            "empty",
            Schema::pdf_file(),
            vec![],
        )));
        let plan = Dataset::source("empty").filter("anything").build().unwrap();
        let calib = calibrate(&ctx, &plan, 5).unwrap();
        assert!(calib.selectivity.is_empty());
    }
}
