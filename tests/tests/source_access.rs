//! Integration: how much of a source each layer touches.
//!
//! Costing a plan needs the source's cardinality and its average record
//! size, and sentinel calibration needs a small sample. Neither may
//! materialize the corpus: the optimizer reads `cardinality_hint` and the
//! first batch of `batches(0, 5)`, so a chunked run of an optimized plan
//! generates each record once plus the 5-record costing prefix. These
//! tests count generator calls to hold every layer to that, check that
//! the estimates equal the old materialize-then-take-5 values for every
//! source kind, and check that scans reserve one record id per record so
//! derived records never reuse a source record's id.

mod common;

use common::clinical_schema;
use pz_core::datasource::{wrap_pdf, DataSource};
use pz_core::optimizer::cost::CostContext;
use pz_core::optimizer::sentinel::calibrate;
use pz_core::prelude::*;
use pz_datagen::stream::{doc_at, StreamConfig};
use pz_llm::count_tokens;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A streamed corpus of `n` papers whose generator counts its calls.
fn counting_source(name: &str, n: usize) -> (GeneratedSource, Arc<AtomicUsize>) {
    let calls = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&calls);
    let cfg = StreamConfig::sized(n, 7);
    let src = GeneratedSource::new(name, Schema::pdf_file(), n, move |i| {
        counter.fetch_add(1, Ordering::Relaxed);
        let doc = doc_at(&cfg, i);
        (doc.filename, doc.content)
    });
    (src, calls)
}

fn ctx_with_counting_source(n: usize) -> (PzContext, Arc<AtomicUsize>) {
    let ctx = PzContext::simulated();
    let (src, calls) = counting_source("papers", n);
    ctx.registry.register(Arc::new(src));
    (ctx, calls)
}

fn filter_plan(dataset: &str) -> LogicalPlan {
    Dataset::source(dataset)
        .filter("The papers are about colorectal cancer")
        .build()
        .unwrap()
}

fn scan_plan(dataset: &str) -> PhysicalPlan {
    PhysicalPlan {
        ops: vec![PhysicalOp::Scan {
            dataset: dataset.into(),
        }],
    }
}

/// A fresh, empty directory under the system temp dir.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pz-source-access-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn costing_generates_at_most_the_size_sample() {
    let n = 10_000;
    let (ctx, calls) = ctx_with_counting_source(n);
    let cost = CostContext::from_context(&ctx, &filter_plan("papers")).unwrap();
    assert_eq!(cost.input_cardinality, n as f64);
    assert!(
        calls.load(Ordering::Relaxed) <= 5,
        "from_context generated {calls:?}"
    );

    calls.store(0, Ordering::Relaxed);
    let cost = CostContext::from_physical_plan(&ctx, &scan_plan("papers")).unwrap();
    assert_eq!(cost.input_cardinality, n as f64);
    assert!(
        calls.load(Ordering::Relaxed) <= 5,
        "from_physical_plan generated {calls:?}"
    );
}

#[test]
fn calibration_generates_exactly_its_sample() {
    let (ctx, calls) = ctx_with_counting_source(10_000);
    for k in [1, 6] {
        calls.store(0, Ordering::Relaxed);
        calibrate(&ctx, &filter_plan("papers"), k).unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), k, "sample of {k}");
    }
}

#[test]
fn chunked_execute_generates_each_record_once_plus_the_costing_prefix() {
    let n = 3_000;
    let (ctx, calls) = ctx_with_counting_source(n);
    ctx.udfs.register_filter("rare", |r: &DataRecord| {
        r.get("filename")
            .and_then(|v| v.as_text())
            .is_some_and(|f| f.contains("00."))
    });
    let plan = Dataset::source("papers")
        .filter_udf("rare")
        .build()
        .unwrap();
    let outcome = execute(
        &ctx,
        &plan,
        &Policy::MaxQuality,
        ExecutionConfig::sequential().with_scan_chunk_size(256),
    )
    .unwrap();
    assert_eq!(outcome.records.len(), n / 100);
    assert_eq!(calls.load(Ordering::Relaxed), n + 5);
}

/// A custom source that does not know its size: costing falls back to
/// counting a full materialization.
struct NoHint(MemorySource);

impl DataSource for NoHint {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn schema(&self) -> Schema {
        self.0.schema()
    }
    fn records(&self, base_id: u64) -> PzResult<Vec<DataRecord>> {
        self.0.records(base_id)
    }
}

/// The profile the cost model used to take: materialize everything, then
/// average the first five records' tokens.
fn materialized_profile(src: &dyn DataSource) -> (f64, f64) {
    let records = src.records(0).unwrap();
    let sample: Vec<usize> = records
        .iter()
        .take(5)
        .map(|r| count_tokens(&r.prompt_text()))
        .collect();
    let avg = if sample.is_empty() {
        200.0
    } else {
        sample.iter().sum::<usize>() as f64 / sample.len() as f64
    };
    (records.len() as f64, avg)
}

#[test]
fn estimates_match_the_materialized_profile_for_every_source_kind() {
    let cfg = StreamConfig::sized(12, 3);
    let items: Vec<(String, String)> = (0..12)
        .map(|i| {
            let doc = doc_at(&cfg, i);
            (doc.filename, wrap_pdf(&doc.content))
        })
        .collect();
    let dir = temp_dir("profile");
    for (filename, content) in &items[..7] {
        std::fs::write(dir.join(filename), content).unwrap();
    }
    let versioned = VersionedSource::new("versioned", Schema::pdf_file(), items[..4].to_vec());
    versioned.append("late.txt", "a record appended after registration");

    let sources: Vec<Arc<dyn DataSource>> = vec![
        Arc::new(counting_source("generated", 40).0),
        Arc::new(MemorySource::new(
            "memory",
            Schema::pdf_file(),
            items.clone(),
        )),
        Arc::new(versioned),
        Arc::new(DirectorySource::new("directory", Schema::pdf_file(), &dir)),
        Arc::new(NoHint(MemorySource::new(
            "no-hint",
            Schema::pdf_file(),
            items[..9].to_vec(),
        ))),
        Arc::new(MemorySource::new("empty", Schema::pdf_file(), Vec::new())),
    ];
    let ctx = PzContext::simulated();
    for src in &sources {
        ctx.registry.register(Arc::clone(src));
    }
    for src in &sources {
        let name = src.name();
        let expected = materialized_profile(src.as_ref());
        let logical = CostContext::from_context(&ctx, &filter_plan(name)).unwrap();
        assert_eq!(
            (logical.input_cardinality, logical.avg_record_tokens),
            expected,
            "from_context on {name}"
        );
        let physical = CostContext::from_physical_plan(&ctx, &scan_plan(name)).unwrap();
        assert_eq!(
            (physical.input_cardinality, physical.avg_record_tokens),
            expected,
            "from_physical_plan on {name}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn directory_scan_then_convert_never_reuses_an_id() {
    let dir = temp_dir("ids");
    let (docs, _) = pz_datagen::science::demo_corpus();
    assert_eq!(
        pz_datagen::write_corpus_to_dir(&docs[..3], &dir).unwrap(),
        3
    );
    let plan = Dataset::source("folder")
        .convert(clinical_schema(), Cardinality::OneToOne, "extract datasets")
        .build()
        .unwrap();
    for config in [ExecutionConfig::sequential(), ExecutionConfig::streaming()] {
        let ctx = PzContext::simulated();
        ctx.registry.register(Arc::new(DirectorySource::new(
            "folder",
            Schema::pdf_file(),
            &dir,
        )));
        let outcome = execute(&ctx, &plan, &Policy::MaxQuality, config).unwrap();
        assert!(!outcome.records.is_empty());
        let mut seen = BTreeSet::new();
        for r in &outcome.records {
            for id in std::iter::once(r.id).chain(r.lineage.iter().copied()) {
                assert!(seen.insert(id), "id {id} appears twice ({:?})", config.mode);
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
