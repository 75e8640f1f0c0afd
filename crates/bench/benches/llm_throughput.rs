//! Substrate bench: simulated-LLM call throughput for the prompt kinds
//! pipelines issue (filter, extract, classify, embed). Wall-clock only —
//! the virtual-latency accounting is free by design.
//!
//! The `stream_*` cases send prompts over the streamed science corpus
//! (`pz_datagen::stream`, ~1.7 KB documents, most without a URL), cycling
//! through 64 pre-rendered documents, so they time the simulator's text
//! analysis on the inputs the engine's workloads actually send. `DOC` is a
//! short hand-written paper kept for the embed case and for comparison.
//!
//! Run with `cargo bench -p bench --bench llm_throughput`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pz_datagen::stream::{doc_at, StreamConfig};
use pz_llm::protocol::{classify_prompt, extract_prompt, filter_prompt, Cardinality, FieldSpec};
use pz_llm::{CompletionRequest, EmbeddingRequest, LlmClient, SimulatedLlm};
use std::hint::black_box;

const DOC: &str = "Title: Gene mutation profiles in colorectal cancer tumors\n\
    Abstract: We study somatic mutation patterns in colorectal cancer tumor \
    cells using public genomic cohorts across multiple hospitals and cohorts.\n\
    Dataset: TCGA-COADREAD\n\
    Description: Colorectal adenocarcinoma multi omics cohort\n\
    URL: https://portal.gdc.cancer.gov/projects/TCGA-COADREAD\n";

/// Streamed documents the `stream_*` cases cycle through.
const STREAM_DOCS: usize = 64;

/// Calls per `stream_*` measurement: every document ten times.
const STREAM_ITERS: usize = 10 * STREAM_DOCS;

fn fields() -> Vec<FieldSpec> {
    vec![
        FieldSpec::new("name", "The dataset name"),
        FieldSpec::new("description", "A short description"),
        FieldSpec::new("url", "The public URL"),
    ]
}

/// Time one call per iteration, cycling through `reqs`.
fn bench_cycle(
    group: &mut criterion::BenchmarkGroup<'_>,
    sim: &SimulatedLlm,
    id: &str,
    reqs: &[CompletionRequest],
) {
    let mut i = 0usize;
    group.bench_function(id, |b| {
        b.iter(|| {
            let req = &reqs[i % reqs.len()];
            i += 1;
            black_box(sim.complete(black_box(req)).unwrap().text.len())
        })
    });
}

fn bench_llm(c: &mut Criterion) {
    let sim = SimulatedLlm::with_defaults();
    let mut group = c.benchmark_group("sim_llm");
    group.throughput(Throughput::Elements(1));

    let filter_req = CompletionRequest::new(
        "gpt-4o",
        filter_prompt("The papers are about colorectal cancer", DOC),
    );
    group.bench_function("filter_call", |b| {
        b.iter(|| black_box(sim.complete(black_box(&filter_req)).unwrap().text.len()))
    });

    let extract_req = CompletionRequest::new(
        "gpt-4o",
        extract_prompt(&fields(), Cardinality::OneToMany, DOC),
    );
    group.bench_function("extract_call", |b| {
        b.iter(|| black_box(sim.complete(black_box(&extract_req)).unwrap().text.len()))
    });

    let embed_req = EmbeddingRequest {
        model: "text-embedding-3-small".into(),
        inputs: vec![DOC.to_string()],
    };
    group.bench_function("embed_call", |b| {
        b.iter(|| black_box(sim.embed(black_box(&embed_req)).unwrap().vectors.len()))
    });

    let cfg = StreamConfig::sized(STREAM_DOCS, 1);
    let docs: Vec<String> = (0..STREAM_DOCS).map(|i| doc_at(&cfg, i).content).collect();
    let labels: Vec<String> = ["colorectal cancer", "breast cancer", "astronomy"]
        .iter()
        .map(|l| l.to_string())
        .collect();
    let requests = |render: &dyn Fn(&str) -> String| -> Vec<CompletionRequest> {
        docs.iter()
            .map(|d| CompletionRequest::new("gpt-4o", render(d)))
            .collect()
    };
    let filters = requests(&|d| filter_prompt("The papers are about colorectal cancer", d));
    let extracts = requests(&|d| extract_prompt(&fields(), Cardinality::OneToMany, d));
    let classifies = requests(&|d| classify_prompt(&labels, d));
    group.sample_size(STREAM_ITERS);
    bench_cycle(&mut group, &sim, "stream_filter_call", &filters);
    bench_cycle(&mut group, &sim, "stream_extract_call", &extracts);
    bench_cycle(&mut group, &sim, "stream_classify_call", &classifies);
    group.finish();
}

criterion_group!(benches, bench_llm);
criterion_main!(benches);
