//! Golden digest of the simulated provider's answers.
//!
//! `SimulatedLlm::complete` is a pure function of the request and the seed.
//! This suite sends every task kind (filter, extract one and many,
//! classify, match, generate, free-form echo) over a fixed document set —
//! streamed docs 0..300 plus the science, legal and real-estate corpora,
//! and non-ASCII variants of some of them — and folds each response's
//! text, `Usage`, `latency_secs` bits and `cost_usd` bits into one hash per
//! task kind, then the ledger totals and the clock. Any change to the
//! simulator's text analysis that alters an answer, a token count or a
//! float bit changes a digest; a rewrite that only makes the analysis
//! faster leaves every digest as recorded here.

use pz_datagen::stream::{doc_at, StreamConfig};
use pz_datagen::{legal, realestate, science, Document};
use pz_llm::protocol::{
    classify_prompt, classify_prompt_with_effort, extract_prompt, extract_prompt_with_effort,
    filter_prompt, filter_prompt_with_effort, generate_prompt, match_prompt, Cardinality, Effort,
    FieldSpec,
};
use pz_llm::{stable_hash, CompletionRequest, LlmClient, SimulatedLlm};

const MODELS: [&str; 4] = ["gpt-4o", "gpt-4o-mini", "llama-3-8b", "mixtral-8x7b"];

/// Predicates: the three corpus predicates, duplicate and mixed-case words,
/// a predicate stem that is also a stopword ("wills" stems to "will"), the
/// empty predicate, and single words the corpora mostly spell in another
/// inflection ("patients", "characterizes", "cohorts", "bedrooms"), so
/// the verdict depends on the stemmer.
const PREDICATES: [&str; 12] = [
    science::FILTER_PREDICATE,
    legal::FILTER_PREDICATE,
    realestate::FILTER_PREDICATE,
    "Mutations mutation MUTATIONS in tumors",
    "wills and estates",
    "",
    "patient",
    "sequencing",
    "characterized",
    "cohort",
    "homes",
    "bedroom",
];

const LABELS: [&str; 6] = [
    "colorectal cancer",
    "breast cancer tumors",
    "galaxies and telescopes",
    "acme initech merger deal",
    "modern homes with a garden",
    "wills",
];

fn science_fields() -> Vec<FieldSpec> {
    vec![
        FieldSpec::new("name", "The name of the dataset"),
        FieldSpec::new("description", "A short description of the dataset"),
        FieldSpec::new("url", "The public URL where the dataset can be accessed"),
    ]
}

fn email_fields() -> Vec<FieldSpec> {
    vec![
        FieldSpec::new("sender", "Who sent the email"),
        FieldSpec::new("recipient", "Who received the email"),
        FieldSpec::new("date", "When the email was sent"),
        FieldSpec::new("subject", "The subject line"),
    ]
}

fn listing_fields() -> Vec<FieldSpec> {
    vec![
        FieldSpec::new("address", "The street address of the home"),
        FieldSpec::new("price_usd", "The asking price"),
        FieldSpec::new("bedrooms", "Number of bedrooms"),
        FieldSpec::new("listing_link", "A website for the listing"),
    ]
}

/// The document set: streamed docs plus the three generated corpora, and
/// for every seventh document a copy with non-ASCII letters, non-breaking
/// spaces, NEL and the ASCII control whitespace mixed in, so both the
/// ASCII and the general text paths are pinned.
fn documents() -> Vec<String> {
    let cfg = StreamConfig::sized(300, 1);
    let mut docs: Vec<String> = (0..300).map(|i| doc_at(&cfg, i).content).collect();
    let corpora: [Vec<Document>; 3] = [
        science::generate(science::ScienceConfig::default()).0,
        legal::generate(legal::LegalConfig::default()).0,
        realestate::generate(realestate::RealEstateConfig::default()).0,
    ];
    docs.extend(corpora.into_iter().flatten().map(|d| d.content));
    let variants: Vec<String> = docs
        .iter()
        .step_by(7)
        .map(|d| {
            format!(
                "Café Naïve — RÉSUMÉ\u{a0}Études\u{85}\x0b\x0cstraße\u{1c}\u{1f}\n{}\nURL:\u{a0}https://ex.org/é",
                d.replacen(' ', "\u{a0}", 5)
            )
        })
        .collect();
    docs.extend(variants);
    docs
}

#[derive(Default)]
struct Digest {
    hash: u64,
    calls: usize,
}

impl Digest {
    fn fold(&mut self, part: &str) {
        self.hash = stable_hash(&[&format!("{:016x}", self.hash), part]);
    }

    fn call(&mut self, sim: &SimulatedLlm, req: CompletionRequest) {
        let part = match sim.complete(&req) {
            Ok(r) => format!(
                "{}\u{1}{}\u{1}{}\u{1}{:016x}\u{1}{:016x}",
                r.text,
                r.usage.input_tokens,
                r.usage.output_tokens,
                r.latency_secs.to_bits(),
                r.cost_usd.to_bits()
            ),
            Err(e) => format!("error\u{1}{e:?}"),
        };
        self.fold(&part);
        self.calls += 1;
    }
}

fn digests() -> Vec<(&'static str, usize, u64)> {
    let sim = SimulatedLlm::with_defaults();
    let docs = documents();
    let labels: Vec<String> = LABELS.iter().map(|l| l.to_string()).collect();
    let fieldsets = [science_fields(), email_fields(), listing_fields()];
    let mut filter = Digest::default();
    let mut extract_one = Digest::default();
    let mut extract_many = Digest::default();
    let mut classify = Digest::default();
    let mut matching = Digest::default();
    let mut generate = Digest::default();
    for (i, doc) in docs.iter().enumerate() {
        let model = MODELS[i % MODELS.len()];
        let effort = if i % 5 == 0 {
            Effort::High
        } else {
            Effort::Standard
        };
        for p in PREDICATES {
            filter.call(&sim, CompletionRequest::new(model, filter_prompt(p, doc)));
        }
        filter.call(
            &sim,
            CompletionRequest::new(
                model,
                filter_prompt_with_effort(PREDICATES[i % PREDICATES.len()], doc, effort),
            ),
        );
        let fields = &fieldsets[i % fieldsets.len()];
        extract_one.call(
            &sim,
            CompletionRequest::new(
                model,
                extract_prompt_with_effort(fields, Cardinality::OneToOne, doc, effort),
            ),
        );
        extract_many.call(
            &sim,
            CompletionRequest::new(model, extract_prompt(fields, Cardinality::OneToMany, doc)),
        );
        classify.call(
            &sim,
            CompletionRequest::new(model, classify_prompt(&labels, doc)),
        );
        classify.call(
            &sim,
            CompletionRequest::new(model, classify_prompt_with_effort(&labels, doc, effort)),
        );
        let next = &docs[(i + 1) % docs.len()];
        let title = doc.lines().next().unwrap_or("");
        matching.call(
            &sim,
            CompletionRequest::new(model, match_prompt("same topic", doc, next, effort)),
        );
        matching.call(
            &sim,
            CompletionRequest::new(
                model,
                match_prompt("same dataset", title, doc, Effort::Standard),
            ),
        );
        generate.call(
            &sim,
            CompletionRequest::new(model, generate_prompt("summarize", doc)),
        );
        generate.call(
            &sim,
            CompletionRequest::new(model, generate_prompt("shorten", doc))
                .with_max_output_tokens(7),
        );
        generate.call(
            &sim,
            CompletionRequest::new(model, doc.clone()).with_system("You are terse."),
        );
    }
    let ledger = sim.ledger();
    let usage = ledger.total_usage();
    let mut totals = Digest::default();
    totals.fold(&format!(
        "{}\u{1}{}\u{1}{}\u{1}{:016x}\u{1}{:016x}\u{1}{:016x}",
        ledger.total_requests(),
        usage.input_tokens,
        usage.output_tokens,
        ledger.total_cost_usd().to_bits(),
        ledger.total_latency_secs().to_bits(),
        sim.clock().now_secs().to_bits()
    ));
    totals.calls = ledger.total_requests();
    vec![
        ("filter", filter.calls, filter.hash),
        ("extract-one", extract_one.calls, extract_one.hash),
        ("extract-many", extract_many.calls, extract_many.hash),
        ("classify", classify.calls, classify.hash),
        ("match", matching.calls, matching.hash),
        ("generate", generate.calls, generate.hash),
        ("ledger+clock", totals.calls, totals.hash),
    ]
}

/// Calls and digest per task kind. A change that only speeds the simulator
/// up must reproduce every entry exactly; a deliberate change of its
/// answers re-records the table printed by a failing run.
const GOLDEN: [(&str, usize, u64); 7] = [
    ("filter", 7436, 0xe6928d42466bf712),
    ("extract-one", 572, 0xceee84c4a840088f),
    ("extract-many", 572, 0x0c6019dc6bfb7e10),
    ("classify", 1144, 0xc178f8ee2f878327),
    ("match", 1144, 0xc8bbad8d07c2e222),
    ("generate", 1716, 0xfc17a797525b6079),
    ("ledger+clock", 12577, 0xa33527dfd60726a1),
];

#[test]
fn simulator_answers_match_golden_digest() {
    let got = digests();
    let table: String = got
        .iter()
        .map(|(k, n, h)| format!("    ({k:?}, {n}, 0x{h:016x}),\n"))
        .collect();
    assert_eq!(got, GOLDEN.to_vec(), "digest table now:\n{table}");
}
