//! Deterministic LLM simulator.
//!
//! This is substitution **S1** from DESIGN.md: hosted models are replaced by
//! a simulator that (a) actually performs the filter / extract / classify /
//! generate tasks over the synthetic corpora using transparent rules, and
//! (b) injects *deterministic, quality-dependent errors*, so that cheaper
//! models measurably produce worse output — the property Palimpzest's
//! optimizer trades against cost and latency.
//!
//! Error injection is keyed by `(seed, model, task, content)` through the
//! stable hash, so a given record is always judged the same way by a given
//! model: reruns are bit-identical, yet aggregate error rates match the
//! model card's quality factor.

use crate::catalog::{Catalog, ModelKind};
use crate::client::{
    CompletionRequest, CompletionResponse, EmbeddingRequest, EmbeddingResponse, LlmClient, LlmError,
};
use crate::clock::VirtualClock;
use crate::embedding::Embedder;
use crate::fault::{FaultInjector, FaultPlan};
use crate::protocol::{self, Cardinality, Effort, FieldSpec, Task};
use crate::tokenizer::{count_output_tokens, count_tokens};
use crate::usage::{Usage, UsageLedger};
use crate::{hash_unit, stable_hash};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};

/// Configuration of the simulator.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Master seed: change it to sample a different (but still
    /// deterministic) error pattern.
    pub seed: u64,
    /// Probability that any single call fails with a transient error
    /// (exercises retry paths; 0.0 in most experiments).
    pub transient_failure_rate: f64,
    /// Dimensionality of simulated embeddings.
    pub embedding_dim: usize,
    /// Scripted per-model fault windows (outages, brownouts, rate limits,
    /// timeouts, malformed output) on the virtual clock. Empty by default:
    /// the fault path is then a complete no-op.
    pub fault_plan: FaultPlan,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            transient_failure_rate: 0.0,
            embedding_dim: 64,
            fault_plan: FaultPlan::none(),
        }
    }
}

/// The simulated client. Cheap to clone is not required; executors share it
/// behind an `Arc`.
pub struct SimulatedLlm {
    catalog: Catalog,
    config: SimConfig,
    clock: VirtualClock,
    ledger: UsageLedger,
    embedder: Embedder,
    faults: FaultInjector,
    call_counter: AtomicU64,
}

/// A seed in decimal, rendered on the stack: the first part of every
/// error-injection hash key.
struct SeedKey {
    digits: [u8; 20],
    start: usize,
}

impl SeedKey {
    fn new(mut seed: u64) -> Self {
        let mut digits = [0u8; 20];
        let mut start = digits.len();
        loop {
            start -= 1;
            digits[start] = b'0' + (seed % 10) as u8;
            seed /= 10;
            if seed == 0 {
                return Self { digits, start };
            }
        }
    }

    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.digits[self.start..]).expect("decimal digits are ASCII")
    }
}

impl SimulatedLlm {
    pub fn new(
        catalog: Catalog,
        config: SimConfig,
        clock: VirtualClock,
        ledger: UsageLedger,
    ) -> Self {
        let embedder = Embedder::new(config.embedding_dim);
        let faults = FaultInjector::new(config.fault_plan.clone());
        Self {
            catalog,
            config,
            clock,
            ledger,
            embedder,
            faults,
            call_counter: AtomicU64::new(0),
        }
    }

    /// Simulator over the builtin catalog with fresh clock and ledger.
    pub fn with_defaults() -> Self {
        Self::new(
            Catalog::builtin(),
            SimConfig::default(),
            VirtualClock::new(),
            UsageLedger::new(),
        )
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    pub fn ledger(&self) -> &UsageLedger {
        &self.ledger
    }

    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Shared handle on the scripted fault plan; clones observe (and can
    /// swap) the same plan live.
    pub fn faults(&self) -> &FaultInjector {
        &self.faults
    }

    /// Consult the scripted fault plan. Runs before any billing: a faulted
    /// call costs no tokens and no dollars — except timeouts, which burn
    /// the stalled wall-clock time.
    fn check_faults(&self, model: &crate::catalog::ModelId) -> Result<(), LlmError> {
        match self.faults.check(model, self.clock.now_secs()) {
            Ok(()) => Ok(()),
            Err(fault) => {
                if fault.stall_secs > 0.0 {
                    self.clock.advance_secs(fault.stall_secs);
                }
                Err(fault.error)
            }
        }
    }

    /// Decide whether this call transiently fails (deterministic in the call
    /// counter, so a retry of the "same" request is a *different* call and
    /// can succeed).
    fn maybe_transient(&self) -> Result<(), LlmError> {
        if self.config.transient_failure_rate <= 0.0 {
            return Ok(());
        }
        let n = self.call_counter.fetch_add(1, Ordering::Relaxed);
        let seed = SeedKey::new(self.config.seed);
        let u = hash_unit(&[seed.as_str(), "transient", &n.to_string()]);
        if u < self.config.transient_failure_rate {
            Err(LlmError::Transient {
                attempt: n as usize,
                reason: "simulated provider overload".into(),
            })
        } else {
            Ok(())
        }
    }
}

// ---------------------------------------------------------------------------
// Text analysis helpers (shared by the task implementations)
// ---------------------------------------------------------------------------

const STOPWORDS: &[&str] = &[
    "a",
    "an",
    "the",
    "is",
    "are",
    "was",
    "were",
    "be",
    "been",
    "being",
    "do",
    "does",
    "did",
    "have",
    "has",
    "had",
    "of",
    "in",
    "on",
    "at",
    "to",
    "for",
    "with",
    "by",
    "from",
    "as",
    "about",
    "into",
    "that",
    "this",
    "these",
    "those",
    "it",
    "its",
    "and",
    "or",
    "not",
    "no",
    "paper",
    "papers",
    "document",
    "documents",
    "record",
    "records",
    "item",
    "items",
    "all",
    "any",
    "which",
    "who",
    "whom",
    "whose",
    "what",
    "where",
    "when",
    "how",
    "should",
    "would",
    "must",
    "can",
    "could",
    "may",
    "might",
    "will",
    "shall",
    "than",
    "then",
    "there",
    "their",
    "they",
    "them",
    "we",
    "you",
    "i",
    "he",
    "she",
    "his",
    "her",
    "our",
    "your",
    // Conversational filler around predicates: container nouns and speech
    // verbs that carry no topical signal.
    "listing",
    "listings",
    "email",
    "emails",
    "mail",
    "mails",
    "message",
    "messages",
    "describe",
    "describes",
    "describing",
    "discuss",
    "discusses",
    "discussing",
    "mention",
    "mentions",
    "mentioning",
    "keep",
    "only",
    "interested",
    "want",
    "wants",
    "like",
    "please",
    "study",
    "studies",
];

/// A word of at most 15 bytes packed into one integer: its bytes, then
/// its length in the low byte, so distinct words get distinct keys. Longer
/// words have no key.
const fn word_key(w: &[u8]) -> Option<u128> {
    if w.len() > 15 {
        return None;
    }
    let mut key = 0u128;
    let mut i = 0;
    while i < w.len() {
        key = key << 8 | w[i] as u128;
        i += 1;
    }
    Some(key << 8 | w.len() as u128)
}

/// [`STOPWORDS`] as sorted [`word_key`]s (an insertion sort run at compile
/// time), so a lookup is a binary search over integers.
const STOPWORD_KEYS: [u128; STOPWORDS.len()] = {
    let mut keys = [0u128; STOPWORDS.len()];
    let mut i = 0;
    while i < STOPWORDS.len() {
        let key = match word_key(STOPWORDS[i].as_bytes()) {
            Some(key) => key,
            None => panic!("stopwords are at most 15 bytes"),
        };
        let mut j = i;
        while j > 0 && keys[j - 1] > key {
            keys[j] = keys[j - 1];
            j -= 1;
        }
        keys[j] = key;
        i += 1;
    }
    keys
};

fn is_stopword(w: &str) -> bool {
    word_key(w.as_bytes()).is_some_and(|key| STOPWORD_KEYS.binary_search(&key).is_ok())
}

/// Stream the content words of `text` through `f`, in order: maximal
/// alphanumeric runs longer than one byte, ASCII-lowercased, stopwords
/// removed. Every word goes through one reused buffer, so the scan makes
/// no per-word allocation; `f` may rewrite the buffer (e.g. [`stem`] it)
/// and stops the scan by returning `Break`.
fn for_each_content_word(text: &str, mut f: impl FnMut(&mut String) -> ControlFlow<()>) {
    let mut buf = String::new();
    for t in text.split(|c: char| !c.is_alphanumeric()) {
        if t.len() <= 1 {
            continue;
        }
        buf.clear();
        buf.push_str(t);
        buf.make_ascii_lowercase();
        if is_stopword(&buf) {
            continue;
        }
        if f(&mut buf).is_break() {
            return;
        }
    }
}

/// Lowercased alphanumeric content words (stopwords removed).
pub(crate) fn content_words(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for_each_content_word(text, |w| {
        out.push(w.clone());
        ControlFlow::Continue(())
    });
    out
}

/// Stemmed content words of `text`, in order.
fn content_stems(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for_each_content_word(text, |w| {
        stem(w);
        out.push(w.clone());
        ControlFlow::Continue(())
    });
    out
}

/// Crude stemmer: normalizes common English inflections so "mutations"
/// matches "mutation", "homes" matches "home", "studies" matches "study".
/// Rewrites `w` in place; every rule shortens the word, so it never
/// allocates.
fn stem(w: &mut String) {
    let n = w.len();
    if n > 4 {
        if w.ends_with("ies") {
            w.truncate(n - 3);
            w.push('y');
            return;
        }
        // classes -> class, boxes -> box, churches -> church
        if ["sses", "xes", "zes", "ches", "shes"]
            .iter()
            .any(|suffix| w.ends_with(suffix))
        {
            w.truncate(n - 2);
            return;
        }
        if w.ends_with("ing") {
            w.truncate(n - 3);
            return;
        }
        if w.ends_with("ed") {
            w.truncate(n - 2);
            return;
        }
    }
    if n > 3 && w.ends_with('s') && !w.ends_with("ss") {
        w.truncate(n - 1);
    }
}

/// For each word list, the fraction of its words whose stem occurs among
/// the stemmed content words of `haystack` (an empty list scores 1.0).
/// The list stems are taken once; `haystack` is scanned once for all lists
/// and the scan stops as soon as every stem has been found, which cannot
/// change any count.
fn relevance_all(word_lists: &[Vec<String>], haystack: &str) -> Vec<f64> {
    // (list index, stem, found) per word, duplicates kept: a predicate
    // that repeats a word counts it twice.
    let mut wanted: Vec<(usize, String, bool)> = Vec::new();
    for (i, words) in word_lists.iter().enumerate() {
        for w in words {
            let mut s = w.clone();
            stem(&mut s);
            wanted.push((i, s, false));
        }
    }
    let mut missing = wanted.len();
    if missing > 0 {
        for_each_content_word(haystack, |w| {
            stem(w);
            for (_, s, found) in wanted.iter_mut() {
                if !*found && s == w {
                    *found = true;
                    missing -= 1;
                }
            }
            if missing == 0 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
    }
    word_lists
        .iter()
        .enumerate()
        .map(|(i, words)| {
            if words.is_empty() {
                return 1.0;
            }
            let hits = wanted
                .iter()
                .filter(|(j, _, found)| *j == i && *found)
                .count();
            hits as f64 / words.len() as f64
        })
        .collect()
}

fn relevance(predicate_words: Vec<String>, haystack: &str) -> f64 {
    relevance_all(&[predicate_words], haystack)[0]
}

// ---------------------------------------------------------------------------
// Task implementations
// ---------------------------------------------------------------------------

/// Fraction of a model's error probability attributable to *record
/// difficulty* shared across models (hard records trip every model),
/// versus model-idiosyncratic noise. Real LLM errors are substantially
/// correlated, which is why majority voting helps less than independence
/// would predict; the cost model mirrors this constant
/// (`pz-core::optimizer::cost::ensemble_quality`).
pub const ERROR_CORRELATION: f64 = 0.35;

impl SimulatedLlm {
    fn answer_filter(&self, model_q: f64, model: &str, predicate: &str, input: &str) -> String {
        // 0.7: with a two-content-word predicate ("colorectal cancer") a
        // hard negative matching only one word (a *breast* cancer paper)
        // scores 0.5 and is rejected; with a three-word conjunctive
        // predicate ("modern homes garden") all three words must appear,
        // giving conjunctions their intended semantics.
        let base = relevance(content_words(predicate), input) >= 0.7;
        // Deterministic quality-dependent flip with correlated errors:
        // a shared "record difficulty" draw trips every model whose shared
        // error budget covers it (weaker models err on a superset of hard
        // records), plus an independent per-model draw.
        let e = 1.0 - model_q;
        let seed = SeedKey::new(self.config.seed);
        let u_shared = hash_unit(&[seed.as_str(), "filter-difficulty", predicate, input]);
        let u_model = hash_unit(&[seed.as_str(), model, "filter", predicate, input]);
        let flipped = u_shared < ERROR_CORRELATION * e || u_model < (1.0 - ERROR_CORRELATION) * e;
        let answer = if flipped { !base } else { base };
        if answer {
            "TRUE".into()
        } else {
            "FALSE".into()
        }
    }

    fn answer_classify(&self, model_q: f64, model: &str, labels: &[String], input: &str) -> String {
        if labels.is_empty() {
            return String::new();
        }
        let label_words: Vec<Vec<String>> = labels.iter().map(|l| content_words(l)).collect();
        let mut best = 0usize;
        let mut best_score = -1.0f64;
        for (i, score) in relevance_all(&label_words, input).into_iter().enumerate() {
            if score > best_score {
                best_score = score;
                best = i;
            }
        }
        let e = 1.0 - model_q;
        let seed = SeedKey::new(self.config.seed);
        let u_shared = hash_unit(&[seed.as_str(), "classify-difficulty", input]);
        let u_model = hash_unit(&[seed.as_str(), model, "classify", input]);
        let wrong = u_shared < ERROR_CORRELATION * e || u_model < (1.0 - ERROR_CORRELATION) * e;
        let pick = if !wrong || labels.len() == 1 {
            best
        } else {
            // Error: deterministic wrong label.
            (best + 1 + (stable_hash(&[input]) as usize % (labels.len() - 1))) % labels.len()
        };
        labels[pick].clone()
    }

    fn answer_extract(
        &self,
        model_q: f64,
        model: &str,
        fields: &[FieldSpec],
        cardinality: Cardinality,
        input: &str,
    ) -> String {
        let pairs = label_value_pairs(input);
        let blocks = group_into_blocks(&pairs);
        let mut objects: Vec<BTreeMap<String, Option<String>>> = Vec::new();
        for block in &blocks {
            let mut obj = BTreeMap::new();
            let mut any = false;
            for f in fields {
                let v = match_field(f, block, input);
                if v.is_some() {
                    any = true;
                }
                obj.insert(f.name.clone(), v);
            }
            if any {
                objects.push(obj);
            }
        }
        if objects.is_empty() && cardinality == Cardinality::OneToOne {
            // OneToOne always yields exactly one object, even if all null.
            let mut obj = BTreeMap::new();
            for f in fields {
                obj.insert(f.name.clone(), match_field(f, &[], input));
            }
            objects.push(obj);
        }
        if cardinality == Cardinality::OneToOne && objects.len() > 1 {
            objects.truncate(1);
        }

        // Quality-dependent degradation: per extracted object, possibly drop
        // it entirely (recall loss); per field, possibly null it out or
        // corrupt the value (precision loss).
        let mut degraded: Vec<BTreeMap<String, Option<String>>> = Vec::new();
        let seed = SeedKey::new(self.config.seed);
        for (i, mut obj) in objects.into_iter().enumerate() {
            let key = format!("{i}:{}", obj_signature(&obj));
            let u_drop = hash_unit(&[seed.as_str(), model, "extract-drop", &key]);
            // Whole-object misses are rarer than field-level mistakes.
            let drop_p = (1.0 - model_q) * 0.5;
            if cardinality == Cardinality::OneToMany && u_drop < drop_p {
                continue;
            }
            for f in fields {
                if let Some(Some(v)) = obj.get(&f.name).cloned() {
                    let u = hash_unit(&[seed.as_str(), model, "extract-field", &f.name, &v]);
                    if u > model_q {
                        let corrupted = if u > model_q + (1.0 - model_q) * 0.5 {
                            None
                        } else {
                            Some(corrupt_value(&v))
                        };
                        obj.insert(f.name.clone(), corrupted);
                    }
                }
            }
            degraded.push(obj);
        }
        protocol::format_extraction_response(&degraded)
    }

    /// Pair judgement for semantic joins: the base decision is lexical —
    /// the two sides share a meaningful fraction of content vocabulary
    /// (Jaccard overlap of stemmed content words ≥ 0.4) — with the same
    /// correlated error injection the filter uses.
    fn answer_match(
        &self,
        model_q: f64,
        model: &str,
        criterion: &str,
        left: &str,
        right: &str,
    ) -> String {
        let lw = stem_set(left);
        let rw = stem_set(right);
        let inter = lw.intersection(&rw).count();
        let smaller = lw.len().min(rw.len()).max(1);
        let base = inter as f64 / smaller as f64 >= 0.4 && inter > 0;
        let e = 1.0 - model_q;
        let seed = SeedKey::new(self.config.seed);
        let u_shared = hash_unit(&[seed.as_str(), "match-difficulty", criterion, left, right]);
        let u_model = hash_unit(&[seed.as_str(), model, "match", criterion, left, right]);
        let flipped = u_shared < ERROR_CORRELATION * e || u_model < (1.0 - ERROR_CORRELATION) * e;
        let answer = if flipped { !base } else { base };
        if answer {
            "TRUE".into()
        } else {
            "FALSE".into()
        }
    }

    fn answer_generate(&self, instruction: &str, input: &str) -> String {
        let words: Vec<&str> = input.split_whitespace().take(40).collect();
        if words.is_empty() {
            format!("[{instruction}] (no input)")
        } else {
            format!("[{instruction}] {}", words.join(" "))
        }
    }
}

/// The distinct stemmed content words of `text`; allocates once per
/// distinct word, not once per occurrence.
fn stem_set(text: &str) -> BTreeSet<String> {
    let mut set = BTreeSet::new();
    for_each_content_word(text, |w| {
        stem(w);
        if !set.contains(w.as_str()) {
            set.insert(w.clone());
        }
        ControlFlow::Continue(())
    });
    set
}

/// A `label: value` pair found in the input text.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Pair {
    label: String,
    value: String,
}

/// Extract `Label: value` pairs line by line. The label must be short (at
/// most four words) so prose containing colons is not misread.
pub(crate) fn label_value_pairs(input: &str) -> Vec<Pair> {
    let mut out = Vec::new();
    for line in input.lines() {
        let line = line.trim();
        if let Some((label, value)) = line.split_once(':') {
            // Skip URLs masquerading as pairs ("https://...").
            if value.starts_with("//") {
                continue;
            }
            let label = label.trim();
            let value = value.trim().trim_end_matches('.');
            if label.is_empty() || value.is_empty() {
                continue;
            }
            if label.split_whitespace().count() <= 4 {
                out.push(Pair {
                    label: label.to_string(),
                    value: value.to_string(),
                });
            }
        }
    }
    out
}

/// Group a flat pair list into record blocks: a block ends when a label seen
/// in the current block repeats. Each label is normalized once.
pub(crate) fn group_into_blocks(pairs: &[Pair]) -> Vec<Vec<Pair>> {
    let mut blocks: Vec<Vec<Pair>> = Vec::new();
    let mut current: Vec<Pair> = Vec::new();
    let mut current_labels: Vec<String> = Vec::new();
    for p in pairs {
        let norm = normalize_label(&p.label);
        if current_labels.contains(&norm) {
            blocks.push(std::mem::take(&mut current));
            current_labels.clear();
        }
        current.push(p.clone());
        current_labels.push(norm);
    }
    if !current.is_empty() {
        blocks.push(current);
    }
    blocks
}

fn normalize_label(l: &str) -> String {
    let words = content_words(l).join(" ");
    if words.is_empty() {
        // Single-character or all-stopword labels still need an identity.
        l.trim().to_ascii_lowercase()
    } else {
        words
    }
}

fn obj_signature(obj: &BTreeMap<String, Option<String>>) -> String {
    obj.values()
        .map(|v| v.as_deref().unwrap_or(""))
        .collect::<Vec<_>>()
        .join("\u{1}")
}

fn wants_url(f: &FieldSpec) -> bool {
    let hay = format!("{} {}", f.name, f.description).to_ascii_lowercase();
    hay.contains("url") || hay.contains("link") || hay.contains("website")
}

fn find_url(text: &str) -> Option<String> {
    // Every match contains "http": without it there is nothing to scan.
    if !text.contains("http") {
        return None;
    }
    for tok in text.split_whitespace() {
        if let Some(start) = tok.find("http://").or_else(|| tok.find("https://")) {
            let url: String = tok[start..]
                .trim_end_matches(['.', ',', ';', ')', ']'])
                .to_string();
            if url.len() > 10 {
                return Some(url);
            }
        }
    }
    None
}

/// Find the value for a requested field inside one record block, falling
/// back to the whole input for URL-like fields.
/// Header-style synonyms the extractor understands: a field named
/// `sender` matches a `From:` header the way a real LLM would.
fn field_synonyms(word: &str) -> &'static [&'static str] {
    match word {
        "sender" => &["from"],
        "recipient" | "receiver" => &["to"],
        "date" => &["sent", "when"],
        "subject" => &["re"],
        "author" => &["by", "from"],
        "title" => &["name"],
        _ => &[],
    }
}

fn match_field(f: &FieldSpec, block: &[Pair], whole_input: &str) -> Option<String> {
    // Words from the field name carry much more weight than words from its
    // description: "url" in the name must beat "dataset" in the description.
    let mut name_stems: Vec<String> = f
        .name
        .split(['_', '-'])
        .map(|w| w.to_ascii_lowercase())
        .filter(|w| w.len() > 1 && !is_stopword(w))
        .map(|mut w| {
            stem(&mut w);
            w
        })
        .collect();
    for w in name_stems.clone() {
        for syn in field_synonyms(&w) {
            name_stems.push((*syn).to_string());
        }
    }
    let desc_stems = content_stems(&f.description);

    let mut best: Option<(&Pair, usize)> = None;
    for p in block {
        let score_word = |w: &String| {
            usize::from(name_stems.contains(w)) * 10 + usize::from(desc_stems.contains(w))
        };
        let mut score = 0usize;
        let mut content = false;
        for_each_content_word(&p.label, |w| {
            stem(w);
            content = true;
            score += score_word(w);
            ControlFlow::Continue(())
        });
        if !content {
            // Labels made entirely of stopwords ("From", "To") still need
            // to be matchable via synonyms: fall back to the raw tokens.
            score = p
                .label
                .split_whitespace()
                .map(|w| score_word(&w.to_ascii_lowercase()))
                .sum();
        }
        if score > 0 {
            match best {
                Some((_, b)) if b >= score => {}
                _ => best = Some((p, score)),
            }
        }
    }
    if let Some((p, _)) = best {
        // URL fields: extract the URL token even if buried in prose.
        if wants_url(f) {
            if let Some(u) = find_url(&p.value) {
                return Some(u);
            }
        }
        return Some(p.value.clone());
    }
    if wants_url(f) {
        // No matching label: scan the block values, then the whole input.
        for p in block {
            if let Some(u) = find_url(&p.value) {
                return Some(u);
            }
        }
        return find_url(whole_input);
    }
    None
}

/// Deterministically mangle a value so quality metrics register the error.
fn corrupt_value(v: &str) -> String {
    if v.starts_with("http") {
        // A wrong-but-plausible URL.
        format!("https://example.org/{:x}", stable_hash(&[v]) & 0xffff)
    } else if v.len() > 4 {
        // Truncate and mark: a classic partial-extraction failure.
        format!("{}…", &v[..v.len() / 2])
    } else {
        format!("{v}?")
    }
}

// ---------------------------------------------------------------------------
// LlmClient implementation
// ---------------------------------------------------------------------------

impl LlmClient for SimulatedLlm {
    fn complete(&self, req: &CompletionRequest) -> Result<CompletionResponse, LlmError> {
        let card = self
            .catalog
            .get(&req.model)
            .ok_or_else(|| LlmError::UnknownModel(req.model.clone()))?
            .clone();
        if card.kind != ModelKind::Chat {
            return Err(LlmError::WrongKind {
                model: req.model.clone(),
                expected: "chat",
            });
        }
        let input_tokens =
            count_tokens(&req.prompt) + req.system.as_deref().map_or(0, count_tokens);
        if input_tokens > card.context_window {
            return Err(LlmError::ContextOverflow {
                model: req.model.clone(),
                tokens: input_tokens,
                window: card.context_window,
            });
        }
        self.check_faults(&req.model)?;
        self.maybe_transient()?;

        let model = card.id.as_str();
        let q = card.quality;
        // High effort models self-critique prompting: the error rate is
        // roughly halved, at about double the token/latency budget (applied
        // below via `effort_multiplier`).
        let boosted = |q: f64, e: Effort| match e {
            Effort::Standard => q,
            Effort::High => q + (1.0 - q) * 0.5,
        };
        let mut effort_multiplier = 1.0f64;
        let mut text = match protocol::parse_prompt(&req.prompt) {
            Some(Task::Filter {
                predicate,
                input,
                effort,
            }) => {
                if effort == Effort::High {
                    effort_multiplier = 2.0;
                }
                self.answer_filter(boosted(q, effort), model, &predicate, &input)
            }
            Some(Task::Extract {
                fields,
                cardinality,
                input,
                effort,
            }) => {
                if effort == Effort::High {
                    effort_multiplier = 2.0;
                }
                self.answer_extract(boosted(q, effort), model, &fields, cardinality, &input)
            }
            Some(Task::Classify {
                labels,
                input,
                effort,
            }) => {
                if effort == Effort::High {
                    effort_multiplier = 2.0;
                }
                self.answer_classify(boosted(q, effort), model, &labels, &input)
            }
            Some(Task::Generate { instruction, input }) => {
                self.answer_generate(&instruction, &input)
            }
            Some(Task::Match {
                criterion,
                left,
                right,
                effort,
            }) => {
                if effort == Effort::High {
                    effort_multiplier = 2.0;
                }
                self.answer_match(boosted(q, effort), model, &criterion, &left, &right)
            }
            None => self.answer_generate("echo", &req.prompt),
        };

        // Enforce the output budget by word-truncation. Every piece but the
        // last ends in whitespace, so the pieces' counts add up exactly to
        // the count of their concatenation.
        if count_output_tokens(&text) > req.max_output_tokens {
            let mut acc = String::new();
            let mut used = 0usize;
            for w in text.split_inclusive(char::is_whitespace) {
                let t = count_output_tokens(w);
                if used + t > req.max_output_tokens {
                    break;
                }
                acc.push_str(w);
                used += t;
            }
            text = acc.trim_end().to_string();
        }

        let output_tokens = count_output_tokens(&text);
        // High effort = a sequential self-critique round-trip: tokens (and
        // dollars) double, and wall latency doubles because the second pass
        // cannot start before the first finishes.
        let billed_input = (input_tokens as f64 * effort_multiplier) as usize;
        let usage = Usage::new(billed_input, output_tokens);
        let cost_usd = card.cost_usd(billed_input, output_tokens);
        let latency_secs = card.latency_secs(input_tokens, output_tokens) * effort_multiplier;
        // Atomic check-and-bill: a call the tenant's budget cannot cover is
        // refused before it "happens" — no ledger entry, no clock advance.
        self.ledger
            .try_charge(&card.id, usage, cost_usd, latency_secs)
            .map_err(|q| LlmError::QuotaExhausted {
                model: card.id.clone(),
                reason: q.reason,
            })?;
        self.clock.advance_secs(latency_secs);
        Ok(CompletionResponse {
            text,
            usage,
            latency_secs,
            cost_usd,
        })
    }

    fn embed(&self, req: &EmbeddingRequest) -> Result<EmbeddingResponse, LlmError> {
        let card = self
            .catalog
            .get(&req.model)
            .ok_or_else(|| LlmError::UnknownModel(req.model.clone()))?
            .clone();
        if card.kind != ModelKind::Embedding {
            return Err(LlmError::WrongKind {
                model: req.model.clone(),
                expected: "embedding",
            });
        }
        self.check_faults(&req.model)?;
        self.maybe_transient()?;
        let input_tokens: usize = req.inputs.iter().map(|s| count_tokens(s)).sum();
        let vectors: Vec<Vec<f32>> = req.inputs.iter().map(|s| self.embedder.embed(s)).collect();
        let usage = Usage::new(input_tokens, 0);
        let cost_usd = card.cost_usd(input_tokens, 0);
        let latency_secs = card.latency_secs(input_tokens, 0);
        self.ledger
            .try_charge(&card.id, usage, cost_usd, latency_secs)
            .map_err(|q| LlmError::QuotaExhausted {
                model: card.id.clone(),
                reason: q.reason,
            })?;
        self.clock.advance_secs(latency_secs);
        Ok(EmbeddingResponse {
            vectors,
            usage,
            latency_secs,
            cost_usd,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{extract_prompt, filter_prompt};

    fn sim() -> SimulatedLlm {
        SimulatedLlm::with_defaults()
    }

    const CANCER_DOC: &str = "Title: Gene mutation profiles in colorectal cancer tumors\n\
        Abstract: We study somatic mutation patterns in colorectal cancer \
        tumor cells using public genomic cohorts.\n\
        Dataset: TCGA-COADREAD\n\
        Description: Colorectal adenocarcinoma multi omics cohort\n\
        URL: https://portal.gdc.cancer.gov/projects/TCGA-COADREAD\n";

    const ASTRO_DOC: &str = "Title: Spectral classification of distant quasars\n\
        Abstract: We analyze emission spectra of quasars observed by a survey telescope.\n";

    /// Majority vote across doc variants: individual answers may flip with
    /// probability 1 - quality (that is the point of the simulator), but the
    /// aggregate decision must track relevance.
    fn majority_filter(s: &SimulatedLlm, predicate: &str, doc: &str) -> bool {
        let mut yes = 0;
        for i in 0..9 {
            let variant = format!("{doc}\nNote {i}.");
            let req = CompletionRequest::new("gpt-4o", filter_prompt(predicate, &variant));
            if s.complete(&req).unwrap().text == "TRUE" {
                yes += 1;
            }
        }
        yes > 4
    }

    #[test]
    fn filter_true_on_relevant_doc() {
        let s = sim();
        assert!(majority_filter(
            &s,
            "The papers are about colorectal cancer",
            CANCER_DOC
        ));
    }

    #[test]
    fn filter_false_on_irrelevant_doc() {
        let s = sim();
        assert!(!majority_filter(
            &s,
            "The papers are about colorectal cancer",
            ASTRO_DOC
        ));
    }

    #[test]
    fn extraction_finds_fields() {
        let s = sim();
        let fields = vec![
            FieldSpec::new("name", "The name of the dataset"),
            FieldSpec::new("description", "A short description of the dataset"),
            FieldSpec::new("url", "The public URL where the dataset can be accessed"),
        ];
        let req = CompletionRequest::new(
            "gpt-4o",
            extract_prompt(&fields, Cardinality::OneToMany, CANCER_DOC),
        );
        let resp = s.complete(&req).unwrap();
        let objs = protocol::parse_extraction_response(&resp.text);
        assert_eq!(objs.len(), 1, "resp: {}", resp.text);
        assert_eq!(objs[0]["name"].as_deref(), Some("TCGA-COADREAD"));
        assert_eq!(
            objs[0]["url"].as_deref(),
            Some("https://portal.gdc.cancer.gov/projects/TCGA-COADREAD")
        );
    }

    #[test]
    fn extraction_one_to_many_groups_blocks() {
        let s = sim();
        let doc = "Dataset: A\nURL: https://a.example.com/data\n\
                   Dataset: B\nURL: https://b.example.com/data\n";
        let fields = vec![
            FieldSpec::new("dataset_name", "The dataset name"),
            FieldSpec::new("url", "The public URL"),
        ];
        let req = CompletionRequest::new(
            "gpt-4o",
            extract_prompt(&fields, Cardinality::OneToMany, doc),
        );
        let objs = protocol::parse_extraction_response(&s.complete(&req).unwrap().text);
        assert_eq!(objs.len(), 2);
        assert_eq!(objs[0]["dataset_name"].as_deref(), Some("A"));
        assert_eq!(
            objs[1]["url"].as_deref(),
            Some("https://b.example.com/data")
        );
    }

    #[test]
    fn one_to_one_always_yields_one_object() {
        let s = sim();
        let fields = vec![FieldSpec::new(
            "nothing_here",
            "A field that does not exist",
        )];
        let req = CompletionRequest::new(
            "gpt-4o",
            extract_prompt(
                &fields,
                Cardinality::OneToOne,
                "plain prose without structure",
            ),
        );
        let objs = protocol::parse_extraction_response(&s.complete(&req).unwrap().text);
        assert_eq!(objs.len(), 1);
        assert_eq!(objs[0]["nothing_here"], None);
    }

    #[test]
    fn deterministic_across_instances() {
        let a = sim();
        let b = sim();
        let req =
            CompletionRequest::new("llama-3-8b", filter_prompt("colorectal cancer", CANCER_DOC));
        assert_eq!(
            a.complete(&req).unwrap().text,
            b.complete(&req).unwrap().text
        );
    }

    #[test]
    fn weaker_model_makes_more_mistakes() {
        // Over many documents, the weak model must disagree with ground
        // truth more often than the strong one.
        let s = sim();
        let mut strong_errors = 0;
        let mut weak_errors = 0;
        for i in 0..200 {
            let relevant = i % 2 == 0;
            let doc = if relevant {
                format!("Doc {i}. Study of colorectal cancer tumor mutation.")
            } else {
                format!("Doc {i}. Galaxy cluster redshift survey telescope.")
            };
            let prompt = filter_prompt("about colorectal cancer", &doc);
            let strong = s
                .complete(&CompletionRequest::new("gpt-4o", prompt.clone()))
                .unwrap()
                .text
                == "TRUE";
            let weak = s
                .complete(&CompletionRequest::new("llama-3-8b", prompt))
                .unwrap()
                .text
                == "TRUE";
            if strong != relevant {
                strong_errors += 1;
            }
            if weak != relevant {
                weak_errors += 1;
            }
        }
        assert!(
            weak_errors > strong_errors,
            "weak {weak_errors} vs strong {strong_errors}"
        );
        // gpt-4o quality 0.96 -> about 8 errors in 200; allow slack.
        assert!(strong_errors < 30);
        // llama-3-8b quality 0.72 -> about 56 errors in 200; require a gap.
        assert!(weak_errors > 30);
    }

    #[test]
    fn match_task_judges_pairs() {
        let s = sim();
        let yes = s
            .complete(&CompletionRequest::new(
                "gpt-4o",
                protocol::match_prompt(
                    "the records refer to the same dataset",
                    "name: TCGA-COADREAD colorectal adenocarcinoma cohort",
                    "dataset: TCGA COADREAD multi omics colorectal cohort",
                    Effort::Standard,
                ),
            ))
            .unwrap();
        assert_eq!(yes.text, "TRUE");
        let no = s
            .complete(&CompletionRequest::new(
                "gpt-4o",
                protocol::match_prompt(
                    "the records refer to the same dataset",
                    "name: TCGA-COADREAD colorectal cohort",
                    "dataset: quasar redshift survey catalogue",
                    Effort::Standard,
                ),
            ))
            .unwrap();
        assert_eq!(no.text, "FALSE");
    }

    #[test]
    fn errors_are_correlated_across_models() {
        // The shared record-difficulty component makes two models' errors
        // co-occur far more often than independence predicts.
        let s = sim();
        let models = ["llama-3-8b", "mixtral-8x7b"]; // e = .28, .22
        let mut errs = [0usize; 2];
        let mut joint = 0usize;
        let n = 400;
        for i in 0..n {
            let relevant = i % 2 == 0;
            let doc = if relevant {
                format!("Doc {i}: colorectal cancer tumor mutation cohort.")
            } else {
                format!("Doc {i}: galaxy redshift survey telescope imaging.")
            };
            let prompt = filter_prompt("about colorectal cancer", &doc);
            let mut wrong = [false; 2];
            for (j, m) in models.iter().enumerate() {
                let ans = s
                    .complete(&CompletionRequest::new(*m, prompt.clone()))
                    .unwrap();
                wrong[j] = (ans.text == "TRUE") != relevant;
            }
            errs[0] += usize::from(wrong[0]);
            errs[1] += usize::from(wrong[1]);
            joint += usize::from(wrong[0] && wrong[1]);
        }
        let p0 = errs[0] as f64 / n as f64;
        let p1 = errs[1] as f64 / n as f64;
        let p_joint = joint as f64 / n as f64;
        // Joint error rate well above the independent product.
        assert!(
            p_joint > 1.5 * p0 * p1,
            "joint {p_joint:.3} vs independent {:.3}",
            p0 * p1
        );
        // And the marginals are in the neighbourhood of 1 - quality.
        assert!((0.15..0.45).contains(&p0), "llama-3-8b error rate {p0}");
        assert!((0.10..0.35).contains(&p1), "mixtral error rate {p1}");
    }

    #[test]
    fn accounting_hits_ledger_and_clock() {
        let s = sim();
        let req = CompletionRequest::new("gpt-4o", filter_prompt("cancer", CANCER_DOC));
        let resp = s.complete(&req).unwrap();
        assert!(resp.cost_usd > 0.0);
        assert!(resp.latency_secs > 0.0);
        assert_eq!(s.ledger().total_requests(), 1);
        assert!((s.clock().now_secs() - resp.latency_secs).abs() < 1e-9);
    }

    #[test]
    fn unknown_model_rejected() {
        let s = sim();
        let err = s
            .complete(&CompletionRequest::new("gpt-99", "hi"))
            .unwrap_err();
        assert_eq!(err, LlmError::UnknownModel("gpt-99".into()));
    }

    #[test]
    fn embedding_model_rejects_completion() {
        let s = sim();
        let err = s
            .complete(&CompletionRequest::new("text-embedding-3-small", "hi"))
            .unwrap_err();
        assert!(matches!(err, LlmError::WrongKind { .. }));
    }

    #[test]
    fn chat_model_rejects_embedding() {
        let s = sim();
        let err = s
            .embed(&EmbeddingRequest {
                model: "gpt-4o".into(),
                inputs: vec!["x".into()],
            })
            .unwrap_err();
        assert!(matches!(err, LlmError::WrongKind { .. }));
    }

    #[test]
    fn context_overflow_detected() {
        let s = sim();
        let huge = "word ".repeat(20_000);
        let err = s
            .complete(&CompletionRequest::new("llama-3-8b", huge))
            .unwrap_err();
        assert!(matches!(err, LlmError::ContextOverflow { .. }));
    }

    #[test]
    fn transient_failures_fire_at_configured_rate() {
        let s = SimulatedLlm::new(
            Catalog::builtin(),
            SimConfig {
                transient_failure_rate: 0.5,
                ..Default::default()
            },
            VirtualClock::new(),
            UsageLedger::new(),
        );
        let mut failures = 0;
        for _ in 0..100 {
            let r = s.complete(&CompletionRequest::new("gpt-4o", "hello"));
            if matches!(r, Err(LlmError::Transient { .. })) {
                failures += 1;
            }
        }
        assert!((30..=70).contains(&failures), "failures {failures}");
    }

    #[test]
    fn scripted_outage_fails_without_billing() {
        let s = SimulatedLlm::new(
            Catalog::builtin(),
            SimConfig {
                fault_plan: FaultPlan::default().outage("gpt-4o", 0.0, 100.0),
                ..Default::default()
            },
            VirtualClock::new(),
            UsageLedger::new(),
        );
        let req = CompletionRequest::new("gpt-4o", filter_prompt("cancer", CANCER_DOC));
        let err = s.complete(&req).unwrap_err();
        assert!(matches!(err, LlmError::Transient { .. }));
        // Failed calls bill nothing and burn no time.
        assert_eq!(s.ledger().total_requests(), 0);
        assert!(s.clock().now_secs().abs() < 1e-9);
        // Other models are unaffected, and once past the window the model
        // recovers.
        s.complete(&CompletionRequest::new(
            "gpt-4o-mini",
            filter_prompt("cancer", CANCER_DOC),
        ))
        .unwrap();
        s.clock().advance_secs(200.0);
        s.complete(&req).unwrap();
    }

    /// Satellite regression for the billing-order audit in
    /// [`crate::client::RetryPolicy::embed_with`]: an embedding attempt that
    /// fails inside a fault window must bill the ledger nothing, including
    /// when driven through the full retry path.
    #[test]
    fn embed_billing_skipped_when_fault_fails_the_call() {
        let clock = VirtualClock::new();
        let s = SimulatedLlm::new(
            Catalog::builtin(),
            SimConfig {
                fault_plan: FaultPlan::default().outage("text-embedding-3-small", 0.0, 1e9),
                ..Default::default()
            },
            clock.clone(),
            UsageLedger::new(),
        );
        let req = EmbeddingRequest {
            model: "text-embedding-3-small".into(),
            inputs: vec!["some document".into()],
        };
        let rc = crate::client::RetryContext::new(&clock);
        let err = crate::client::RetryPolicy::default()
            .embed_with(&s, &req, &rc)
            .unwrap_err();
        assert!(err.is_retryable());
        // Every attempt failed: no requests, no tokens, no dollars.
        assert_eq!(s.ledger().total_requests(), 0);
        assert_eq!(s.ledger().total_usage().total_tokens(), 0);
        assert!(s.ledger().total_cost_usd().abs() < 1e-12);
    }

    /// Companion regression: once the breaker for the embedding model is
    /// open, the retry layer refuses locally — the client is never reached
    /// and the ledger stays untouched.
    #[test]
    fn embed_billing_skipped_when_breaker_refuses_the_call() {
        use crate::breaker::HealthTracker;
        let clock = VirtualClock::new();
        let s = SimulatedLlm::new(
            Catalog::builtin(),
            SimConfig {
                fault_plan: FaultPlan::default().outage("text-embedding-3-small", 0.0, 1e9),
                ..Default::default()
            },
            clock.clone(),
            UsageLedger::new(),
        );
        let health = HealthTracker::default();
        let req = EmbeddingRequest {
            model: "text-embedding-3-small".into(),
            inputs: vec!["some document".into()],
        };
        let rc = crate::client::RetryContext::new(&clock).with_health(&health);
        let policy = crate::client::RetryPolicy::default();
        // Exhausting retries trips the breaker…
        policy.embed_with(&s, &req, &rc).unwrap_err();
        // …so the next call is refused before the provider, billing nothing
        // and burning no time (a provider attempt would back off on the
        // clock; a local refusal must not).
        let requests_before = s.ledger().total_requests();
        let now_before = clock.now_secs();
        let err = policy.embed_with(&s, &req, &rc).unwrap_err();
        assert!(matches!(err, LlmError::CircuitOpen { .. }));
        assert_eq!(s.ledger().total_requests(), requests_before);
        assert!((clock.now_secs() - now_before).abs() < 1e-9);
        assert!(s.ledger().total_cost_usd().abs() < 1e-12);
    }

    /// Quota enforcement happens at the billing point: a call the tenant's
    /// budget cannot cover is refused with a structured error, bills
    /// nothing, and consumes no virtual time. Not a provider fault: the
    /// failover machinery must not route around a spent budget by swapping
    /// models (the ledger — and so the refusal — is tenant-wide).
    #[test]
    fn quota_refusal_bills_nothing_and_burns_no_time() {
        use crate::usage::Quota;
        let clock = VirtualClock::new();
        let ledger = UsageLedger::new();
        let s = SimulatedLlm::new(
            Catalog::builtin(),
            SimConfig::default(),
            clock.clone(),
            ledger.clone(),
        );
        let req = CompletionRequest::new("gpt-4o", filter_prompt("cancer", "a cancer study"));
        let first = s.complete(&req).unwrap();
        assert!(first.cost_usd > 0.0);
        // Cap the budget exactly at what was spent: the next call must not fit.
        ledger.set_quota(Quota::cost_limit(ledger.total_cost_usd()));
        let (requests, now) = (ledger.total_requests(), clock.now_secs());
        let err = s.complete(&req).unwrap_err();
        assert!(matches!(err, LlmError::QuotaExhausted { .. }), "{err}");
        assert!(!err.is_retryable());
        assert!(!err.is_provider_fault());
        assert_eq!(ledger.total_requests(), requests);
        assert!((clock.now_secs() - now).abs() < 1e-9);
        // Embeddings enforce the same budget.
        let err = s
            .embed(&EmbeddingRequest {
                model: "text-embedding-3-small".into(),
                inputs: vec!["doc".into()],
            })
            .unwrap_err();
        assert!(matches!(err, LlmError::QuotaExhausted { .. }), "{err}");
    }

    #[test]
    fn scripted_timeout_burns_time_but_no_tokens() {
        let s = SimulatedLlm::new(
            Catalog::builtin(),
            SimConfig {
                fault_plan: FaultPlan::parse("gpt-4o:timeout@0..10:stall=8", 1).unwrap(),
                ..Default::default()
            },
            VirtualClock::new(),
            UsageLedger::new(),
        );
        let err = s
            .complete(&CompletionRequest::new("gpt-4o", "hello"))
            .unwrap_err();
        assert!(matches!(err, LlmError::Timeout { .. }));
        assert!((s.clock().now_secs() - 8.0).abs() < 1e-9);
        assert_eq!(s.ledger().total_requests(), 0);
    }

    #[test]
    fn injector_handle_swaps_plan_live() {
        let s = sim();
        let req = CompletionRequest::new("gpt-4o", "hello");
        s.complete(&req).unwrap();
        s.faults()
            .set(FaultPlan::default().outage("gpt-4o", 0.0, 1e12));
        assert!(s.complete(&req).is_err());
        s.faults().clear();
        s.complete(&req).unwrap();
    }

    #[test]
    fn embeddings_returned_per_input() {
        let s = sim();
        let resp = s
            .embed(&EmbeddingRequest {
                model: "text-embedding-3-small".into(),
                inputs: vec!["colorectal cancer".into(), "real estate".into()],
            })
            .unwrap();
        assert_eq!(resp.vectors.len(), 2);
        assert_eq!(resp.vectors[0].len(), 64);
        assert!(resp.cost_usd > 0.0);
    }

    #[test]
    fn max_output_tokens_truncates() {
        let s = sim();
        let long_input = "alpha beta gamma delta ".repeat(50);
        let req = CompletionRequest::new(
            "gpt-4o",
            protocol::generate_prompt("summarize", &long_input),
        )
        .with_max_output_tokens(5);
        let resp = s.complete(&req).unwrap();
        assert!(resp.usage.output_tokens <= 5, "{}", resp.text);
    }

    #[test]
    fn free_form_prompt_echoes() {
        let s = sim();
        let resp = s
            .complete(&CompletionRequest::new("gpt-4o", "What is Palimpzest?"))
            .unwrap();
        assert!(resp.text.contains("Palimpzest"));
    }

    #[test]
    fn pair_parsing_skips_urls_and_prose() {
        let pairs = label_value_pairs(
            "Name: X\nhttps://foo.bar/baz\nThis sentence mentions time 12:30 in prose but the label is way too long to count: nope\nB: y\n",
        );
        let labels: Vec<&str> = pairs.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(labels, vec!["Name", "B"]);
    }

    #[test]
    fn block_grouping_on_repeated_label() {
        let pairs = label_value_pairs("A: 1\nB: 2\nA: 3\nB: 4\n");
        let blocks = group_into_blocks(&pairs);
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].len(), 2);
        assert_eq!(blocks[1].len(), 2);
    }

    #[test]
    fn seed_key_renders_the_seed_in_decimal() {
        for seed in [0, 7, 10, 42, 1_000_003, u64::MAX] {
            assert_eq!(SeedKey::new(seed).as_str(), seed.to_string());
        }
    }

    #[test]
    fn stopword_lookup_agrees_with_the_list() {
        let mut probes: Vec<String> = vec![
            String::new(),
            "x".into(),
            "thé".into(),
            "interestedness".into(),
            "fifteen-bytes-x".into(),
            "sixteen-bytes-xx".into(),
        ];
        for w in STOPWORDS {
            probes.push(w.to_string());
            probes.push(format!("{w}s"));
            probes.push(format!("{w}\0"));
            probes.push(format!("\0{w}"));
            probes.push(w[..w.len() - 1].to_string());
            probes.push(w.to_ascii_uppercase());
        }
        for p in &probes {
            assert_eq!(
                is_stopword(p),
                STOPWORDS.contains(&p.as_str()),
                "disagree on {p:?}"
            );
        }
        assert!(STOPWORDS.iter().all(|w| is_stopword(w)));
    }

    #[test]
    fn relevance_counts_duplicate_predicate_words() {
        let words = content_words("mutations mutation cancer");
        assert_eq!(words, ["mutations", "mutation", "cancer"]);
        // Both spellings stem to "mutation": one haystack word satisfies
        // both, and the scan still reads on to look for "cancer".
        assert_eq!(relevance(words.clone(), "a mutation then cancer"), 1.0);
        assert_eq!(relevance(words.clone(), "one mutation only"), 2.0 / 3.0);
        assert_eq!(relevance(words, "no match at all"), 0.0);
    }

    #[test]
    fn relevance_ignores_haystack_stopwords_equal_to_a_predicate_stem() {
        // "wills" is a content word stemming to "will", which is itself a
        // stopword: the haystack's "will" is dropped before stemming and
        // must not count, while its "wills" must.
        let words = content_words("wills");
        assert_eq!(words, ["wills"]);
        assert_eq!(relevance(words.clone(), "the will was read"), 0.0);
        assert_eq!(relevance(words, "two wills were read"), 1.0);
    }

    #[test]
    fn classify_effort_comes_from_the_header_not_the_document() {
        let s = sim();
        let labels = vec!["colorectal cancer".to_string(), "astronomy".to_string()];
        // A standard-effort prompt whose document happens to hold the
        // effort line is billed once.
        let doc = "Title: A cancer study\n#EFFORT high\nBody text.";
        let prompt = protocol::classify_prompt(&labels, doc);
        let resp = s
            .complete(&CompletionRequest::new("gpt-4o", prompt.clone()))
            .unwrap();
        assert_eq!(resp.usage.input_tokens, count_tokens(&prompt));
        // The real header still doubles the bill.
        let prompt = protocol::classify_prompt_with_effort(&labels, doc, Effort::High);
        let resp = s
            .complete(&CompletionRequest::new("gpt-4o", prompt.clone()))
            .unwrap();
        assert_eq!(resp.usage.input_tokens, 2 * count_tokens(&prompt));
    }

    #[test]
    fn corrupt_value_changes_value() {
        for v in ["https://portal.gdc.cancer.gov/x", "TCGA-COADREAD", "ab"] {
            assert_ne!(corrupt_value(v), v);
        }
    }
}
