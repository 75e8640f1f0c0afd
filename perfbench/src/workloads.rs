//! The four workloads: how each is set up, driven and scored.
//!
//! Every corpus comes from `pz_datagen::stream` under the benchmark seed.
//! A fixture is built fresh for every pass (new context or host, so record
//! ids, ledgers, caches and tracers start empty) and consumed by one run.
//! With `layers` set, the fixture is the traced twin: the same stack
//! rebuilt from public constructors with [`crate::layers`] decorators
//! between the layers. The pass outputs of both twins must agree exactly.

use crate::layers::{Layers, Stage, TimedClient, TimedGate, TimedSource};
use pz_core::datasource::DataSource;
use pz_core::prelude::*;
use pz_datagen::stream::{doc_at, truth_at, StreamConfig};
use pz_datagen::truth::{score_dataset_extractions, DatasetMention, PrF1};
use pz_llm::{SimConfig, SimulatedLlm, TracedClient, UsageLedger, VirtualClock};
use pz_serve::{AdmissionConfig, ScheduledClient, ServeConfig, ServeHost, SessionJob, TenantSpec};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub const WORKLOADS: [&str; 4] = ["scan-sparse", "filter-chain", "convert-heavy", "serve-mix"];

const SCAN_DOCS: usize = 50_000;
/// `scan-sparse` keeps every document whose index is a multiple of this.
const SCAN_KEEP_EVERY: usize = 10_000;
const FILTER_DOCS: usize = 1_500;
const CONVERT_DOCS: usize = 2_000;
/// Scan chunk of the chunked materializing drive (the E21 shape).
const CHUNK: usize = 4096;
const DATASET: &str = "corpus";

const TENANTS: usize = 8;
const SESSIONS: usize = 256;
const WINDOW: usize = 60;
/// One session in this many reads a window no session read before; the
/// others re-read one of their client's earlier windows, all cache hits.
/// With three quarters of sessions cached, the median session is a cached
/// one (fixed per-session cost) and the 90th percentile an uncached one,
/// each well inside its mode whatever the seed.
const FRESH_EVERY: usize = 4;

const CRC_FILTER: &str = pz_datagen::science::FILTER_PREDICATE;
const DATA_FILTER: &str = "The paper mentions a public dataset";

/// What one pass produced: everything that must repeat exactly, plus the
/// timings and gauges that may not.
#[derive(Default)]
pub struct Pass {
    pub check: Check,
    /// Per-session wall latency in ms (`serve-mix` only).
    pub session_ms: Vec<f64>,
    pub peak_resident_records: usize,
    pub selectivity: f64,
    pub admission_max_queue_depth: usize,
    pub scheduler_queued: u64,
    pub scheduler_max_waiters: usize,
}

/// The deterministic part of a pass, compared field by field across passes
/// and between the traced and untraced twins.
#[derive(Clone, Debug, Default)]
pub struct Check {
    /// Modelled seconds and dollars. Compared to [`FLOAT_TOLERANCE`]: a
    /// streaming worker pool adds them up in an order that varies run to
    /// run, which moves the last bits. Every other field must match exactly.
    pub virtual_s: f64,
    pub cost_usd: f64,
    /// Order-independent digest of the output records (ids excluded).
    pub digest: u64,
    pub outputs: usize,
    pub true_positives: usize,
    pub predicted: usize,
    pub expected: usize,
    pub attempted: u64,
    pub failed: u64,
    pub ledger_requests: usize,
    pub ledger_input_tokens: usize,
    pub ledger_output_tokens: usize,
    pub cache_hits: usize,
    pub cache_misses: usize,
    pub udf_calls: usize,
    pub source_records: usize,
    pub spans: usize,
    pub plans_considered: usize,
    pub admitted: u64,
    pub shed: u64,
    pub granted: u64,
}

/// `(name, value)` for each listed field of a [`Check`].
macro_rules! exact_fields {
    ($c:expr; $($f:ident),* $(,)?) => {
        [$((stringify!($f), $c.$f.to_string())),*]
    };
}

/// Relative tolerance on the modelled totals: far below one call's share
/// of any workload's total, far above rounding in a 30k-term sum.
pub const FLOAT_TOLERANCE: f64 = 1e-10;

impl Check {
    pub fn quality(&self) -> PrF1 {
        PrF1::from_counts(self.true_positives, self.predicted, self.expected)
    }

    /// The fields that differ from `other`, as `name: ours vs theirs`.
    pub fn diff(&self, other: &Check) -> Vec<String> {
        let mut out = Vec::new();
        for (name, a, b) in [
            ("virtual_s", self.virtual_s, other.virtual_s),
            ("cost_usd", self.cost_usd, other.cost_usd),
        ] {
            if (a - b).abs() > FLOAT_TOLERANCE * a.abs().max(b.abs()) {
                out.push(format!("{name}: {a:?} vs {b:?}"));
            }
        }
        let exact = |c: &Check| {
            exact_fields!(c; digest, outputs, true_positives, predicted, expected, attempted,
                failed, ledger_requests, ledger_input_tokens, ledger_output_tokens, cache_hits,
                cache_misses, udf_calls, source_records, spans, plans_considered, admitted,
                shed, granted)
        };
        out.extend(
            exact(self)
                .into_iter()
                .zip(exact(other))
                .filter(|(x, y)| x.1 != y.1)
                .map(|(x, y)| format!("{}: {} vs {}", x.0, x.1, y.1)),
        );
        out
    }
}

/// Ground truth the scorers need, computed once per process.
pub struct Truth {
    /// `filter-chain`: relevant documents with a non-empty mention list.
    relevant_with_data: BTreeSet<usize>,
    /// `convert-heavy`: planted mentions per document.
    mentions: Vec<Vec<DatasetMention>>,
    /// `serve-mix`: relevance of every document.
    relevant: Vec<bool>,
}

impl Truth {
    pub fn new(workload: &str, seed: u64) -> Self {
        let cfg = StreamConfig::sized(corpus_len(workload), seed);
        // `scan-sparse` is scored by index alone.
        let n = if workload == "scan-sparse" {
            0
        } else {
            cfg.n_docs
        };
        let truths: Vec<_> = (0..n).map(|i| truth_at(&cfg, i)).collect();
        Self {
            relevant_with_data: truths
                .iter()
                .enumerate()
                .filter(|(_, t)| t.relevant && !t.mentions.is_empty())
                .map(|(i, _)| i)
                .collect(),
            relevant: truths.iter().map(|t| t.relevant).collect(),
            mentions: if workload == "convert-heavy" {
                truths.into_iter().map(|t| t.mentions).collect()
            } else {
                Vec::new()
            },
        }
    }
}

fn corpus_len(workload: &str) -> usize {
    match workload {
        "scan-sparse" => SCAN_DOCS,
        "filter-chain" => FILTER_DOCS,
        "convert-heavy" => CONVERT_DOCS,
        // Each client with sessions opens at most one fresh window more
        // than its share, and only clients holding a tenant have sessions.
        _ => (SESSIONS / FRESH_EVERY + TENANTS) * WINDOW,
    }
}

/// One pass's inputs, built by [`setup`] and consumed by [`Fixture::run`].
pub enum Fixture {
    Batch(Box<Batch>),
    Serve(Box<Serve>),
}

impl Fixture {
    /// Drive the workload. Only this call is inside the timed region.
    pub fn run(self) -> Ran {
        match self {
            Fixture::Batch(b) => {
                let outcome = b.execute();
                Ran::Batch(b, outcome)
            }
            Fixture::Serve(s) => {
                let done = s.execute();
                Ran::Serve(s, done)
            }
        }
    }
}

/// A finished pass, not yet checked.
pub enum Ran {
    Batch(Box<Batch>, PzResult<Outcome>),
    Serve(Box<Serve>, Vec<Done>),
}

impl Ran {
    /// Score the outputs against ground truth and collect the pass's
    /// deterministic fingerprint.
    pub fn score(self, truth: &Truth) -> Result<Pass, String> {
        match self {
            Ran::Batch(b, outcome) => b.score(outcome, truth),
            Ran::Serve(s, done) => s.score(done, truth),
        }
    }
}

/// Build a fresh fixture for `workload`. `layers` selects the traced twin.
pub fn setup(workload: &str, seed: u64, clients: usize, layers: Option<&Arc<Layers>>) -> Fixture {
    let cfg = StreamConfig::sized(corpus_len(workload), seed);
    match workload {
        "serve-mix" => Fixture::Serve(Box::new(Serve::new(cfg, seed, clients, layers))),
        _ => Fixture::Batch(Box::new(Batch::new(workload, cfg, layers))),
    }
}

/// A source over documents `offset..offset + len` of the streamed corpus;
/// with `layers`, datagen and record production are timed.
fn corpus_source(
    name: &str,
    cfg: StreamConfig,
    offset: usize,
    len: usize,
    layers: Option<&Arc<Layers>>,
) -> Arc<dyn DataSource> {
    match layers {
        None => Arc::new(GeneratedSource::new(
            name,
            Schema::text_file(),
            len,
            move |i| {
                let d = doc_at(&cfg, offset + i);
                (d.filename, d.content)
            },
        )),
        Some(l) => {
            let meters = Arc::clone(l);
            let generated = GeneratedSource::new(name, Schema::text_file(), len, move |i| {
                meters.datagen.time(|| {
                    let d = doc_at(&cfg, offset + i);
                    meters
                        .datagen_bytes
                        .fetch_add(d.content.len() as u64, Ordering::Relaxed);
                    (d.filename, d.content)
                })
            });
            Arc::new(TimedSource::new(generated, l))
        }
    }
}

/// The client stack of `PzContext::simulated_shared` (sim → TracedClient),
/// rebuilt from public constructors with timing decorators between layers.
fn traced_batch_context(layers: &Arc<Layers>) -> PzContext {
    let clock = VirtualClock::new();
    let ledger = UsageLedger::new();
    let base = PzContext::simulated_shared(SimConfig::default(), clock.clone(), ledger.clone());
    let sim = SimulatedLlm::new(base.catalog.clone(), SimConfig::default(), clock, ledger);
    let sim = TimedClient::wrap(Arc::new(sim), layers, Stage::Sim);
    let traced = Arc::new(TracedClient::new(sim, base.tracer.clone()));
    let traced = TimedClient::wrap(traced, layers, Stage::Tracer);
    let top = TimedClient::wrap(traced, layers, Stage::Llm);
    base.with_client(top)
}

/// What the scorers need from one plan run.
pub struct Outcome {
    records: Vec<DataRecord>,
    stats: ExecutionStats,
    plans_considered: usize,
}

/// Optimize `plan` under `policy` and run the chosen plan: plain, through
/// `pz_core::execute`; traced, by the same two steps as
/// `pz_core::execute_with_optimizer`, so the optimizer is timed apart.
fn run_logical(
    ctx: &PzContext,
    plan: &LogicalPlan,
    policy: &Policy,
    config: ExecutionConfig,
    layers: Option<&Arc<Layers>>,
) -> PzResult<Outcome> {
    let Some(layers) = layers else {
        let out = pz_core::execute(ctx, plan, policy, config)?;
        return Ok(Outcome {
            records: out.records,
            stats: out.stats,
            plans_considered: out.report.plans_considered,
        });
    };
    let mut optimizer = Optimizer::default();
    if matches!(config.mode, ExecMode::Streaming { .. }) {
        optimizer.pipelined_time = true;
        optimizer.parallel_workers = config.parallelism.max_workers();
    }
    let (chosen, _, report) = layers
        .optimizer
        .time(|| optimizer.optimize(ctx, plan, policy))?;
    let mut config = config;
    config.rank = FailoverRank::from(policy);
    let (records, stats) = pz_core::exec::execute_plan(ctx, &chosen, config)?;
    Ok(Outcome {
        records,
        stats,
        plans_considered: report.plans_considered,
    })
}

/// FNV-1a over a record's fields (ids and lineage excluded).
fn record_hash(r: &DataRecord) -> u64 {
    let mut h = Fnv::default();
    for (k, v) in &r.fields {
        h.write(k.as_bytes());
        match v {
            Value::Null => h.write(b"\0n"),
            Value::Bool(b) => h.write(if *b { b"\0t" } else { b"\0f" }),
            Value::Int(i) => {
                h.write(b"\0i");
                h.write(&i.to_le_bytes());
            }
            Value::Float(f) => {
                h.write(b"\0d");
                h.write(&f.to_bits().to_le_bytes());
            }
            Value::Text(s) => {
                h.write(b"\0s");
                h.write(s.as_bytes());
            }
            Value::TextList(l) => {
                h.write(b"\0l");
                for s in l {
                    h.write(s.as_bytes());
                    h.write(b"\0");
                }
            }
        }
    }
    h.0
}

/// Digest of a multiset of records: order-independent.
fn multiset_digest<'a>(records: impl Iterator<Item = &'a DataRecord>) -> u64 {
    let mut hashes: Vec<u64> = records.map(record_hash).collect();
    hashes.sort_unstable();
    let mut h = Fnv::default();
    for x in hashes {
        h.write(&x.to_le_bytes());
    }
    h.0
}

struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Corpus index of a record, from the `doc-NNNNNNN.txt` filename every
/// streamed document carries through filters and conversions.
fn doc_index(r: &DataRecord) -> Option<usize> {
    r.get("filename")?
        .as_text()?
        .strip_prefix("doc-")?
        .strip_suffix(".txt")?
        .parse()
        .ok()
}

fn text_field(r: &DataRecord, name: &str) -> Option<String> {
    r.get(name)
        .and_then(|v| v.as_text())
        .filter(|s| !s.is_empty())
        .map(String::from)
}

/// Sum of per-operator inputs of the UDF filters: calls into the UDF.
fn udf_calls(stats: &ExecutionStats) -> usize {
    stats
        .operators
        .iter()
        .filter(|o| o.physical.starts_with("UDF"))
        .map(|o| o.input_records)
        .sum()
}

/// Score a set of selected documents against the expected set.
fn score_selection(
    selected: &[usize],
    expected: impl Fn(usize) -> bool,
    n_expected: usize,
) -> (usize, usize, usize) {
    let selected: BTreeSet<usize> = selected.iter().copied().collect();
    let tp = selected.iter().filter(|&&i| expected(i)).count();
    (tp, selected.len(), n_expected)
}

/// A batch plan: logical plans go through the optimizer; `scan-sparse`
/// has no model to choose, so it runs its physical plan directly (E21).
enum Plan {
    Logical(LogicalPlan),
    Physical(PhysicalPlan),
}

pub struct Batch {
    workload: String,
    ctx: PzContext,
    plan: Plan,
    config: ExecutionConfig,
    n: usize,
    layers: Option<Arc<Layers>>,
}

impl Batch {
    fn new(workload: &str, cfg: StreamConfig, layers: Option<&Arc<Layers>>) -> Self {
        let ctx = match layers {
            None => PzContext::simulated(),
            Some(l) => traced_batch_context(l),
        };
        let n = cfg.n_docs;
        ctx.registry
            .register(corpus_source(DATASET, cfg, 0, n, layers));
        let source = Dataset::source(DATASET);
        let logical = |d: Dataset| Plan::Logical(d.build().expect("static plan is valid"));
        let (plan, config) = match workload {
            "scan-sparse" => {
                let keep = |r: &DataRecord| doc_index(r).is_some_and(|i| i % SCAN_KEEP_EVERY == 0);
                match layers {
                    None => ctx.udfs.register_filter("sparse", keep),
                    Some(l) => {
                        let meters = Arc::clone(l);
                        ctx.udfs
                            .register_filter("sparse", move |r| meters.udf.time(|| keep(r)))
                    }
                }
                let plan = PhysicalPlan {
                    ops: vec![
                        PhysicalOp::Scan {
                            dataset: DATASET.into(),
                        },
                        PhysicalOp::UdfFilter {
                            udf: "sparse".into(),
                        },
                    ],
                };
                (
                    Plan::Physical(plan),
                    ExecutionConfig::sequential().with_scan_chunk_size(CHUNK),
                )
            }
            "filter-chain" => (
                logical(source.filter(CRC_FILTER).filter(DATA_FILTER)),
                ExecutionConfig::streaming().with_parallelism_config(ParallelismConfig::fixed(2)),
            ),
            "convert-heavy" => (
                logical(source.convert(
                    clinical_schema(),
                    Cardinality::OneToOne,
                    "extract clinical datasets",
                )),
                ExecutionConfig::sequential().with_scan_chunk_size(CHUNK),
            ),
            other => unreachable!("unknown batch workload {other}"),
        };
        Self {
            workload: workload.to_string(),
            ctx,
            plan,
            config,
            n,
            layers: layers.cloned(),
        }
    }

    fn execute(&self) -> PzResult<Outcome> {
        let layers = self.layers.as_ref();
        match &self.plan {
            Plan::Logical(plan) => {
                run_logical(&self.ctx, plan, &Policy::MaxQuality, self.config, layers)
            }
            Plan::Physical(plan) => {
                let (records, stats) = pz_core::exec::execute_plan(&self.ctx, plan, self.config)?;
                Ok(Outcome {
                    records,
                    stats,
                    plans_considered: 0,
                })
            }
        }
    }

    fn score(&self, outcome: PzResult<Outcome>, truth: &Truth) -> Result<Pass, String> {
        let outcome = outcome.map_err(|e| format!("{}: {e}", self.workload))?;
        let records = &outcome.records;
        let (tp, predicted, expected) = match self.workload.as_str() {
            "scan-sparse" => {
                let want = self.n / SCAN_KEEP_EVERY;
                if records.len() != want {
                    return Err(format!(
                        "scan-sparse returned {} records, expected {want}",
                        records.len()
                    ));
                }
                score_selection(&doc_indices(records)?, |i| i % SCAN_KEEP_EVERY == 0, want)
            }
            "filter-chain" => score_selection(
                &doc_indices(records)?,
                |i| truth.relevant_with_data.contains(&i),
                truth.relevant_with_data.len(),
            ),
            _ => score_extractions(records, truth)?,
        };
        let ledger = &self.ctx.ledger;
        let usage = ledger.total_usage();
        let stats = &outcome.stats;
        if (stats.total_cost_usd - ledger.total_cost_usd()).abs()
            > FLOAT_TOLERANCE * ledger.total_cost_usd()
        {
            return Err(format!(
                "{}: operators billed ${} but the ledger holds ${}",
                self.workload,
                stats.total_cost_usd,
                ledger.total_cost_usd()
            ));
        }
        let inputs = stats.operators.first().map_or(0, |o| o.output_records);
        Ok(Pass {
            check: Check {
                digest: multiset_digest(records.iter()),
                outputs: records.len(),
                virtual_s: stats.total_time_secs,
                cost_usd: ledger.total_cost_usd(),
                true_positives: tp,
                predicted,
                expected,
                attempted: self.n as u64,
                failed: 0,
                ledger_requests: ledger.total_requests(),
                ledger_input_tokens: usage.input_tokens,
                ledger_output_tokens: usage.output_tokens,
                cache_hits: ledger.total_cache_hits(),
                cache_misses: ledger.total_cache_misses(),
                udf_calls: udf_calls(stats),
                source_records: inputs,
                spans: self.ctx.tracer.span_count(),
                plans_considered: outcome.plans_considered,
                ..Check::default()
            },
            peak_resident_records: stats.peak_resident_records,
            selectivity: if inputs == 0 {
                0.0
            } else {
                records.len() as f64 / inputs as f64
            },
            ..Pass::default()
        })
    }
}

fn doc_indices(records: &[DataRecord]) -> Result<Vec<usize>, String> {
    records
        .iter()
        .map(|r| {
            doc_index(r).ok_or_else(|| format!("output record {} has no source filename", r.id))
        })
        .collect()
}

/// `convert-heavy` quality: each document's non-empty extractions scored
/// against the mentions planted in it, micro-averaged over the corpus.
/// Converted records keep only the target fields, so the document is found
/// by position: a one-to-one convert emits one record per input, in input
/// order, which the lineage roots must confirm.
fn score_extractions(
    records: &[DataRecord],
    truth: &Truth,
) -> Result<(usize, usize, usize), String> {
    if records.len() != truth.mentions.len() {
        return Err(format!(
            "convert-heavy returned {} records for {} documents",
            records.len(),
            truth.mentions.len()
        ));
    }
    let root = |r: &DataRecord| r.lineage.first().copied();
    let first = records.first().and_then(root);
    let (mut tp, mut predicted, mut expected) = (0, 0, 0);
    for (i, (r, mentions)) in records.iter().zip(&truth.mentions).enumerate() {
        if root(r) != first.map(|f| f + i as u64) {
            return Err(format!(
                "convert output {i} does not derive from document {i}"
            ));
        }
        let extraction = (text_field(r, "name"), text_field(r, "url"));
        let preds: Vec<_> = if extraction == (None, None) {
            Vec::new()
        } else {
            vec![extraction]
        };
        let s = score_dataset_extractions(&preds, mentions);
        tp += s.true_positives;
        predicted += s.predicted;
        expected += s.expected;
    }
    Ok((tp, predicted, expected))
}

/// The ClinicalData schema of the paper's Figure 6.
fn clinical_schema() -> Schema {
    Schema::new(
        "ClinicalData",
        "A schema for extracting clinical data datasets from papers.",
        vec![
            FieldDef::text("name", "The name of the clinical data dataset"),
            FieldDef::text(
                "description",
                "A short description of the content of the dataset",
            ),
            FieldDef::text("url", "The public URL where the dataset can be accessed"),
        ],
    )
    .expect("static schema is valid")
}

/// A finished session: id, window start, wall latency (ms), result.
pub type Done = (String, usize, f64, PzResult<Outcome>);

/// One client's session: tenant, window start, job.
struct Session {
    tenant: String,
    start: usize,
    job: SessionJob,
}

pub struct Serve {
    host: ServeHost,
    /// Traced twin: per-tenant contexts over the rebuilt client stacks.
    traced: Option<(Arc<Layers>, BTreeMap<String, PzContext>)>,
    /// Sessions per closed-loop client, in submission order.
    clients: Vec<Vec<Session>>,
    tenants: Vec<String>,
}

impl Serve {
    fn new(cfg: StreamConfig, seed: u64, clients: usize, layers: Option<&Arc<Layers>>) -> Self {
        let mut host = ServeHost::new(ServeConfig {
            // Room for every client at once: nothing queues or sheds.
            admission: AdmissionConfig {
                max_concurrent_runs: clients.max(1),
                max_queued: clients.max(1),
                ..AdmissionConfig::default()
            },
            shared_cache: true,
        });
        let tenants: Vec<String> = (0..TENANTS).map(|t| format!("tenant-{t}")).collect();
        for (t, id) in tenants.iter().enumerate() {
            let weight = if t % 2 == 0 { 4.0 } else { 1.0 };
            host.add_tenant(TenantSpec::new(id.clone()).with_weight(weight));
        }
        // Session k belongs to tenant k % TENANTS; tenant t to client
        // t % clients. Fresh windows never overlap and a client re-reads
        // only its own, so prompts repeat only among one client's sessions
        // and cache hits, bills and outputs do not depend on interleaving.
        let mut per_client: Vec<Vec<Session>> = (0..clients).map(|_| Vec::new()).collect();
        let mut fresh: Vec<Vec<usize>> = vec![Vec::new(); clients];
        let mut next_fresh = 0;
        let mut registered: BTreeSet<(usize, usize)> = BTreeSet::new();
        let mut rng = seed ^ 0x5e55_1035;
        for k in 0..SESSIONS {
            let t = k % TENANTS;
            let c = t % clients;
            let start = if per_client[c].len().is_multiple_of(FRESH_EVERY) {
                next_fresh += WINDOW;
                fresh[c].push(next_fresh - WINDOW);
                next_fresh - WINDOW
            } else {
                rng = splitmix(rng);
                fresh[c][(rng % fresh[c].len() as u64) as usize]
            };
            let name = format!("window-{start}");
            if registered.insert((t, start)) {
                let ctx = host.session_ctx(&tenants[t]).expect("tenant exists");
                ctx.registry
                    .register(corpus_source(&name, cfg, start, WINDOW, layers));
            }
            let job_plan = Dataset::source(name)
                .filter(CRC_FILTER)
                .build()
                .expect("static plan is valid");
            let mut job = SessionJob::new(tenants[t].clone(), format!("s{k:04}"), job_plan);
            if t % 2 == 1 {
                job = job.batch();
            }
            per_client[c].push(Session {
                tenant: tenants[t].clone(),
                start,
                job,
            });
        }
        let traced = layers.map(|l| {
            let ctxs = tenants
                .iter()
                .map(|id| (id.clone(), traced_tenant_context(&host, id, l)))
                .collect();
            (Arc::clone(l), ctxs)
        });
        Self {
            host,
            traced,
            clients: per_client,
            tenants,
        }
    }

    /// Run every client's sessions, one closed-loop thread per client.
    fn execute(&self) -> Vec<Done> {
        let done: Mutex<Vec<Done>> = Mutex::new(Vec::with_capacity(SESSIONS));
        let host = &self.host;
        let traced = &self.traced;
        std::thread::scope(|s| {
            for sessions in &self.clients {
                let done = &done;
                s.spawn(move || {
                    for Session { tenant, start, job } in sessions {
                        let name = job.session.clone();
                        let t = Instant::now();
                        let result = match traced {
                            None => host.run_session(job.clone()).result.map(|out| Outcome {
                                records: out.records,
                                stats: out.stats,
                                plans_considered: out.report.plans_considered,
                            }),
                            Some((layers, ctxs)) => run_logical(
                                &ctxs[tenant],
                                &job.plan,
                                &job.policy,
                                job.config,
                                Some(layers),
                            ),
                        };
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        done.lock()
                            .expect("no session thread panicked")
                            .push((name, *start, ms, result));
                    }
                });
            }
        });
        let mut done = done.into_inner().expect("no session thread panicked");
        done.sort_by(|a, b| a.0.cmp(&b.0));
        done
    }

    fn score(&self, done: Vec<Done>, truth: &Truth) -> Result<Pass, String> {
        let mut failed = 0u64;
        let mut virtual_s = 0.0f64;
        let (mut tp, mut predicted, mut expected) = (0, 0, 0);
        let (mut inputs, mut plans, mut peak) = (0, 0, 0);
        let mut outputs: Vec<&DataRecord> = Vec::new();
        for (_, start, _, result) in &done {
            let Ok(outcome) = result else {
                failed += 1;
                continue;
            };
            inputs += outcome
                .stats
                .operators
                .first()
                .map_or(0, |o| o.output_records);
            plans += outcome.plans_considered;
            peak = peak.max(outcome.stats.peak_resident_records);
            let picked = doc_indices(&outcome.records)?;
            let want = (*start..start + WINDOW)
                .filter(|&i| truth.relevant[i])
                .count();
            let (a, b, c) = score_selection(&picked, |i| truth.relevant[i], want);
            tp += a;
            predicted += b;
            expected += c;
            outputs.extend(outcome.records.iter());
        }
        let mut cost = 0.0f64;
        let mut requests = 0;
        let (mut input_tokens, mut output_tokens) = (0, 0);
        let (mut hits, mut misses, mut spans) = (0, 0, 0);
        for id in &self.tenants {
            let ctx = match &self.traced {
                None => self.host.session_ctx(id).expect("tenant exists"),
                Some((_, ctxs)) => ctxs[id].clone(),
            };
            let ledger = &ctx.ledger;
            // Sessions share the host's virtual clock, so their own modelled
            // times depend on interleaving; a tenant's ledger is billed by
            // one client only, so its modelled provider seconds do not.
            virtual_s += ledger.total_latency_secs();
            cost += ledger.total_cost_usd();
            requests += ledger.total_requests();
            let usage = ledger.total_usage();
            input_tokens += usage.input_tokens;
            output_tokens += usage.output_tokens;
            hits += ledger.total_cache_hits();
            misses += ledger.total_cache_misses();
            spans += ctx.tracer.span_count();
        }
        let admission = self.host.admission().stats();
        let scheduler = self.host.scheduler().stats();
        Ok(Pass {
            check: Check {
                digest: multiset_digest(outputs.iter().copied()),
                outputs: outputs.len(),
                virtual_s,
                cost_usd: cost,
                true_positives: tp,
                predicted,
                expected,
                attempted: done.len() as u64,
                failed,
                ledger_requests: requests,
                ledger_input_tokens: input_tokens,
                ledger_output_tokens: output_tokens,
                cache_hits: hits,
                cache_misses: misses,
                udf_calls: 0,
                source_records: inputs,
                spans,
                plans_considered: plans,
                admitted: admission.admitted,
                shed: admission.shed_queue_full + admission.shed_deadline,
                granted: scheduler.granted,
            },
            session_ms: done.iter().map(|d| d.2).collect(),
            peak_resident_records: peak,
            selectivity: if inputs == 0 {
                0.0
            } else {
                outputs.len() as f64 / inputs as f64
            },
            admission_max_queue_depth: admission.max_queue_depth,
            scheduler_queued: scheduler.queued,
            scheduler_max_waiters: scheduler.max_waiters,
        })
    }
}

/// The host's per-tenant stack (sim → TracedClient → ScheduledClient →
/// shared CachingClient), rebuilt from public constructors over the
/// tenant's own ledger, tracer, registry and the host's shared clock,
/// scheduler, cache and admission gate, with timing decorators between
/// the layers.
fn traced_tenant_context(host: &ServeHost, tenant: &str, layers: &Arc<Layers>) -> PzContext {
    let base = host.session_ctx(tenant).expect("tenant exists");
    let spec = &host.tenant(tenant).expect("tenant exists").spec;
    let sim = SimulatedLlm::new(
        host.catalog().clone(),
        spec.sim_config(),
        host.clock().clone(),
        base.ledger.clone(),
    );
    let sim = TimedClient::wrap(Arc::new(sim), layers, Stage::Sim);
    let traced = Arc::new(TracedClient::new(sim, base.tracer.clone()));
    let traced = TimedClient::wrap(traced, layers, Stage::Tracer);
    let scheduled = Arc::new(ScheduledClient::new(
        traced,
        host.scheduler().clone(),
        tenant,
    ));
    let scheduled = TimedClient::wrap(scheduled, layers, Stage::Scheduler);
    let cache = base
        .cache
        .as_ref()
        .expect("the host shares its cache")
        .with_inner(scheduled)
        .with_tracer(base.tracer.clone())
        .with_ledger(base.ledger.clone());
    let top = TimedClient::wrap(Arc::new(cache.clone()), layers, Stage::Cache);
    let top = TimedClient::wrap(top, layers, Stage::Llm);
    let mut ctx = base.with_client(top);
    ctx.cache = Some(cache);
    ctx.admission = Some(TimedGate::wrap(Arc::new(host.admission().clone()), layers));
    ctx
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
