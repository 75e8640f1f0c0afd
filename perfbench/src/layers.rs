//! Per-layer real-clock meters and the decorators that feed them.
//!
//! Every layer is timed from outside: each decorator implements the same
//! public trait as the layer it wraps (`LlmClient`, `DataSource`,
//! `AdmissionGate`) or wraps the closure the layer calls, and adds the time
//! spent inside the wrapped call to one [`Meter`]. Nothing in the library
//! crates knows it is being measured.
//!
//! Decorators nest (the optimizer samples the source, the cache calls the
//! scheduler, the source calls datagen), so each meter keeps both its
//! inclusive time and its self time: the inclusive time minus what nested
//! timed calls on the same thread took.

use pz_core::context::AdmissionGate;
use pz_core::datasource::{DataSource, RecordBatchIter};
use pz_core::error::PzResult;
use pz_core::record::DataRecord;
use pz_core::schema::Schema;
use pz_llm::{
    CompletionRequest, CompletionResponse, EmbeddingRequest, EmbeddingResponse, LlmClient, LlmError,
};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

thread_local! {
    /// Time taken so far by timed calls nested in the innermost timed call
    /// running on this thread.
    static NESTED_NS: Cell<u64> = const { Cell::new(0) };
}

/// Calls into one layer and the wall time spent inside them, summed over
/// threads. Statistics only, so `Relaxed` is enough.
#[derive(Default)]
pub struct Meter {
    calls: AtomicU64,
    busy_ns: AtomicU64,
    self_ns: AtomicU64,
}

impl Meter {
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let enclosing = NESTED_NS.with(|n| n.replace(0));
        let t = Instant::now();
        let out = f();
        let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let nested = NESTED_NS.with(|n| n.replace(enclosing + ns));
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
        self.self_ns
            .fetch_add(ns.saturating_sub(nested), Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Inclusive time: nested layers counted.
    pub fn busy_s(&self) -> f64 {
        self.busy_ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Exclusive time: nested layers on the same thread not counted.
    pub fn self_s(&self) -> f64 {
        self.self_ns.load(Ordering::Relaxed) as f64 / 1e9
    }
}

/// Every meter of one traced pass.
#[derive(Default)]
pub struct Layers {
    /// `pz_datagen::stream::doc_at`, called by the source's generator.
    pub datagen: Meter,
    pub datagen_bytes: AtomicU64,
    /// `DataSource::batches` / `records`, inclusive of datagen.
    pub source: Meter,
    pub source_records: AtomicU64,
    pub optimizer: Meter,
    pub udf: Meter,
    pub admission: Meter,
    /// The client stack as the executor sees it, inclusive.
    pub llm: Meter,
    pub llm_failed: AtomicU64,
    pub llm_input_tokens: AtomicU64,
    pub llm_output_tokens: AtomicU64,
    /// Client-stack layers below `llm`, outermost first.
    pub cache: Meter,
    pub scheduler: Meter,
    pub tracer: Meter,
    pub sim: Meter,
}

/// Which client-stack layer a [`TimedClient`] sits on top of.
#[derive(Clone, Copy)]
pub enum Stage {
    /// The whole stack, as the executor calls it; also counts tokens.
    Llm,
    Cache,
    Scheduler,
    Tracer,
    Sim,
}

impl Layers {
    fn stage(&self, stage: Stage) -> &Meter {
        match stage {
            Stage::Llm => &self.llm,
            Stage::Cache => &self.cache,
            Stage::Scheduler => &self.scheduler,
            Stage::Tracer => &self.tracer,
            Stage::Sim => &self.sim,
        }
    }

    /// Every meter. The executor itself has none: on a multi-threaded
    /// drive the calling thread only waits, so its share is computed from
    /// CPU time instead.
    pub fn all(&self) -> [&Meter; 10] {
        [
            &self.datagen,
            &self.source,
            &self.optimizer,
            &self.udf,
            &self.admission,
            &self.llm,
            &self.cache,
            &self.scheduler,
            &self.tracer,
            &self.sim,
        ]
    }
}

/// An `LlmClient` decorator timing the client it wraps.
pub struct TimedClient {
    inner: Arc<dyn LlmClient>,
    layers: Arc<Layers>,
    stage: Stage,
}

impl TimedClient {
    pub fn wrap(
        inner: Arc<dyn LlmClient>,
        layers: &Arc<Layers>,
        stage: Stage,
    ) -> Arc<dyn LlmClient> {
        Arc::new(Self {
            inner,
            layers: Arc::clone(layers),
            stage,
        })
    }

    fn account(&self, usage: Option<&pz_llm::Usage>) {
        if !matches!(self.stage, Stage::Llm) {
            return;
        }
        match usage {
            Some(u) => {
                let l = &self.layers;
                l.llm_input_tokens
                    .fetch_add(u.input_tokens as u64, Ordering::Relaxed);
                l.llm_output_tokens
                    .fetch_add(u.output_tokens as u64, Ordering::Relaxed);
            }
            None => {
                self.layers.llm_failed.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

impl LlmClient for TimedClient {
    fn complete(&self, req: &CompletionRequest) -> Result<CompletionResponse, LlmError> {
        let out = self
            .layers
            .stage(self.stage)
            .time(|| self.inner.complete(req));
        self.account(out.as_ref().ok().map(|r| &r.usage));
        out
    }

    fn embed(&self, req: &EmbeddingRequest) -> Result<EmbeddingResponse, LlmError> {
        let out = self.layers.stage(self.stage).time(|| self.inner.embed(req));
        self.account(out.as_ref().ok().map(|r| &r.usage));
        out
    }
}

/// A `DataSource` decorator timing record production (datagen included;
/// the generator closure times datagen on its own meter).
pub struct TimedSource<S> {
    inner: S,
    layers: Arc<Layers>,
}

impl<S> TimedSource<S> {
    pub fn new(inner: S, layers: &Arc<Layers>) -> Self {
        Self {
            inner,
            layers: Arc::clone(layers),
        }
    }
}

impl<S: DataSource> DataSource for TimedSource<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schema(&self) -> Schema {
        self.inner.schema()
    }

    fn records(&self, base_id: u64) -> PzResult<Vec<DataRecord>> {
        let out = self.layers.source.time(|| self.inner.records(base_id));
        if let Ok(records) = &out {
            self.layers
                .source_records
                .fetch_add(records.len() as u64, Ordering::Relaxed);
        }
        out
    }

    fn batches(&self, base_id: u64, chunk_size: usize) -> PzResult<RecordBatchIter> {
        let mut inner = self
            .layers
            .source
            .time(|| self.inner.batches(base_id, chunk_size))?;
        let layers = Arc::clone(&self.layers);
        Ok(Box::new(std::iter::from_fn(move || {
            let batch = layers.source.time(|| inner.next())?;
            if let Ok(records) = &batch {
                layers
                    .source_records
                    .fetch_add(records.len() as u64, Ordering::Relaxed);
            }
            Some(batch)
        })))
    }

    fn cardinality_hint(&self) -> Option<usize> {
        self.inner.cardinality_hint()
    }
}

/// An `AdmissionGate` decorator timing admission decisions and releases.
pub struct TimedGate {
    inner: Arc<dyn AdmissionGate>,
    layers: Arc<Layers>,
}

impl TimedGate {
    pub fn wrap(inner: Arc<dyn AdmissionGate>, layers: &Arc<Layers>) -> Arc<dyn AdmissionGate> {
        Arc::new(Self {
            inner,
            layers: Arc::clone(layers),
        })
    }
}

impl AdmissionGate for TimedGate {
    fn begin(&self, now_secs: f64, deadline_at_secs: Option<f64>) -> PzResult<u64> {
        self.layers
            .admission
            .time(|| self.inner.begin(now_secs, deadline_at_secs))
    }

    fn end(&self, ticket: u64, now_secs: f64) {
        self.layers
            .admission
            .time(|| self.inner.end(ticket, now_secs))
    }
}
