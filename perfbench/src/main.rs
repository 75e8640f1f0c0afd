//! One run of one workload, in a process of its own.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Sets the workload up many times (the median is `setup_s`), runs one
//! untimed warm-up pass whose outputs become the reference, then repeats
//! timed passes for `--seconds`. Every pass must reproduce the reference
//! exactly (output digest, virtual time, cost, quality, counts). With
//! `--trace 1` passes alternate between the traced twin (timing decorators
//! around every layer) and the plain stack; traced passes must match the
//! reference too. Prints one JSON line: the checks, every metric this run
//! measured, and the counts the bypass invariants are checked against.
//!
//! The cores of a shared machine run a fixed loop 25-55% slower for
//! stretches of a fraction of a second to minutes. Every time reported here
//! is therefore divided by the slowdown measured around the pass (or
//! set-up block) it belongs to: the mean time of [`reference_loop`] just
//! before and just after it, over the loop's time on the machine the
//! benchmark was defined on. Passes are kept short so that the two samples
//! bracket them closely. The traced run reports the median slowdown.

mod layers;
mod workloads;

use layers::Layers;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workloads::{Pass, Truth, FLOAT_TOLERANCE, WORKLOADS};

/// Set-ups are timed in blocks of at least `SETUP_BLOCK` each, so a set-up
/// of a microsecond still gets a steady mean, and `setup_s` is the median
/// of `SETUP_BLOCKS` block means.
const SETUP_BLOCKS: usize = 15;
const SETUP_BLOCK: Duration = Duration::from_millis(3);
/// Iterations of [`reference_loop`] and its time on the machine the
/// benchmark was defined on (2-vCPU Xeon VM, release build).
const REFERENCE_ITERS: u64 = 30_000;
const REFERENCE_S: f64 = 0.0055;
/// Fewest timed passes of each kind, even when they overrun `--seconds`.
const MIN_PASSES: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// User+system CPU seconds of this process, all threads, from
/// `/proc/self/stat` (fields 14 and 15, in USER_HZ = 100 ticks/s).
fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name may contain spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> f64 { fields[i].parse::<f64>().expect("numeric tick count") };
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM is reported");
    kib / 1024.0
}

fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The machine-speed reference: a fixed loop of formatting, byte hashing
/// and short-lived allocations, the instruction mix of datagen and the
/// simulator, in the standard library alone so that no change to the
/// program moves it. Returns its wall time in seconds.
fn reference_loop() -> f64 {
    let t = Instant::now();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut kept: Vec<String> = Vec::with_capacity(1024);
    for i in 0..REFERENCE_ITERS {
        let s = format!("record {} of {}", i.wrapping_mul(2_654_435_761), i ^ h);
        for b in s.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        if kept.len() == kept.capacity() {
            kept.clear();
        }
        kept.push(s);
    }
    std::hint::black_box((h, kept.len()));
    t.elapsed().as_secs_f64()
}

struct Timed {
    pass: Pass,
    wall_s: f64,
    cpu_s: f64,
    /// How much slower than [`REFERENCE_S`] the reference loop ran around
    /// this pass; every time of the pass is divided by it.
    slowdown: f64,
    layers: Option<Arc<Layers>>,
}

/// Per-layer metrics of one traced pass.
fn layer_metrics(t: &Timed) -> Vec<(&'static str, f64)> {
    let l = t.layers.as_ref().expect("traced pass");
    let p = &t.pass;
    let c = &p.check;
    let load = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64;
    // CPU time outside every timed layer: the executor's own work (record
    // movement, channels, pools, turnstile). Self times are disjoint, so on
    // a single-threaded drive this is the wall minus the other layers.
    let exec_self = t.cpu_s - l.all().iter().map(|m| m.self_s()).sum::<f64>();
    let lookups = c.cache_hits + c.cache_misses;
    vec![
        ("datagen.docs", l.datagen.calls() as f64),
        ("datagen.bytes", load(&l.datagen_bytes)),
        ("datagen.busy_s", l.datagen.self_s()),
        ("source.records", load(&l.source_records)),
        ("source.busy_s", l.source.self_s()),
        ("optimizer.busy_s", l.optimizer.self_s()),
        ("optimizer.plans_considered", c.plans_considered as f64),
        ("llm.calls", l.llm.calls() as f64),
        ("llm.failed", load(&l.llm_failed)),
        ("llm.input_tokens", load(&l.llm_input_tokens)),
        ("llm.output_tokens", load(&l.llm_output_tokens)),
        ("llm.busy_s", l.llm.busy_s()),
        ("sim.busy_s", l.sim.self_s()),
        ("tracer.busy_s", l.tracer.self_s()),
        ("tracer.spans", c.spans as f64),
        ("exec.self_s", exec_self),
        ("exec.peak_resident_records", p.peak_resident_records as f64),
        ("exec.selectivity", p.selectivity),
        ("udf.calls", l.udf.calls() as f64),
        ("udf.busy_s", l.udf.self_s()),
        ("cache.hits", c.cache_hits as f64),
        ("cache.misses", c.cache_misses as f64),
        (
            "cache.hit_ratio",
            if lookups == 0 {
                0.0
            } else {
                c.cache_hits as f64 / lookups as f64
            },
        ),
        ("cache.busy_s", l.cache.self_s()),
        ("admission.admitted", c.admitted as f64),
        ("admission.shed", c.shed as f64),
        (
            "admission.max_queue_depth",
            p.admission_max_queue_depth as f64,
        ),
        ("admission.busy_s", l.admission.self_s()),
        ("scheduler.granted", c.granted as f64),
        ("scheduler.queued", p.scheduler_queued as f64),
        ("scheduler.max_waiters", p.scheduler_max_waiters as f64),
        ("scheduler.busy_s", l.scheduler.self_s()),
        ("virtual_s", c.virtual_s),
        ("cost_usd", c.cost_usd),
    ]
}

/// Session latencies in ms: each `serve-mix` session, or each pass of a
/// batch workload (one pipeline run is one session there).
fn session_ms(passes: &[Timed]) -> Vec<f64> {
    let sessions: Vec<f64> = passes
        .iter()
        .flat_map(|t| t.pass.session_ms.iter().map(|ms| ms / t.slowdown))
        .collect();
    if sessions.is_empty() {
        passes.iter().map(|t| t.wall_s * 1e3 / t.slowdown).collect()
    } else {
        sessions
    }
}

fn json_number(name: &str, v: f64) -> Result<String, String> {
    if v.is_finite() {
        // `+ 0.0` turns the -0.0 of an empty float sum into 0.0.
        Ok(format!("\"{name}\":{:?}", v + 0.0))
    } else {
        Err(format!("{name} is not finite"))
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let w = args.workload.as_str();
    let clients = pz_core::exec::available_cores();
    let truth = Truth::new(w, args.seed);

    let mut errors: Vec<String> = Vec::new();
    let reference = match workloads::setup(w, args.seed, clients, None)
        .run()
        .score(&truth)
    {
        Ok(p) => p,
        Err(e) => {
            println!(
                "{{\"correct\":false,\"errors\":[{}],\"attempted\":1,\"failed\":1,\"metrics\":{{}},\"counts\":{{}}}}",
                json_string(&e)
            );
            return ExitCode::FAILURE;
        }
    };

    // Set-up time, after the warm-up pass so that it is steady state: the
    // median over blocks of the block's mean set-up time over its slowdown.
    let setup_s = (!args.trace).then(|| {
        let time_setup = || {
            let t = Instant::now();
            let fixture = workloads::setup(w, args.seed, clients, None);
            let s = t.elapsed().as_secs_f64();
            drop(fixture);
            s
        };
        let per_block = (SETUP_BLOCK.as_secs_f64() / time_setup().max(1e-7)).ceil() as usize;
        let mut blocks = Vec::new();
        let mut ref_before = reference_loop();
        for _ in 0..SETUP_BLOCKS {
            let mean = (0..per_block).map(|_| time_setup()).sum::<f64>() / per_block as f64;
            let ref_after = reference_loop();
            blocks.push(mean / ((ref_before + ref_after) / 2.0 / REFERENCE_S));
            ref_before = ref_after;
        }
        median(blocks)
    });

    let budget = Duration::from_secs_f64(args.seconds);
    let mut ref_before = reference_loop();
    let start = Instant::now();
    let mut longest = Duration::ZERO;
    let mut plain: Vec<Timed> = Vec::new();
    let mut traced: Vec<Timed> = Vec::new();
    loop {
        let short = plain.len() < MIN_PASSES || (args.trace && traced.len() < MIN_PASSES);
        if !short && start.elapsed() + longest > budget {
            break;
        }
        let pass_start = Instant::now();
        // Traced passes go first and alternate with plain ones, so both
        // see the same machine conditions.
        let trace_this = args.trace && traced.len() <= plain.len();
        let layers = trace_this.then(|| Arc::new(Layers::default()));
        let fixture = workloads::setup(w, args.seed, clients, layers.as_ref());
        let cpu0 = cpu_s();
        let t = Instant::now();
        let ran = fixture.run();
        let wall_s = t.elapsed().as_secs_f64();
        let cpu = cpu_s() - cpu0;
        let ref_after = reference_loop();
        let slowdown = (ref_before + ref_after) / 2.0 / REFERENCE_S;
        ref_before = ref_after;
        match ran.score(&truth) {
            Err(e) => errors.push(e),
            Ok(pass) => {
                let diff = pass.check.diff(&reference.check);
                if !diff.is_empty() {
                    let kind = if trace_this { "traced" } else { "plain" };
                    errors.push(format!(
                        "{kind} pass differs from the reference: {}",
                        diff.join("; ")
                    ));
                }
                let timed = Timed {
                    pass,
                    wall_s,
                    cpu_s: cpu,
                    slowdown,
                    layers,
                };
                if trace_this {
                    traced.push(timed);
                } else {
                    plain.push(timed);
                }
            }
        }
        longest = longest.max(pass_start.elapsed());
        if !errors.is_empty() {
            break;
        }
    }

    let c = &reference.check;
    let passes = (plain.len() + traced.len()) as u64;
    let mut metrics: Vec<(&str, f64)> = Vec::new();
    let plain_wall = median(plain.iter().map(|t| t.wall_s / t.slowdown));
    if !plain.is_empty() {
        let sessions = session_ms(&plain);
        let session = |q: f64| pz_serve::percentile(&sessions, q);
        if args.trace {
            metrics.push(("session_p99_ms", session(0.99)));
        } else {
            metrics.extend([
                ("setup_s", setup_s.expect("measured in untraced runs")),
                ("wall_s", plain_wall),
                ("cpu_s", median(plain.iter().map(|t| t.cpu_s / t.slowdown))),
                ("peak_rss_mib", peak_rss_mib()),
                ("quality_f1", c.quality().f1),
                ("session_p50_ms", session(0.50)),
                ("session_p90_ms", session(0.90)),
            ]);
        }
    }
    if !traced.is_empty() && !plain.is_empty() {
        let per_pass: Vec<Vec<(&str, f64)>> = traced
            .iter()
            .map(|t| {
                let mut m = layer_metrics(t);
                for (name, v) in &mut m {
                    if name.ends_with("_s") && *name != "virtual_s" {
                        *v /= t.slowdown;
                    }
                }
                m
            })
            .collect();
        for (i, (name, first)) in per_pass[0].iter().enumerate() {
            // Times vary run to run: report their median. Counts must not.
            let values: Vec<f64> = per_pass.iter().map(|m| m[i].1).collect();
            let is_time = name.ends_with("_s");
            let same = |v: &f64| (v - first).abs() <= FLOAT_TOLERANCE * first.abs();
            if !is_time && !values.iter().all(same) && !is_contention_gauge(name) {
                errors.push(format!("{name} differs between traced passes: {values:?}"));
            }
            metrics.push((name, if is_time { median(values) } else { *first }));
        }
        let traced_wall = median(traced.iter().map(|t| t.wall_s / t.slowdown));
        metrics.push((
            "trace_overhead_pct",
            (traced_wall / plain_wall - 1.0) * 100.0,
        ));
        let slowdowns = traced.iter().chain(&plain).map(|t| t.slowdown);
        metrics.push(("machine.slowdown", median(slowdowns)));
        // Counts seen by the decorators must agree with the program's own.
        let m = &per_pass[0];
        let get = |n: &str| m.iter().find(|(k, _)| *k == n).map_or(f64::NAN, |x| x.1);
        let executor_calls = (c.ledger_requests + c.cache_hits) as f64;
        if get("llm.calls") != executor_calls {
            errors.push(format!(
                "llm.calls {} seen by the decorator, {executor_calls} by the ledger",
                get("llm.calls")
            ));
        }
        if get("udf.calls") != c.udf_calls as f64 {
            errors.push(format!(
                "udf.calls {} seen by the decorator, {} by the executor",
                get("udf.calls"),
                c.udf_calls
            ));
        }
    }

    // Counts the bypass invariants are checked against, in every run.
    let counts = [
        ("llm.calls", (c.ledger_requests + c.cache_hits) as f64),
        ("cache.hits", c.cache_hits as f64),
        ("cache.misses", c.cache_misses as f64),
        ("udf.calls", c.udf_calls as f64),
        ("admission.admitted", c.admitted as f64),
        ("scheduler.granted", c.granted as f64),
    ];

    let mut fields = Vec::new();
    for (name, v) in metrics.iter().chain(counts.iter()) {
        if let Err(e) = json_number(name, *v) {
            errors.push(e);
        }
    }
    let render = |list: &[(&str, f64)]| -> String {
        list.iter()
            .filter_map(|(n, v)| json_number(n, *v).ok())
            .collect::<Vec<_>>()
            .join(",")
    };
    fields.push(format!("\"correct\":{}", errors.is_empty()));
    fields.push(format!(
        "\"errors\":[{}]",
        errors
            .iter()
            .map(|e| json_string(e))
            .collect::<Vec<_>>()
            .join(",")
    ));
    fields.push(format!("\"attempted\":{}", c.attempted * passes.max(1)));
    fields.push(format!("\"failed\":{}", c.failed * passes.max(1)));
    fields.push(format!("\"passes\":{passes}"));
    fields.push(format!("\"nproc\":{clients}"));
    fields.push(format!("\"metrics\":{{{}}}", render(&metrics)));
    fields.push(format!("\"counts\":{{{}}}", render(&counts)));
    println!("{{{}}}", fields.join(","));
    if errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Gauges that depend on how threads interleave, so may differ between
/// passes of the same inputs.
fn is_contention_gauge(name: &str) -> bool {
    matches!(
        name,
        "admission.max_queue_depth" | "scheduler.queued" | "scheduler.max_waiters"
    )
}
