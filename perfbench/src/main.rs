//! The repository benchmark: what a user of the clogic stack waits for,
//! end to end, and where that time goes, layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <rules_magic|served_mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input is generated from `--seed` (same seed, same inputs) and the
//! program only ever receives generated text. Every answer is checked
//! against a reference the benchmark computes itself (`gen`); a wrong
//! answer stops the run with `"correct": false`. An op that errors, is
//! shed or refused, or comes back incomplete counts as failed.
//!
//! **`--trace 0`** sets the workload up, runs its op stream untraced for
//! `--seconds` in segments with a recovery probe after each, then times
//! fifteen more set-ups (reporting the median), and prints the end-to-end
//! metrics.
//!
//! **`--trace 1`** sets up once and splits `--seconds` in three. The first
//! two thirds alternate slices of the op stream untraced and with a span
//! around each call into the public API (their latency ratio is
//! `trace.overhead_pct`; the program's counters are read from the
//! registry delta over these slices). The last third replays the op
//! stream through the layers' own entry points, each call in a child span
//! of one op span (the per-layer self times). The spans are written
//! to `target/perfbench/` when the run ends, next to a summary of every
//! run. No committed file is ever written.
//!
//! Options differing from `SessionOptions::default()`: only
//! `termination_guard: false`. The guard flags every §2.1 path program and
//! the Example 3 grammar (at grammar scale 32 the bottom-up strategies and
//! Magic return 0 of 256 rows under default options), and its 2 s
//! wall-clock deadline would make answers depend on machine load. Durable
//! state lives on `MemStorage`, whose `sync` is a no-op: no device flush.
//! The served tenant uses `ManagerOptions::default()` otherwise, and the
//! TCP front `TcpFrontOptions::default()` with one worker.

mod gen;
mod measure;
mod rules_magic;
mod served_mixed;

use clogic::core::fol::FoTerm;
use clogic::core::symbol::Symbol;
use clogic::folog::{FixpointOptions, Strategy as Fixpoint};
use clogic::obs::{Json, MemorySubscriber, MetricsSnapshot, Obs, Tracer};
use clogic::{Answers, SessionOptions};
use measure::{mean, median, quantile, ratio, Abort, Delta, Outcome, SpanTable};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// End-to-end metrics, reported by `--trace 0`: `(name, unit)`.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("queries_per_s", "1/s"),
    ("update_p50_ms", "ms"),
    ("update_p90_ms", "ms"),
    ("recover_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by `--trace 1`. `us` values are self time
/// per op (per probe for `store.recover_us`, per call for
/// `core.optimize_us`); `count/op` values are counter movement per op of
/// the traced stretch.
const PER_LAYER: [(&str, &str); 47] = [
    ("parser.parse_us", "us"),
    ("core.translate_us", "us"),
    ("core.optimize_us", "us"),
    ("core.translate.clauses_emitted", "count/op"),
    ("core.optimize.clauses_subsumed", "count/op"),
    ("folog.compile_us", "us"),
    ("folog.compile.clauses_pushed", "count/op"),
    ("folog.fixpoint_us", "us"),
    ("folog.fixpoint.iterations", "count/op"),
    ("folog.fixpoint.rule_activations", "count/op"),
    ("folog.fixpoint.match_attempts", "count/op"),
    ("folog.fixpoint.facts_derived", "count/op"),
    ("folog.fixpoint.duplicates", "count/op"),
    ("folog.fixpoint.yield", "ratio"),
    ("folog.fixpoint.facts_per_activation", "ratio"),
    ("folog.magic.rewrite_us", "us"),
    ("folog.magic.rules", "count"),
    ("folog.index.hits", "count/op"),
    ("folog.index.misses", "count/op"),
    ("folog.index.builds", "count/op"),
    ("folog.index.extends", "count/op"),
    ("folog.index.invalidations", "count/op"),
    ("folog.index.hit_ratio", "ratio"),
    ("folog.dred.runs", "count/op"),
    ("folog.dred.overdeleted", "count/op"),
    ("folog.dred.rederived", "count/op"),
    ("folog.dred.fallbacks", "count/op"),
    ("engine.direct_us", "us"),
    ("engine.direct.steps", "count/op"),
    ("engine.direct.piece_matches", "count/op"),
    ("session.load_us", "us"),
    ("session.prepare_us", "us"),
    ("session.cache.hit_ratio", "ratio"),
    ("serve.snapshot.cache.hit_ratio", "ratio"),
    ("store.wal.appends", "count/op"),
    ("store.wal.bytes_per_source_byte", "ratio"),
    ("store.compactions", "count/op"),
    ("store.recover_us", "us"),
    ("serve.queue_wait_p50_us", "us"),
    ("serve.queue_wait_p90_us", "us"),
    ("serve.eval_us", "us"),
    ("net.wire_overhead_us", "us"),
    ("net.codec_us", "us"),
    ("net.frames.in", "count/op"),
    ("net.frames.out", "count/op"),
    ("trace.overhead_pct", "%"),
    ("failed_frac", "ratio"),
];

/// How often `--trace 0` times a build of the workload's state, after the
/// run; the median counts.
const SETUP_REPEATS: usize = 15;
/// Untraced/traced slice pairs in a `--trace 1` run.
const TRACE_SLICES: u32 = 10;
/// Trace ring capacity, in events; a run that overflows it reports so.
const SPAN_CAPACITY: usize = 1 << 20;

/// One workload: its set-up, its op stream, its recovery probe and its
/// replay through the layers.
pub trait Workload: Sized {
    /// Recovery probes per run (one after each segment of the op stream).
    const RECOVERY_PROBES: usize;
    /// Builds the state the ops run against (the timed set-up).
    fn setup(seed: u64) -> Self;
    /// One untimed op after set-up, so the timed phase starts with any
    /// lazy first-use work done.
    fn warm_up(&mut self) -> Result<(), Abort> {
        Ok(())
    }
    /// Runs the op stream until `until`, a span per op on `tracer` (a
    /// disabled tracer makes every span inert).
    fn run_ops(&mut self, until: Instant, tracer: &Tracer) -> Result<Outcome, Abort>;
    /// Rebuilds the workload's state from its durable store and answers
    /// one query; returns the time taken in ms.
    fn recover(&mut self, tracer: &Tracer) -> Result<f64, Abort>;
    /// The registry the program records its counters into.
    fn metrics(&self) -> MetricsSnapshot;
    /// Namespace of the session-level counters in that registry.
    fn counter_prefix(&self) -> &'static str {
        ""
    }
    /// Bytes appended to the write-ahead log so far.
    fn wal_bytes(&self) -> u64 {
        0
    }
    /// Replays the op stream through the layer entry points until
    /// `until`, one span per call.
    fn replay(&mut self, until: Instant, tracer: &Tracer) -> Result<Outcome, Abort>;
}

/// Every option that differs from `SessionOptions::default()` (see the
/// crate docs for why).
pub fn session_options(obs: Obs) -> SessionOptions {
    SessionOptions {
        termination_guard: false,
        obs,
        ..SessionOptions::default()
    }
}

/// The session's own fixpoint options, for replays that call `folog`
/// directly (their counters go to a registry nobody reads).
pub fn fixpoint_options(strategy: Fixpoint) -> FixpointOptions {
    FixpointOptions {
        strategy,
        ..SessionOptions::default().fixpoint
    }
}

/// Answer rows as `variable → rendered term`.
pub type Rows = Vec<BTreeMap<String, String>>;

pub fn answer_rows(a: &Answers) -> Rows {
    a.rows
        .iter()
        .map(|r| {
            r.bindings
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect()
        })
        .collect()
}

pub fn fo_rows(rows: &[BTreeMap<Symbol, FoTerm>]) -> Rows {
    rows.iter()
        .map(|r| {
            r.iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect()
        })
        .collect()
}

fn row(pairs: &[(&str, &str)]) -> BTreeMap<String, String> {
    pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

fn expect_rows(got: &Rows, mut want: Rows, what: &str) -> Result<(), Abort> {
    let mut got = got.clone();
    got.sort();
    want.sort();
    if got == want {
        Ok(())
    } else {
        Err(Abort(format!("{what}: expected {want:?}, got {got:?}")))
    }
}

/// `path: P[src => src, dest => Y]` must return exactly the BFS set.
pub fn check_path_rows(rows: &Rows, expect: &BTreeSet<String>, src: &str) -> Result<(), Abort> {
    let want = expect
        .iter()
        .map(|y| row(&[("P", &format!("id({src}, {y})")), ("Y", y)]))
        .collect();
    expect_rows(rows, want, &format!("paths from {src}"))
}

/// A point query returns the object's values, or nothing when absent.
pub fn check_point_rows(rows: &Rows, expect: Option<&[String]>) -> Result<(), Abort> {
    let want = expect
        .map(|values| {
            values
                .iter()
                .enumerate()
                .map(|(j, v)| (format!("L{j}"), v.clone()))
                .collect()
        })
        .into_iter()
        .collect();
    expect_rows(rows, want, "point query")
}

/// A noun-phrase query returns its number and definiteness, or nothing
/// when determiner and noun disagree.
pub fn check_np_rows(rows: &Rows, expect: &Option<(String, String)>) -> Result<(), Abort> {
    let want = expect
        .iter()
        .map(|(num, def)| row(&[("N", num), ("D", def)]))
        .collect();
    expect_rows(rows, want, "noun phrase")
}

struct Config {
    workload: String,
    seed: u64,
    run: Duration,
    trace: bool,
}

fn parse_args() -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 1,
        run: Duration::from_secs(10),
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => cfg.run = Duration::from_secs_f64(value.parse().map_err(|_| bad())?),
            "--trace" => cfg.trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(cfg)
}

/// A finished run: the result line plus the detail kept in the summary.
struct Run {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    detail: Vec<(String, Json)>,
}

fn end_to_end<W: Workload>(cfg: &Config) -> Result<Run, Abort> {
    let mut w = W::setup(cfg.seed);
    w.warm_up()?;
    let setup_peak_mb = measure::peak_rss_mb();
    // The timed stretch is cut into one segment per recovery probe, with
    // the probe after its segment, so probes see the same machine
    // conditions as the ops around them.
    let off = Tracer::disabled();
    let segment = cfg.run / W::RECOVERY_PROBES as u32;
    let mut out = Outcome::default();
    let mut recover = Vec::new();
    for _ in 0..W::RECOVERY_PROBES {
        let part = w.run_ops(Instant::now() + segment, &off)?;
        out.elapsed_s += part.elapsed_s;
        out.merge(part);
        recover.push(w.recover(&off)?);
    }
    let peak_rss_mb = measure::peak_rss_mb();
    drop(w);
    // Set-up is timed after the run, in a warm process (the first build
    // pays for the process's first-use page faults and cold caches), and
    // leaves the run's peak memory alone.
    let setups: Vec<f64> = (0..SETUP_REPEATS)
        .map(|_| {
            let t0 = Instant::now();
            let w = W::setup(cfg.seed);
            let took = t0.elapsed().as_secs_f64();
            drop(w);
            took
        })
        .collect();
    let metrics = BTreeMap::from([
        ("setup_s", median(&setups)),
        ("query_p50_ms", quantile(&out.queries, 0.5)),
        ("query_p90_ms", quantile(&out.queries, 0.9)),
        ("queries_per_s", out.queries.len() as f64 / out.elapsed_s),
        ("update_p50_ms", quantile(&out.updates, 0.5)),
        ("update_p90_ms", quantile(&out.updates, 0.9)),
        ("recover_ms", median(&recover)),
        ("peak_rss_mb", peak_rss_mb),
    ]);
    let floats = |v: &[f64]| Json::Array(v.iter().map(|&x| Json::F64(x)).collect());
    let detail = vec![
        ("queries".to_string(), Json::U64(out.queries.len() as u64)),
        ("updates".to_string(), Json::U64(out.updates.len() as u64)),
        ("setup_samples_s".to_string(), floats(&setups)),
        ("recover_samples_ms".to_string(), floats(&recover)),
        ("timed_s".to_string(), Json::F64(out.elapsed_s)),
        ("setup_peak_rss_mb".to_string(), Json::F64(setup_peak_mb)),
    ];
    Ok(Run {
        attempted: out.attempted + recover.len() as u64,
        failed: out.failed,
        metrics,
        detail,
    })
}

fn traced<W: Workload>(cfg: &Config, spans_file: &PathBuf) -> Result<Run, Abort> {
    let mut w = W::setup(cfg.seed);
    w.warm_up()?;
    // Two thirds of the run alternate short untraced and traced slices of
    // the op stream, so both see the same machine conditions; the last
    // third replays the stream through the layers.
    let sink = Arc::new(MemorySubscriber::new(SPAN_CAPACITY));
    let (on, off) = (Tracer::enabled(sink.clone()), Tracer::disabled());
    let slice = cfg.run / (3 * TRACE_SLICES);
    let (mut a, mut b) = (Outcome::default(), Outcome::default());
    let (before, wal_before) = (w.metrics(), w.wal_bytes());
    for _ in 0..TRACE_SLICES {
        a.merge(w.run_ops(Instant::now() + slice, &off)?);
        b.merge(w.run_ops(Instant::now() + slice, &on)?);
    }
    let (after, wal_after) = (w.metrics(), w.wal_bytes());
    let b_events = sink.drain();
    let probes = (0..W::RECOVERY_PROBES)
        .map(|_| w.recover(&on))
        .collect::<Result<Vec<f64>, Abort>>()?;
    let probe_events = sink.drain();
    let c = w.replay(Instant::now() + cfg.run / 3, &on)?;
    let c_events = sink.drain();
    if sink.dropped() > 0 {
        eprintln!(
            "perfbench: trace ring overflowed, {} events lost",
            sink.dropped()
        );
    }
    write_spans(spans_file, [&b_events, &probe_events, &c_events]);

    let (sp, sc) = (
        SpanTable::from_events(&probe_events),
        SpanTable::from_events(&c_events),
    );
    // Counters cover both kinds of slice: tracing changes none of them.
    let stretch = a.attempted + b.attempted;
    let (nb, nc) = (b.attempted, c.attempted);
    let d = Delta {
        before: &before,
        after: &after,
        prefix: w.counter_prefix(),
    };
    let root = Delta { prefix: "", ..d };
    let per_op = |v: f64| ratio(v, stretch as f64);
    let count = |name: &str| per_op(d.counter(name));
    let c_us = |name: &str| sc.per(name, nc);
    let (rules_seen, rules_sum) = d.histogram("folog.magic.rewritten_rules");
    let hits = d.counter("folog.index.hits");
    let misses = d.counter("folog.index.misses");
    let derived = d.counter("folog.fixpoint.facts_derived");
    let cache = |hit: f64, miss: f64| ratio(hit, hit + miss);
    let attempted = a.attempted + nb + nc + probes.len() as u64;
    let failed = a.failed + b.failed + c.failed;
    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::from([
        ("parser.parse_us", c_us("parser")),
        ("core.translate_us", c_us("core.translate")),
        // Per call: rules_magic's replay optimizes only after its loads.
        ("core.optimize_us", sc.mean("core.optimize")),
        ("folog.compile_us", c_us("folog.compile")),
        ("folog.fixpoint_us", c_us("folog.fixpoint")),
        (
            "folog.fixpoint.yield",
            ratio(derived, d.counter("folog.fixpoint.match_attempts")),
        ),
        (
            "folog.fixpoint.facts_per_activation",
            ratio(derived, d.counter("folog.fixpoint.rule_activations")),
        ),
        ("folog.magic.rewrite_us", c_us("folog.magic.rewrite")),
        ("folog.magic.rules", ratio(rules_sum, rules_seen)),
        ("folog.index.hit_ratio", cache(hits, misses)),
        ("engine.direct_us", c_us("engine.direct")),
        ("session.load_us", c_us("session.write")),
        ("session.prepare_us", c_us("session.prepare")),
        (
            "session.cache.hit_ratio",
            cache(
                d.counter("session.cache.hits"),
                d.counter("session.cache.misses"),
            ),
        ),
        (
            "serve.snapshot.cache.hit_ratio",
            cache(
                root.counter("serve.snapshot.cache.hit"),
                root.counter("serve.snapshot.cache.miss"),
            ),
        ),
        (
            "store.wal.bytes_per_source_byte",
            ratio(
                (wal_after - wal_before) as f64,
                (a.write_bytes + b.write_bytes) as f64,
            ),
        ),
        (
            "store.recover_us",
            sp.per("store.recover", probes.len() as u64),
        ),
        (
            "serve.queue_wait_p50_us",
            root.histogram_quantile("net.queue_wait_us", 0.5),
        ),
        (
            "serve.queue_wait_p90_us",
            root.histogram_quantile("net.queue_wait_us", 0.9),
        ),
        ("serve.eval_us", c_us("serve.query")),
        (
            "net.wire_overhead_us",
            sc.mean("net.round_trip") - sc.mean("serve.query_hit"),
        ),
        ("net.codec_us", c_us("net.codec")),
        ("net.frames.in", per_op(root.counter("net.frames.in"))),
        ("net.frames.out", per_op(root.counter("net.frames.out"))),
        (
            "trace.overhead_pct",
            (ratio(mean(&b.ops), mean(&a.ops)) - 1.0) * 100.0,
        ),
        ("failed_frac", ratio(failed as f64, attempted as f64)),
    ]);
    for name in [
        "core.translate.clauses_emitted",
        "core.optimize.clauses_subsumed",
        "folog.compile.clauses_pushed",
        "folog.fixpoint.iterations",
        "folog.fixpoint.rule_activations",
        "folog.fixpoint.match_attempts",
        "folog.fixpoint.facts_derived",
        "folog.fixpoint.duplicates",
        "folog.index.hits",
        "folog.index.misses",
        "folog.index.builds",
        "folog.index.extends",
        "folog.index.invalidations",
        "folog.dred.runs",
        "folog.dred.overdeleted",
        "folog.dred.rederived",
        "folog.dred.fallbacks",
        "engine.direct.steps",
        "engine.direct.piece_matches",
        "store.wal.appends",
        "store.compactions",
    ] {
        metrics.insert(name, count(name));
    }
    let detail = vec![
        ("untraced_ops".to_string(), Json::U64(a.attempted)),
        ("traced_ops".to_string(), Json::U64(nb)),
        ("replayed_ops".to_string(), Json::U64(nc)),
        (
            "spans_file".to_string(),
            Json::str(spans_file.display().to_string()),
        ),
    ];
    Ok(Run {
        attempted,
        failed,
        metrics,
        detail,
    })
}

fn write_spans<'a>(
    path: &PathBuf,
    parts: impl IntoIterator<Item = &'a Vec<clogic::obs::TraceEvent>>,
) {
    let mut text = String::new();
    for e in parts.into_iter().flatten() {
        text.push_str(&e.to_json_line());
        text.push('\n');
    }
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

/// The result line: `correct`, `attempted`, `failed`, and the catalogue's
/// metrics in order.
fn result_json(correct: bool, run: Option<&Run>, catalogue: &[(&str, &str)]) -> Json {
    let metrics = run.map_or_else(Vec::new, |run| {
        catalogue
            .iter()
            .map(|(name, unit)| {
                let value = run.metrics.get(name).copied().unwrap_or_else(|| {
                    panic!("metric {name} was not measured");
                });
                let value = if value.is_finite() { value } else { 0.0 };
                (
                    name.to_string(),
                    Json::Object(vec![
                        ("value".into(), Json::F64(value)),
                        ("unit".into(), Json::str(*unit)),
                    ]),
                )
            })
            .collect()
    });
    Json::Object(vec![
        ("correct".into(), Json::Bool(correct)),
        (
            "attempted".into(),
            Json::U64(run.map_or(1, |r| r.attempted.max(1))),
        ),
        ("failed".into(), Json::U64(run.map_or(0, |r| r.failed))),
        ("metrics".into(), Json::Object(metrics)),
    ])
}

fn main() {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out_dir = PathBuf::from("target").join("perfbench");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir.display());
    }
    let tag = format!(
        "{}-seed{}-trace{}",
        cfg.workload,
        cfg.seed,
        u8::from(cfg.trace)
    );
    let spans_file = out_dir.join(format!("{tag}.spans.jsonl"));
    let result = match (cfg.workload.as_str(), cfg.trace) {
        ("rules_magic", false) => end_to_end::<rules_magic::RulesMagic>(&cfg),
        ("rules_magic", true) => traced::<rules_magic::RulesMagic>(&cfg, &spans_file),
        ("served_mixed", false) => end_to_end::<served_mixed::ServedMixed>(&cfg),
        ("served_mixed", true) => traced::<served_mixed::ServedMixed>(&cfg, &spans_file),
        (other, _) => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    let catalogue: &[(&str, &str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    let (line, code) = match &result {
        Ok(run) => (result_json(true, Some(run), catalogue), 0),
        Err(Abort(why)) => {
            eprintln!("perfbench: run aborted: {why}");
            (result_json(false, None, catalogue), 1)
        }
    };
    if let Ok(run) = &result {
        let mut summary = vec![("result".to_string(), line.clone())];
        summary.extend(run.detail.iter().cloned());
        let path = out_dir.join(format!("{tag}.json"));
        if let Err(e) = std::fs::write(&path, Json::Object(summary).to_string()) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    println!("{line}");
    std::process::exit(code);
}
