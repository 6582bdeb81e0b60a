//! `rules_magic`: many rules, little data, every query a fresh magic-sets
//! fixpoint, in process.
//!
//! One durable session holds small seeded cycles under the §2.1 path
//! rules plus a scaled Example 3 noun-phrase grammar. Each op writes one
//! small fact to a scratch relation (two loads, then one retract of both,
//! in turn) and then asks one `Magic` query with a bound argument that no
//! earlier op used: a path query from a cycle node, or (every fourth op)
//! a noun-phrase query over an agreeing determiner/noun pair. The distinct
//! keys and the per-op epoch bump keep the answer cache from ever hitting,
//! so each query pays the rewrite and a fresh fixpoint whose per-round
//! fixed cost dominates: few answers, many rule activations per round.

use crate::gen::{self, Grammar, Graph, Rng};
use crate::measure::{copy_store, ms, Abort, CountingStorage, Outcome};
use crate::{
    answer_rows, check_np_rows, check_path_rows, fixpoint_options, fo_rows, session_options, Rows,
    Workload,
};
use clogic::core::fol::{FoAtom, FoTerm};
use clogic::core::transform::Transformer;
use clogic::folog::builtins::builtin_symbols;
use clogic::folog::magic::magic_transform;
use clogic::folog::{self, CompiledProgram, Strategy as Fixpoint};
use clogic::obs::{MetricsSnapshot, Obs, Tracer};
use clogic::parser::{parse_query, parse_source};
use clogic::{Session, Strategy};
use std::collections::BTreeSet;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Cycles and their length: 8 × 5 = 40 distinct path-query sources.
pub const CYCLES: usize = 8;
pub const CYCLE_LEN: usize = 5;
/// Grammar size: determiners, nouns, proper names.
pub const GRAMMAR: (usize, usize, usize) = (8, 8, 4);

enum Key {
    Path(String),
    Np(usize, usize),
}

pub struct RulesMagic {
    session: Session,
    store: CountingStorage,
    graph: Graph,
    grammar: Grammar,
    /// Path-query sources and agreeing (determiner, noun) pairs, each in
    /// seeded order; ops walk them round-robin.
    sources: Vec<String>,
    pairs: Vec<(usize, usize)>,
    op: usize,
    obs: Obs,
}

impl RulesMagic {
    /// The write and the query of op `k` (counting from 1).
    fn op_plan(&self, k: usize) -> (bool, String, Key) {
        let fact = |j: usize| gen::edge_fact(&format!("zs{j}"), &format!("zt{j}"));
        let (retract, write) = match k % 3 {
            0 => (true, format!("{}\n{}", fact(k - 2), fact(k - 1))),
            _ => (false, fact(k)),
        };
        let key = if k % 4 == 3 {
            let (d, n) = self.pairs[(k / 4) % self.pairs.len()];
            Key::Np(d, n)
        } else {
            Key::Path(self.sources[(k - k / 4) % self.sources.len()].clone())
        };
        (retract, write, key)
    }

    fn query_text(&self, key: &Key) -> String {
        match key {
            Key::Path(src) => gen::path_query(src),
            Key::Np(d, n) => self.grammar.np_query(*d, *n).0,
        }
    }

    fn check(&self, key: &Key, rows: &Rows) -> Result<(), Abort> {
        match key {
            Key::Path(src) => check_path_rows(rows, &self.graph.reachable(src), src),
            Key::Np(d, n) => check_np_rows(rows, &self.grammar.np_query(*d, *n).1),
        }
    }
}

impl Workload for RulesMagic {
    const RECOVERY_PROBES: usize = 12;

    fn setup(seed: u64) -> RulesMagic {
        let mut rng = Rng::new(seed, 1);
        let (graph, mut sources) = gen::cycles(&mut rng, "n", CYCLES, CYCLE_LEN);
        let (d, n, p) = GRAMMAR;
        let grammar = Grammar::generate(&mut rng, d, n, p);
        rng.shuffle(&mut sources);
        let mut pairs: Vec<(usize, usize)> = (0..d)
            .flat_map(|i| (0..n).map(move |j| (i, j)))
            .filter(|&(i, j)| grammar.np_query(i, j).1.is_some())
            .collect();
        rng.shuffle(&mut pairs);
        let store = CountingStorage::default();
        let obs = Obs::new();
        let (mut session, _) =
            Session::recover_from(Box::new(store.clone()), session_options(obs.clone()))
                .expect("open an empty in-memory store");
        let text = format!("{}{}{}", graph.facts(), gen::PATH_RULES, grammar.source());
        session.load(&text).expect("program loads");
        // The translation every Magic query starts from; later writes
        // extend it incrementally.
        session.translated();
        RulesMagic {
            session,
            store,
            graph,
            grammar,
            sources,
            pairs,
            op: 0,
            obs,
        }
    }

    /// A query on a key the op stream asks again only after an epoch
    /// bump, so it never turns into a cache hit.
    fn warm_up(&mut self) -> Result<(), Abort> {
        let key = Key::Path(self.sources[0].clone());
        let q = self.query_text(&key);
        let a = self
            .session
            .query(&q, Strategy::Magic)
            .map_err(|e| Abort(format!("warm-up query: {e}")))?;
        self.check(&key, &answer_rows(&a))
    }

    fn run_ops(&mut self, until: Instant, tracer: &Tracer) -> Result<Outcome, Abort> {
        let mut out = Outcome::default();
        let started = Instant::now();
        while Instant::now() < until {
            self.op += 1;
            let (retract, write, key) = self.op_plan(self.op);
            let q = self.query_text(&key);
            out.attempted += 1;
            let op = tracer.span("op");
            let t0 = Instant::now();
            let written = {
                let _s = op.child("session.write");
                if retract {
                    self.session.retract(&write)
                } else {
                    self.session.load(&write)
                }
            };
            let t1 = Instant::now();
            let answered = {
                let _s = op.child("session.query");
                self.session.query(&q, Strategy::Magic)
            };
            let t2 = Instant::now();
            drop(op);
            match (written, answered) {
                (Ok(()), Ok(a)) if a.complete => {
                    self.check(&key, &answer_rows(&a))?;
                    out.updates.push(ms(t1 - t0));
                    out.queries.push(ms(t2 - t1));
                    out.ops.push(ms(t2 - t0));
                    out.write_bytes += write.len() as u64;
                }
                _ => out.failed += 1,
            }
        }
        out.elapsed_s = started.elapsed().as_secs_f64();
        Ok(out)
    }

    fn recover(&mut self, tracer: &Tracer) -> Result<f64, Abort> {
        // The next op's key, without taking the op's turn in the
        // write pattern.
        let (_, _, key) = self.op_plan(self.op + 1);
        let q = self.query_text(&key);
        let store = copy_store(&self.store.inner);
        let op = tracer.span("probe");
        let t0 = Instant::now();
        let recovered = {
            let _s = op.child("store.recover");
            Session::recover_from(Box::new(store), session_options(Obs::new()))
        };
        let (mut session, _) = recovered.map_err(|e| Abort(format!("recovery failed: {e}")))?;
        let answers = {
            let _s = op.child("session.query");
            session.query(&q, Strategy::Magic)
        };
        let took = ms(t0.elapsed());
        drop(op);
        let answers = answers.map_err(|e| Abort(format!("query after recovery: {e}")))?;
        self.check(&key, &answer_rows(&answers))?;
        Ok(took)
    }

    fn metrics(&self) -> MetricsSnapshot {
        self.obs.metrics.snapshot()
    }

    fn wal_bytes(&self) -> u64 {
        self.store.wal_bytes.load(Ordering::Relaxed)
    }

    /// One op through the layer entry points `Strategy::Magic` calls:
    /// the write, the session's incremental translation, the query's
    /// parse and translation, the magic rewrite, compile, the fixpoint,
    /// and the answer relation's read-out.
    fn replay(&mut self, until: Instant, tracer: &Tracer) -> Result<Outcome, Abort> {
        let mut out = Outcome::default();
        let builtins: BTreeSet<_> = builtin_symbols().collect();
        let fixpoint = fixpoint_options(Fixpoint::SemiNaive);
        while Instant::now() < until {
            self.op += 1;
            let (retract, write, key) = self.op_plan(self.op);
            let q = self.query_text(&key);
            let op = tracer.span("op");
            {
                let _s = op.child("parser");
                parse_source(&write).expect("write parses");
            }
            let written = {
                let _s = op.child("session.write");
                if retract {
                    self.session.retract(&write)
                } else {
                    self.session.load(&write)
                }
            };
            out.attempted += 1;
            if written.is_err() {
                out.failed += 1;
                continue;
            }
            let query = {
                let _s = op.child("parser");
                parse_query(&q).expect("query parses")
            };
            // A load leaves its delta translation to the next read of the
            // program; a retract re-translates inside `Session::retract`
            // (booked under `session.write`), so only loads get this span.
            let fo = {
                let _s = (!retract).then(|| op.child("core.optimize"));
                self.session.translated()
            };
            let goals = {
                let _s = op.child("core.translate");
                Transformer::new().query(&query)
            };
            let mp = {
                let _s = op.child("folog.magic.rewrite");
                magic_transform(fo, &goals, &builtins)
            };
            let cp = {
                let _s = op.child("folog.compile");
                CompiledProgram::compile(&mp.program, builtins.iter().copied())
            };
            let ev = {
                let _s = op.child("folog.fixpoint");
                folog::evaluate(&cp, fixpoint.clone()).expect("fixpoint runs")
            };
            let rows = {
                let _s = op.child("folog.match");
                let vars = mp.query_vars.iter().map(|&v| FoTerm::Var(v)).collect();
                ev.query(&[FoAtom::new(mp.answer_pred, vars)])
            };
            drop(op);
            if ev.complete {
                self.check(&key, &fo_rows(&rows))?;
            } else {
                out.failed += 1;
            }
        }
        Ok(out)
    }
}
