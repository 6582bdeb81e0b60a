//! `served_mixed`: reads and writes over TCP against one durable tenant.
//!
//! A `SessionManager` holds one tenant on in-memory storage (no device
//! flush) behind a `TcpFront`; one client connection runs a closed loop
//! (it sends its next request when the previous one is answered). The
//! tenant holds E1 functional objects plus a small path graph. One op in
//! ten is a write (load one new object and retract it, twice, then load
//! one new edge on the client's own scratch chain and retract it), and
//! the op after each write reads the written key back, so the oracle can
//! demand that the read sees the write. The other ops are reads: `Direct`
//! point queries on objects and `BottomUpSemiNaive` path queries, with a
//! share drawn from a small hot set so some repeat within an epoch. This
//! is the only workload that runs `serve::net`, admission, snapshot
//! pinning and the answer cache, the store's WAL, `Session::prepare` and
//! DRed. The whole process runs on one CPU (see `pin_to_one_cpu`).

use crate::gen::{self, Graph, Objects, Rng};
use crate::measure::{ms, Abort, CountingStorage, Outcome};
use crate::{check_path_rows, check_point_rows, session_options, Rows, Workload};
use clogic::engine::{DirectEngine, DirectOptions, DirectProgram};
use clogic::folog::builtins::builtin_symbols;
use clogic::obs::{Json, MetricsSnapshot, Obs, Span, Tracer};
use clogic::parser::{parse_query, parse_source};
use clogic::store::Storage;
use clogic::Strategy;
use clogic_serve::protocol::{decode_frame, encode_frame, get, Response};
use clogic_serve::{
    Client, ManagerOptions, Request, RequestOp, SessionManager, StorageFactory, TcpFront,
    TcpFrontOptions,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const OBJECTS: usize = 500;
pub const LABELS: usize = 3;
pub const VALUE_POOL: usize = 50;
pub const CHAIN_LENGTHS: [usize; 4] = [8; 4];
/// Front-end worker threads: one, as one closed-loop client never has more
/// than one request in flight. Latency is the same with more, but each
/// extra worker's malloc arena keeps a different share of the transient
/// memory of the requests it happened to serve: with the default four,
/// `peak_rss_mb` ranged 26-31 MB over ten seeds (spread 0.098 against its
/// 0.1 bound); with one, 16.0-16.5 MB.
pub const WORKERS: usize = 1;
/// Every tenth op of a client is a write.
pub const WRITE_EVERY: u64 = 10;
/// Keys in the hot set, and the share of reads (in tenths) drawn from it.
const HOT: usize = 16;
const HOT_TENTHS: usize = 3;
const TENANT: &str = "t";

/// The static part of the tenant, which no client ever writes to.
struct Data {
    objects: Objects,
    graph: Graph,
    sources: Vec<String>,
}

/// What a client does next, and what the oracle expects of it.
enum Planned {
    Write {
        src: String,
        retract: bool,
    },
    Point {
        id: String,
        expect: Option<Vec<String>>,
    },
    Path {
        src: String,
        expect: BTreeSet<String>,
    },
}

impl Planned {
    fn request(&self) -> Request {
        let op = match self {
            Planned::Write {
                src,
                retract: false,
            } => RequestOp::Load { src: src.clone() },
            Planned::Write { src, retract: true } => RequestOp::Retract { src: src.clone() },
            Planned::Point { id, .. } => RequestOp::Query {
                src: gen::point_query(id, LABELS),
                strategy: Strategy::Direct,
                deadline_ms: None,
            },
            Planned::Path { src, .. } => RequestOp::Query {
                src: gen::path_query(src),
                strategy: Strategy::BottomUpSemiNaive,
                deadline_ms: None,
            },
        };
        Request {
            tenant: TENANT.to_string(),
            op,
        }
    }

    fn check(&self, rows: &Rows) -> Result<(), Abort> {
        match self {
            Planned::Write { .. } => Ok(()),
            Planned::Point { expect, .. } => check_point_rows(rows, expect.as_deref()),
            Planned::Path { src, expect } => check_path_rows(rows, expect, src),
        }
    }
}

enum Pending {
    LoadObject(String, Vec<String>),
    RetractObject,
    LoadEdge(String),
    RetractEdge,
}

/// One client's connection, op schedule and private oracle state.
struct ClientState {
    id: usize,
    conn: Client,
    rng: Rng,
    /// Ops sent so far.
    k: u64,
    /// Writes sent so far.
    writes: u64,
    /// The object this client loaded (or is loading) and has not yet
    /// retracted.
    object: Option<(String, Vec<String>)>,
    /// The client's scratch chain `a → b → c`, plus the edge it loaded
    /// past `c` and has not yet retracted.
    scratch: Graph,
    chain: [String; 3],
    tail: Option<String>,
    /// The write in flight, applied to the oracle when acknowledged.
    pending: Option<Pending>,
    /// The read that must see the last acknowledged write.
    verify: Option<Planned>,
}

impl ClientState {
    fn new(addr: std::net::SocketAddr, id: usize, seed: u64) -> ClientState {
        let chain = [0, 1, 2].map(|i| format!("c{id}s{i}"));
        let mut scratch = Graph::default();
        scratch.add_chain(&chain);
        ClientState {
            id,
            conn: Client::connect_timeout(addr, Duration::from_secs(60)).expect("connect"),
            rng: Rng::new(seed, 100 + id as u64),
            k: 0,
            writes: 0,
            object: None,
            scratch,
            chain,
            tail: None,
            pending: None,
            verify: None,
        }
    }

    fn next(&mut self, data: &Data) -> Planned {
        self.k += 1;
        if self.k.is_multiple_of(WRITE_EVERY) {
            self.writes += 1;
            return self.next_write();
        }
        if let Some(v) = self.verify.take() {
            return v;
        }
        let hot = self.rng.below(10) < HOT_TENTHS;
        if self.rng.below(2) == 0 {
            let ids = &data.objects.ids;
            let id = ids[self.rng.below(if hot { HOT } else { ids.len() })].clone();
            let expect = Some(data.objects.values[&id].clone());
            Planned::Point { id, expect }
        } else {
            let n = data.sources.len();
            let src = data.sources[self.rng.below(if hot { HOT.min(n) } else { n })].clone();
            let expect = data.graph.reachable(&src);
            Planned::Path { src, expect }
        }
    }

    /// The next write: retract what this client loaded last, or else load
    /// something new, twice an object for every edge. Two write kinds in
    /// four equal shares would put the update median on the edge between
    /// two latency modes; this mix keeps it inside the object-retract
    /// mode. The oracle state changes only when the write is acknowledged
    /// (`ack`).
    fn next_write(&mut self) -> Planned {
        let n = self.writes;
        let (pending, src, retract) = if let Some((id, values)) = &self.object {
            (Pending::RetractObject, gen::object_fact(id, values), true)
        } else if let Some(to) = &self.tail {
            (
                Pending::RetractEdge,
                gen::edge_fact(&self.chain[2], to),
                true,
            )
        } else if n % 6 != 5 {
            let id = format!("w{}x{n}", self.id);
            let values = gen::random_values(&mut self.rng, LABELS, VALUE_POOL);
            let fact = gen::object_fact(&id, &values);
            (Pending::LoadObject(id, values), fact, false)
        } else {
            let to = format!("x{}y{n}", self.id);
            let fact = gen::edge_fact(&self.chain[2], &to);
            (Pending::LoadEdge(to), fact, false)
        };
        self.pending = Some(pending);
        Planned::Write { src, retract }
    }

    /// Applies the acknowledged write to the oracle and schedules the read
    /// that must see it.
    fn ack(&mut self) {
        let c = self.chain[2].clone();
        match self.pending.take().expect("a write was planned") {
            Pending::LoadObject(id, values) => {
                self.object = Some((id.clone(), values.clone()));
                self.verify = Some(Planned::Point {
                    id,
                    expect: Some(values),
                });
                return;
            }
            Pending::RetractObject => {
                let (id, _) = self.object.take().expect("an object was loaded");
                self.verify = Some(Planned::Point { id, expect: None });
                return;
            }
            Pending::LoadEdge(to) => {
                self.scratch.add(&c, &to);
                self.tail = Some(to);
            }
            Pending::RetractEdge => {
                let to = self.tail.take().expect("an edge was loaded");
                self.scratch.remove(&c, &to);
            }
        }
        self.verify = Some(Planned::Path {
            src: self.chain[0].clone(),
            expect: self.scratch.reachable(&self.chain[0]),
        });
    }

    /// One op over the wire, recorded in `out`.
    fn step(&mut self, data: &Data, tracer: &Tracer, out: &mut Outcome) -> Result<(), Abort> {
        let planned = self.next(data);
        let req = planned.request();
        out.attempted += 1;
        let op = tracer.span("op");
        let t0 = Instant::now();
        let resp = {
            let _s = op.child("net.request");
            self.conn.request(&req)
        };
        let took = ms(t0.elapsed());
        drop(op);
        let Some(rows) = answered(resp) else {
            // A refused write leaves the oracle as it was.
            out.failed += 1;
            self.pending = None;
            return Ok(());
        };
        planned.check(&rows)?;
        out.ops.push(took);
        if let Planned::Write { src, .. } = &planned {
            out.updates.push(took);
            out.write_bytes += src.len() as u64;
            self.ack();
        } else {
            out.queries.push(took);
        }
        Ok(())
    }
}

/// The rows of a successful, complete response (`Some(vec![])` for a
/// write acknowledgement); `None` when the op errored, was shed or
/// refused, or came back incomplete.
fn answered(resp: Result<Json, String>) -> Option<Rows> {
    let resp = resp.ok()?;
    if get(&resp, "ok") != Some(&Json::Bool(true)) {
        return None;
    }
    let Some(Json::Array(rows)) = get(&resp, "rows") else {
        return get(&resp, "epoch").map(|_| Vec::new());
    };
    if get(&resp, "complete") != Some(&Json::Bool(true)) {
        return None;
    }
    rows.iter()
        .map(|row| match row {
            Json::Object(fields) => fields
                .iter()
                .map(|(k, v)| match v {
                    Json::Str(s) => Some((k.clone(), s.clone())),
                    _ => None,
                })
                .collect::<Option<BTreeMap<_, _>>>(),
            _ => None,
        })
        .collect()
}

pub struct ServedMixed {
    data: Data,
    client: ClientState,
    store: CountingStorage,
    /// Declared before the manager so the front shuts down (draining and
    /// joining its threads) while the manager is still alive.
    _front: TcpFront,
    manager: Arc<SessionManager>,
}

impl Workload for ServedMixed {
    const RECOVERY_PROBES: usize = 20;

    fn setup(seed: u64) -> ServedMixed {
        pin_to_one_cpu();
        let mut rng = Rng::new(seed, 1);
        let objects = Objects::generate(&mut rng, "o", OBJECTS, LABELS, VALUE_POOL);
        let (graph, chains) = gen::chains(&mut rng, "n", &CHAIN_LENGTHS);
        let mut sources: Vec<String> = chains
            .iter()
            .flat_map(|c| c[..c.len() - 1].iter().cloned())
            .collect();
        rng.shuffle(&mut sources);
        let client_id = 0;
        let scratch = scratch_chain(client_id);
        let text = format!(
            "{}{}{}{}",
            objects.facts(),
            graph.facts(),
            scratch,
            gen::PATH_RULES
        );
        let store = CountingStorage::default();
        let factory: StorageFactory = {
            let store = store.clone();
            Arc::new(move |_tenant: &str| Ok(Box::new(store.clone()) as Box<dyn Storage>))
        };
        let manager = Arc::new(SessionManager::new(
            factory,
            ManagerOptions {
                session: session_options(Obs::new()),
                ..ManagerOptions::default()
            },
        ));
        manager.load(TENANT, &text).expect("tenant loads");
        let front = TcpFront::start(
            Arc::clone(&manager),
            "127.0.0.1:0",
            TcpFrontOptions {
                workers: WORKERS,
                ..TcpFrontOptions::default()
            },
        )
        .expect("bind a loopback port");
        let client = ClientState::new(front.addr(), client_id, seed);
        ServedMixed {
            data: Data {
                objects,
                graph,
                sources,
            },
            client,
            store,
            _front: front,
            manager,
        }
    }

    fn run_ops(&mut self, until: Instant, tracer: &Tracer) -> Result<Outcome, Abort> {
        let started = Instant::now();
        let mut out = Outcome::default();
        while Instant::now() < until {
            self.client.step(&self.data, tracer, &mut out)?;
        }
        out.elapsed_s = started.elapsed().as_secs_f64();
        Ok(out)
    }

    fn recover(&mut self, tracer: &Tracer) -> Result<f64, Abort> {
        let c = &mut self.client;
        let i = c.rng.below(self.data.objects.ids.len());
        let id = self.data.objects.ids[i].clone();
        let planned = Planned::Point {
            expect: Some(self.data.objects.values[&id].clone()),
            id,
        };
        let op = tracer.span("probe");
        let t0 = Instant::now();
        {
            // Eviction compacts the store (writes a snapshot) first.
            let _s = op.child("manager.evict");
            if !self.manager.evict(TENANT).unwrap_or(false) {
                return Err(Abort("the idle tenant refused eviction".to_string()));
            }
        }
        if tracer.is_enabled() {
            // Traced probes split recovery (replay of snapshot and WAL on
            // open) from the prepare the first query escalates to.
            let handle = {
                let _s = op.child("store.recover");
                self.manager.open(TENANT)
            }
            .map_err(|e| Abort(e.to_string()))?;
            let mut session = handle.lock().expect("session lock");
            let _p = op.child("session.prepare");
            session.prepare().map_err(|e| Abort(e.to_string()))?;
        }
        let resp = {
            let _s = op.child("net.request");
            c.conn.request(&planned.request())
        };
        let took = ms(t0.elapsed());
        drop(op);
        let rows = answered(resp).ok_or_else(|| Abort("query after recovery failed".into()))?;
        planned.check(&rows)?;
        Ok(took)
    }

    fn metrics(&self) -> MetricsSnapshot {
        self.manager.obs().metrics.snapshot()
    }

    fn counter_prefix(&self) -> &'static str {
        "tenant.t."
    }

    fn wal_bytes(&self) -> u64 {
        self.store.wal_bytes.load(Ordering::Relaxed)
    }

    /// The client's op stream, one op at a time, through the layer entry
    /// points: the protocol codec on both sides, the parser, the direct
    /// engine, `SessionManager::query` in process (first filling, then
    /// hitting the snapshot's answer cache), the wire round trip, and for
    /// writes the tenant session's load or retract and its prepare.
    fn replay(&mut self, until: Instant, tracer: &Tracer) -> Result<Outcome, Abort> {
        let (data, manager, c) = (&self.data, &*self.manager, &mut self.client);
        let mut direct = direct_program(manager)?;
        let mut out = Outcome::default();
        while Instant::now() < until {
            let planned = c.next(data);
            out.attempted += 1;
            let req = planned.request();
            let op = tracer.span("op");
            {
                let _s = op.child("net.codec");
                let mut buf = encode_frame(&req.render_json());
                let payload = decode_frame(&mut buf).expect("frame").expect("whole frame");
                clogic_serve::Request::parse(&payload).expect("request parses");
            }
            let answered = match &planned {
                Planned::Write { src, retract } => {
                    replay_write(manager, &mut direct, src, *retract, &op).map(|_| Vec::new())
                }
                _ => replay_read(manager, &direct, &mut c.conn, &req, &op),
            };
            drop(op);
            match answered {
                Some(rows) => {
                    planned.check(&rows)?;
                    if matches!(planned, Planned::Write { .. }) {
                        c.ack();
                    }
                }
                None => {
                    out.failed += 1;
                    c.pending = None;
                }
            }
        }
        Ok(out)
    }
}

/// One replayed write: parse, the tenant session's load or retract, its
/// prepare, the direct engine's recompile, and the response encode.
/// `None` when the program refused it.
fn replay_write(
    manager: &SessionManager,
    direct: &mut DirectProgram,
    src: &str,
    retract: bool,
    op: &Span,
) -> Option<()> {
    {
        let _s = op.child("parser");
        parse_source(src).ok()?;
    }
    let handle = manager.open(TENANT).ok()?;
    let mut session = handle.lock().expect("session lock");
    {
        let _s = op.child("session.write");
        if retract {
            session.retract(src).ok()?;
        } else {
            session.load(src).ok()?;
        }
    }
    {
        let _s = op.child("session.prepare");
        session.prepare().ok()?;
    }
    {
        let _s = op.child("engine.compile");
        *direct = DirectProgram::compile(session.program(), builtin_symbols());
    }
    let _s = op.child("net.codec");
    let resp = Response::Loaded {
        epoch: session.epoch(),
        persisted: true,
        breaker_open: false,
    };
    std::hint::black_box(encode_frame(&resp.render_json()));
    Some(())
}

/// One replayed read: parse, the direct engine (for `Direct` reads), the
/// in-process query that fills the answer cache, the response encode, the
/// wire round trip, and the in-process query that hits the cache. Returns
/// the wire answer's rows; `None` when the program refused the read.
fn replay_read(
    manager: &SessionManager,
    direct: &DirectProgram,
    conn: &mut Client,
    req: &Request,
    op: &Span,
) -> Option<Rows> {
    let RequestOp::Query { src, strategy, .. } = &req.op else {
        unreachable!("reads are queries")
    };
    let query = {
        let _s = op.child("parser");
        parse_query(src).ok()?
    };
    if *strategy == Strategy::Direct {
        let _s = op.child("engine.direct");
        DirectEngine::new(direct, DirectOptions::default())
            .solve(&query)
            .ok()?;
    }
    let answers = {
        let _s = op.child("serve.query");
        manager.query(TENANT, src, *strategy).ok()?
    };
    {
        let _s = op.child("net.codec");
        std::hint::black_box(encode_frame(
            &Response::from_answers(&answers).render_json(),
        ));
    }
    let resp = {
        let _s = op.child("net.round_trip");
        conn.request(req)
    };
    {
        let _s = op.child("serve.query_hit");
        manager.query(TENANT, src, *strategy).ok()?;
    }
    answered(resp)
}

/// Pins the calling thread, and so every thread it starts afterwards (the
/// front end's accept loop and workers), to the first CPU it may run on.
/// Each request hands off from the client to the accept loop to a worker
/// and back; spread over two virtual CPUs, every hand-off can wait for
/// the host to wake an idle one. In busy host phases that tripled the
/// read p90 of unpinned runs (1.5 → 3.3 ms) while pinned runs held 1.4–1.6
/// ms, at the cost of writes sharing their CPU with the accept loop.
fn pin_to_one_cpu() {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // A glibc `cpu_set_t`: 1024 bits, CPU i at bit i % 64 of word i / 64.
    let mut allowed = [0u64; 16];
    let size = std::mem::size_of_val(&allowed);
    // SAFETY: `allowed` is a writable buffer of exactly `size` bytes that
    // outlives the call, and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
        return;
    }
    let Some(word) = allowed.iter().position(|&w| w != 0) else {
        return;
    };
    let mut one = [0u64; 16];
    one[word] = 1 << allowed[word].trailing_zeros();
    // SAFETY: `one` is a readable buffer of exactly `size` bytes that
    // outlives the call, and pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        eprintln!("perfbench: could not pin to one CPU; served latencies will vary more");
    }
}

/// Client `id`'s scratch chain `c{id}s0 → c{id}s1 → c{id}s2`.
fn scratch_chain(id: usize) -> String {
    let mut g = Graph::default();
    g.add_chain(&[0, 1, 2].map(|i| format!("c{id}s{i}")));
    g.facts()
}

/// The direct engine's program for the tenant's current clauses.
fn direct_program(manager: &SessionManager) -> Result<DirectProgram, Abort> {
    let handle = manager.open(TENANT).map_err(|e| Abort(e.to_string()))?;
    let session = handle.lock().expect("session lock");
    Ok(DirectProgram::compile(session.program(), builtin_symbols()))
}
