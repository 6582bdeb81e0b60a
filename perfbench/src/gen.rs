//! Seeded input generators and the reference answers the benchmark checks
//! the program against. Nothing here calls into the program: every
//! expected answer comes from the generator's own data (graph BFS, the
//! object → value map, the grammar's agreement table).

use std::collections::{BTreeMap, BTreeSet, HashMap};

/// A SplitMix64 generator: small, fast and fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one benchmark seed, so adding
    /// a stream never shifts the values another stream draws.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

/// `n` distinct constant names `{prefix}{id}` whose ids are a seeded
/// permutation of `0..n`: the seed changes which name sits where, not how
/// many names there are or how long they are.
pub fn names(rng: &mut Rng, prefix: &str, n: usize) -> Vec<String> {
    let mut ids: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut ids);
    ids.into_iter().map(|i| format!("{prefix}{i}")).collect()
}

/// The §2.1 path rules, identities by endpoints (`id(X, Y)`).
pub const PATH_RULES: &str = "\
path: id(X, Y)[src => X, dest => Y] :- node: X[linkto => Y].
path: id(X, Y)[src => X, dest => Y] :- node: X[linkto => Z], path: id(Z, Y)[src => Z, dest => Y].
";

/// The query for every path that starts at `src`.
pub fn path_query(src: &str) -> String {
    format!("path: P[src => {src}, dest => Y]")
}

/// A directed graph of `node: X[linkto => Y]` facts, with its own
/// reachability oracle.
#[derive(Clone, Default)]
pub struct Graph {
    succ: BTreeMap<String, BTreeSet<String>>,
}

impl Graph {
    pub fn add(&mut self, from: &str, to: &str) {
        self.succ
            .entry(from.to_string())
            .or_default()
            .insert(to.to_string());
    }

    pub fn remove(&mut self, from: &str, to: &str) {
        if let Some(s) = self.succ.get_mut(from) {
            s.remove(to);
        }
    }

    /// Appends `len` edges `names[0] → names[1] → …` to the graph.
    pub fn add_chain(&mut self, names: &[String]) {
        for w in names.windows(2) {
            self.add(&w[0], &w[1]);
        }
    }

    /// Every node reachable from `src` in one or more steps (BFS).
    pub fn reachable(&self, src: &str) -> BTreeSet<String> {
        let mut seen = BTreeSet::new();
        let mut frontier = vec![src.to_string()];
        while let Some(n) = frontier.pop() {
            for m in self.succ.get(&n).into_iter().flatten() {
                if seen.insert(m.clone()) {
                    frontier.push(m.clone());
                }
            }
        }
        seen
    }

    /// The graph as program text.
    pub fn facts(&self) -> String {
        let mut out = String::new();
        for (from, tos) in &self.succ {
            for to in tos {
                out.push_str(&edge_fact(from, to));
                out.push('\n');
            }
        }
        out
    }
}

/// One `node: from[linkto => to].` fact.
pub fn edge_fact(from: &str, to: &str) -> String {
    format!("node: {from}[linkto => {to}].")
}

/// Disjoint chains with the given edge counts, in seeded order under
/// seeded node names. Returns the graph and each chain's node list.
pub fn chains(rng: &mut Rng, prefix: &str, lengths: &[usize]) -> (Graph, Vec<Vec<String>>) {
    let total: usize = lengths.iter().map(|l| l + 1).sum();
    let pool = names(rng, prefix, total);
    let mut order = lengths.to_vec();
    rng.shuffle(&mut order);
    let mut g = Graph::default();
    let mut out = Vec::new();
    let mut at = 0;
    for len in order {
        let nodes = pool[at..at + len + 1].to_vec();
        at += len + 1;
        g.add_chain(&nodes);
        out.push(nodes);
    }
    (g, out)
}

/// `count` disjoint cycles of `len` nodes each; every node of a cycle
/// reaches all `len` nodes of it, itself included.
pub fn cycles(rng: &mut Rng, prefix: &str, count: usize, len: usize) -> (Graph, Vec<String>) {
    let pool = names(rng, prefix, count * len);
    let mut g = Graph::default();
    for c in pool.chunks(len) {
        g.add_chain(c);
        g.add(&c[len - 1], &c[0]);
    }
    (g, pool)
}

/// The E1 workload: `item` objects with functional labels `l0..l{k-1}`,
/// each value drawn from a pool. The map is the point-query oracle.
pub struct Objects {
    pub values: HashMap<String, Vec<String>>,
    pub ids: Vec<String>,
}

impl Objects {
    pub fn generate(rng: &mut Rng, prefix: &str, n: usize, labels: usize, pool: usize) -> Objects {
        let ids = names(rng, prefix, n);
        let values = ids
            .iter()
            .map(|id| (id.clone(), random_values(rng, labels, pool)))
            .collect();
        Objects { values, ids }
    }

    pub fn facts(&self) -> String {
        let mut out = String::new();
        for id in &self.ids {
            out.push_str(&object_fact(id, &self.values[id]));
            out.push('\n');
        }
        out
    }
}

pub fn random_values(rng: &mut Rng, labels: usize, pool: usize) -> Vec<String> {
    (0..labels)
        .map(|_| format!("v{}", rng.below(pool)))
        .collect()
}

/// One `item: id[l0 => v, …].` fact.
pub fn object_fact(id: &str, values: &[String]) -> String {
    let specs: Vec<String> = values
        .iter()
        .enumerate()
        .map(|(j, v)| format!("l{j} => {v}"))
        .collect();
    format!("item: {id}[{}].", specs.join(", "))
}

/// The point query reading every label of `id` into `L0..L{k-1}`.
pub fn point_query(id: &str, labels: usize) -> String {
    let specs: Vec<String> = (0..labels).map(|j| format!("l{j} => L{j}")).collect();
    format!("item: {id}[{}]", specs.join(", "))
}

/// The paper's Example 3 noun-phrase grammar, scaled: determiners and
/// nouns carry a number, determiners a definiteness; a common noun phrase
/// `np(Det, Noun)` exists when the numbers agree.
pub struct Grammar {
    pub dets: Vec<(String, &'static str, &'static str)>,
    pub nouns: Vec<(String, &'static str)>,
    pub names: Vec<String>,
}

const NUMS: [&str; 2] = ["singular", "plural"];

impl Grammar {
    pub fn generate(rng: &mut Rng, dets: usize, nouns: usize, proper: usize) -> Grammar {
        let det_names = names(rng, "det", dets);
        let noun_names = names(rng, "noun", nouns);
        Grammar {
            dets: det_names
                .into_iter()
                .enumerate()
                .map(|(i, d)| {
                    let def = if i % 3 == 0 { "definite" } else { "indef" };
                    (d, NUMS[i % 2], def)
                })
                .collect(),
            nouns: noun_names
                .into_iter()
                .enumerate()
                .map(|(i, n)| (n, NUMS[(i / 2) % 2]))
                .collect(),
            names: names(rng, "name", proper),
        }
    }

    pub fn source(&self) -> String {
        let mut out = String::from("propernp < noun_phrase.\ncommonnp < noun_phrase.\n");
        for n in &self.names {
            out.push_str(&format!("name: {n}.\n"));
        }
        for (d, num, def) in &self.dets {
            out.push_str(&format!("determiner: {d}[num => {num}, def => {def}].\n"));
        }
        for (n, num) in &self.nouns {
            out.push_str(&format!("noun: {n}[num => {num}].\n"));
        }
        out.push_str(
            "propernp: X[pers => 3, num => singular, def => definite] :- name: X.\n\
             commonnp: np(Det, Noun)[pers => 3, num => N, def => D] :-\n    \
             determiner: Det[num => N, def => D], noun: Noun[num => N].\n",
        );
        out
    }

    /// The query for the noun phrase `np(det, noun)` and the reference
    /// answer: `Some((num, def))` when the phrase exists.
    pub fn np_query(&self, det: usize, noun: usize) -> (String, Option<(String, String)>) {
        let (d, dnum, def) = &self.dets[det];
        let (n, nnum) = &self.nouns[noun];
        let q = format!("noun_phrase: np({d}, {n})[num => N, def => D]");
        let expect = (dnum == nnum).then(|| (dnum.to_string(), def.to_string()));
        (q, expect)
    }
}
