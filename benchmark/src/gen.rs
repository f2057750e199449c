//! Seeded input generation: the database text and every request the
//! clients send. The service only ever sees what these functions produce.
//!
//! Schema (one database, `bench`):
//!
//! * `R0(a0, a1)`, `R1(a1, a2)`, `R2(a2, a3)`, `R3(a3, a4)` — chain
//!   relations over `0..nodes`;
//! * `E(src, dst)` — a directed graph over `0..graph_nodes` for the cyclic
//!   queries;
//! * `F(f)` — a small hot set; the subscribed view [`VIEW`] starts there.
//!
//! Writes go to `R0` and `R1` only, so `R2`, `R3`, `E` and `F` are never
//! written.

use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt::Write as _;

use crate::rng::Rng;
use crate::spec::{Sizing, Workload, DB};

/// The view every workload subscribes to (and the write probe maintains).
pub const VIEW: &str = "V(x0, x2) :- F(x0), R0(x0, x1), R1(x1, x2).";

/// The relations writes go to.
pub const WRITTEN: [&str; 2] = ["R0", "R1"];

/// The generated database.
#[derive(Debug, Clone)]
pub struct Data {
    /// Loader-format text, as the service receives it.
    pub text: String,
    /// Rows of `R0` and `R1`, the written relations (writes start here).
    pub written: [Vec<(i64, i64)>; 2],
    /// The hot set `F`.
    pub hot: Vec<i64>,
}

fn distinct_pairs(rng: &mut Rng, n: usize, dom: i64, loops: bool) -> Vec<(i64, i64)> {
    let mut seen = HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let p = (rng.below(dom as u64) as i64, rng.below(dom as u64) as i64);
        if (loops || p.0 != p.1) && seen.insert(p) {
            out.push(p);
        }
    }
    out
}

fn render(text: &mut String, header: &str, rows: &[(i64, i64)]) {
    text.push_str(header);
    text.push('\n');
    for (a, b) in rows {
        let _ = writeln!(text, "{a}, {b}");
    }
}

/// Values each hot node reaches through `R0` then `R1`.
const HOT_REACH: usize = 4;

/// For every start value of `first`, how many distinct values it reaches
/// through `first` then `second`.
fn two_hop_reach(first: &[(i64, i64)], second: &[(i64, i64)]) -> HashMap<i64, usize> {
    let mut succ: HashMap<i64, Vec<i64>> = HashMap::new();
    for &(a, b) in second {
        succ.entry(a).or_default().push(b);
    }
    let mut reached: HashMap<i64, HashSet<i64>> = HashMap::new();
    for &(a, b) in first {
        let set = reached.entry(a).or_default();
        set.extend(succ.get(&b).into_iter().flatten().copied());
    }
    reached.into_iter().map(|(a, set)| (a, set.len())).collect()
}

/// Generate the database for `sizing` from `seed`.
pub fn data(s: &Sizing, seed: u64) -> Data {
    let mut rng = Rng::new(seed, 1);
    let chains: Vec<Vec<(i64, i64)>> = (0..4)
        .map(|_| distinct_pairs(&mut rng, s.rows, s.nodes, true))
        .collect();
    let graph = distinct_pairs(&mut rng, s.rows, s.graph_nodes, false);
    let mut nodes: Vec<i64> = (0..s.nodes).collect();
    rng.shuffle(&mut nodes);
    // Hot nodes reach exactly HOT_REACH values through R0 then R1, so the
    // view starts with exactly hot_set × HOT_REACH rows whatever the seed.
    let reach = two_hop_reach(&chains[0], &chains[1]);
    let mut hot: Vec<i64> = nodes
        .iter()
        .copied()
        .filter(|n| reach.get(n) == Some(&HOT_REACH))
        .take(s.hot_set)
        .collect();
    for &n in &nodes {
        if hot.len() == s.hot_set {
            break;
        }
        if !hot.contains(&n) {
            hot.push(n);
        }
    }
    hot.sort_unstable();
    let mut text = String::new();
    for (i, rows) in chains.iter().enumerate() {
        render(&mut text, &format!("R{i}(a{i}, a{}):", i + 1), rows);
    }
    render(&mut text, "E(src, dst):", &graph);
    text.push_str("F(f):\n");
    for f in &hot {
        let _ = writeln!(text, "{f}");
    }
    Data {
        text,
        written: [chains[0].clone(), chains[1].clone()],
        hot,
    }
}

/// One generated query request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryOp {
    /// The full wire line (`QUERY [@count] bench <cq>`).
    pub line: String,
    /// Which template or pool class produced it.
    pub kind: usize,
}

/// One generated one-row write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteOp {
    /// `INSERT` when true, `DELETE` otherwise.
    pub insert: bool,
    /// `R0` or `R1`.
    pub relation: &'static str,
    /// The row.
    pub row: (i64, i64),
}

impl WriteOp {
    /// The row as sent on the wire.
    pub fn row_text(&self) -> String {
        format!("{}, {}", self.row.0, self.row.1)
    }

    /// The full wire line.
    pub fn line(&self) -> String {
        let verb = if self.insert { "INSERT" } else { "DELETE" };
        format!("{verb} {DB} {} {}", self.relation, self.row_text())
    }
}

/// One operation of a client's stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// A `QUERY`.
    Query(QueryOp),
    /// An `INSERT` or `DELETE`.
    Write(WriteOp),
}

fn query_line(count: bool, cq: &str) -> String {
    if count {
        format!("QUERY @count {DB} {cq}")
    } else {
        format!("QUERY {DB} {cq}")
    }
}

/// Rename every variable (lowercase-initial identifier) of `cq` by
/// prefixing it: an alpha-renamed spelling of the same query.
pub fn alpha_rename(cq: &str, prefix: &str) -> String {
    let mut out = String::with_capacity(cq.len() + 16);
    let mut prev_ident = false;
    for ch in cq.chars() {
        let starts = ch.is_ascii_lowercase() && !prev_ident;
        if starts {
            out.push_str(prefix);
        }
        out.push(ch);
        prev_ident = ch.is_ascii_alphanumeric() || ch == '_';
    }
    out
}

// ---------------------------------------------------------- cold-analytic

/// The cold-analytic templates: `(cq with {c}, count?)`.
const COLD_TEMPLATES: [(&str, bool); 9] = [
    // yannakakis: chain from a selected start
    (
        "G(x1, x2, x3) :- R0({c}, x1), R1(x1, x2), R2(x2, x3).",
        false,
    ),
    // yannakakis: endpoint-projected chain into a selected end
    (
        "G(x0, x3) :- R0(x0, x1), R1(x1, x2), R2(x2, x3), R3(x3, {c}).",
        false,
    ),
    // hypertree width 2: triangle through a selected neighbourhood
    (
        "G(x, y, z) :- E(x, y), E(y, z), E(z, x), R0({c}, x).",
        false,
    ),
    // hypertree width 2: four-cycle
    (
        "G(x, y, z, w) :- E(x, y), E(y, z), E(z, w), E(w, x), R0({c}, x).",
        false,
    ),
    // deterministic colour coding: acyclic with a disequality
    (
        "G(x1, x3) :- R0({c}, x1), R1(x1, x2), R2(x2, x3), x1 != x3.",
        false,
    ),
    (
        "G(x0, x2) :- R0(x0, x1), R1(x1, x2), R2(x2, {c}), x0 != x2.",
        false,
    ),
    // naive backtracking: acyclic with an order comparison
    ("G(x1, x2) :- R0({c}, x1), R1(x1, x2), x1 < x2.", false),
    // pq-count sweeps: acyclic and width-2 counting without enumeration
    (
        "G(x0, x1, x2, x3) :- R0(x0, x1), R1(x1, x2), R2(x2, x3), R3(x3, {c}).",
        true,
    ),
    ("G(x, y, z) :- E(x, y), E(y, z), E(z, x), R0({c}, x).", true),
];

fn instantiate(template: &str, c: i64) -> String {
    template.replace("{c}", &c.to_string())
}

fn with_atom(cq: &str, atom: &str) -> String {
    let body = cq.strip_suffix('.').expect("templates end with a period");
    format!("{body}, {atom}.")
}

/// The distinct query texts a workload can send.
pub fn pool_size(w: Workload, s: &Sizing) -> usize {
    match w {
        Workload::ColdAnalytic => COLD_TEMPLATES.len() * s.nodes as usize,
        Workload::MixedWrite => MixedPool::new(&data_constants(s, 0)).entries.len(),
    }
}

/// The cold-analytic request stream: every block of nine requests holds
/// each template once, in a seeded order, and each template walks its own
/// seeded permutation of the constants, so no text repeats before
/// `nodes` blocks.
#[derive(Debug, Clone)]
pub struct ColdStream {
    rng: Rng,
    constants: Vec<Vec<i64>>,
    next: Vec<usize>,
    block: Vec<usize>,
}

impl ColdStream {
    /// The stream for `seed`.
    pub fn new(s: &Sizing, seed: u64) -> ColdStream {
        let mut rng = Rng::new(seed, 2);
        let constants = (0..COLD_TEMPLATES.len())
            .map(|_| {
                let mut c: Vec<i64> = (0..s.nodes).collect();
                rng.shuffle(&mut c);
                c
            })
            .collect();
        ColdStream {
            rng,
            constants,
            next: vec![0; COLD_TEMPLATES.len()],
            block: Vec::new(),
        }
    }
}

impl Iterator for ColdStream {
    type Item = QueryOp;

    fn next(&mut self) -> Option<QueryOp> {
        if self.block.is_empty() {
            self.block = (0..COLD_TEMPLATES.len()).collect();
            self.rng.shuffle(&mut self.block);
        }
        let t = self.block.pop().expect("refilled above");
        let consts = &self.constants[t];
        let c = consts[self.next[t] % consts.len()];
        self.next[t] += 1;
        let (template, count) = COLD_TEMPLATES[t];
        Some(QueryOp {
            line: query_line(count, &instantiate(template, c)),
            kind: t,
        })
    }
}

// ------------------------------------------------------------ writes

/// Rows a relation's inserts stay ahead of its deletes.
const WRITE_LAG: usize = 8;

/// Seeded one-row writes to `R0`/`R1`: inserts and deletes alternate, and
/// of every four insert/delete pairs three go to `R0` and one to `R1`
/// (maintaining the view costs far more for an `R1` change, so the split
/// keeps the write median inside the `R0` population). Every insert
/// touches the subscribed view's neighbourhood: an `R0` row starts at a hot
/// node, an `R1` row at an `R0` successor of one, so most writes change the
/// view. A delete removes the oldest row the writes inserted into that
/// relation once [`WRITE_LAG`] are pending, so the database and the view
/// stay near their generated size instead of drifting with the seed.
/// Every insert is a new row and every delete removes a present one, so
/// every write applies.
#[derive(Debug, Clone)]
pub struct WriteGen {
    rng: Rng,
    nodes: i64,
    /// Every row of `R0` and `R1`.
    present: [HashSet<(i64, i64)>; 2],
    /// Rows inserted and not yet deleted, oldest first.
    pending: [VecDeque<(i64, i64)>; 2],
    /// Start values of new rows, per relation.
    starts: [Vec<i64>; 2],
    issued: u64,
}

impl WriteGen {
    /// Writes against `data`, from `seed`.
    pub fn new(data: &Data, s: &Sizing, seed: u64) -> WriteGen {
        let hot: HashSet<i64> = data.hot.iter().copied().collect();
        let mut succ: Vec<i64> = data.written[0]
            .iter()
            .filter(|(a, _)| hot.contains(a))
            .map(|&(_, b)| b)
            .collect();
        succ.sort_unstable();
        succ.dedup();
        if succ.is_empty() {
            succ = data.hot.clone();
        }
        WriteGen {
            rng: Rng::new(seed, 5),
            nodes: s.nodes,
            present: [0, 1].map(|i| data.written[i].iter().copied().collect()),
            pending: Default::default(),
            starts: [data.hot.clone(), succ],
            issued: 0,
        }
    }

    /// The next write.
    pub fn next_write(&mut self) -> WriteOp {
        let k = self.issued;
        self.issued += 1;
        let rel = usize::from((k / 2) % 4 == 3);
        let insert = k.is_multiple_of(2) || self.pending[rel].len() < WRITE_LAG;
        let row = if insert {
            loop {
                let starts = &self.starts[rel];
                let row = (
                    starts[self.rng.index(starts.len())],
                    self.rng.below(self.nodes as u64) as i64,
                );
                if self.present[rel].insert(row) {
                    self.pending[rel].push_back(row);
                    break row;
                }
            }
        } else {
            let row = self.pending[rel]
                .pop_front()
                .expect("WRITE_LAG rows pending");
            self.present[rel].remove(&row);
            row
        };
        WriteOp {
            insert,
            relation: WRITTEN[rel],
            row,
        }
    }
}

// ------------------------------------------------------------ mixed-write

/// Constants for the mixed-write pool, drawn once per seed.
fn data_constants(s: &Sizing, seed: u64) -> Vec<i64> {
    let mut rng = Rng::new(seed, 6);
    (0..16).map(|_| rng.below(s.nodes as u64) as i64).collect()
}

/// Pool classes of the mixed-write reads.
pub const VIEW_EQUIVALENT: usize = 0;
/// Reads of relations that are never written.
pub const UNWRITTEN: usize = 1;
/// Reads of the written relations: three-atom chains that every write
/// invalidates, so each one is evaluated afresh. They are the slowest
/// reads, and [`WRITTEN_READ_CYCLES`] sizes their share so that the 99th
/// percentile of all reads falls in the middle of them.
pub const WRITTEN_READS: usize = 2;

/// The mixed-write read pool, by class.
#[derive(Debug, Clone)]
pub struct MixedPool {
    /// Every text, `kind` = class.
    pub entries: Vec<QueryOp>,
}

impl MixedPool {
    fn new(constants: &[i64]) -> MixedPool {
        // Three spellings of the view that share one minimized core, so
        // they share one result-cache entry: the first read after a write
        // is answered by a view scan, later ones by that entry.
        let equivalent = "G(x0, x2) :- F(x0), R0(x0, x1), R1(x1, x2).";
        let mut texts: Vec<(String, bool, usize)> = vec![
            (equivalent.to_string(), false, VIEW_EQUIVALENT),
            (alpha_rename(equivalent, "v"), false, VIEW_EQUIVALENT),
            (with_atom(equivalent, "R0(x0, xr)"), false, VIEW_EQUIVALENT),
        ];
        for &c in &constants[..4] {
            texts.push((
                format!("G(x3, x4) :- R2({c}, x3), R3(x3, x4)."),
                false,
                UNWRITTEN,
            ));
            texts.push((format!("G(x, y) :- E({c}, x), E(x, y)."), false, UNWRITTEN));
        }
        for &c in &constants[4..12] {
            texts.push((
                format!("G(x3) :- R0({c}, x1), R1(x1, x2), R2(x2, x3)."),
                false,
                WRITTEN_READS,
            ));
        }
        let entries = texts
            .into_iter()
            .map(|(cq, count, class)| QueryOp {
                line: query_line(count, &cq),
                kind: class,
            })
            .collect();
        MixedPool { entries }
    }

    fn of_class(&self, class: usize) -> Vec<usize> {
        (0..self.entries.len())
            .filter(|&i| self.entries[i].kind == class)
            .collect()
    }
}

/// The mixed-write stream: a fixed pattern of twelve operations (four
/// writes, five view-equivalent reads, two reads of never-written relations
/// and one read slot that holds a read of the written relations once every
/// [`WRITTEN_READ_CYCLES`] repetitions and a third read of never-written
/// relations otherwise), with the texts drawn from each class by the seed.
/// Each write is followed by a view-equivalent read, which the write has
/// invalidated; the pattern keeps the share of view scans, cache hits and
/// recomputations the same for every seed.
#[derive(Debug, Clone)]
pub struct MixedStream {
    rng: Rng,
    /// The read pool.
    pub pool: MixedPool,
    classes: [Vec<usize>; 3],
    writes: WriteGen,
    step: usize,
}

/// Repetitions of [`MIXED_PATTERN`] per read of the written relations: one
/// read in 48, about 2%, so the 99th percentile of the reads is the median
/// of these fresh evaluations rather than the extreme tail of a larger
/// share, which a stalled host moves far more than it moves a median.
const WRITTEN_READ_CYCLES: usize = 6;

/// Slot of a write in [`MIXED_PATTERN`].
const WRITE_SLOT: u8 = 3;

/// One repetition of the mixed-write traffic: a write slot or a read class.
const MIXED_PATTERN: [u8; 12] = [
    WRITE_SLOT,
    VIEW_EQUIVALENT as u8,
    UNWRITTEN as u8,
    WRITE_SLOT,
    VIEW_EQUIVALENT as u8,
    WRITTEN_READS as u8,
    WRITE_SLOT,
    VIEW_EQUIVALENT as u8,
    VIEW_EQUIVALENT as u8,
    WRITE_SLOT,
    VIEW_EQUIVALENT as u8,
    UNWRITTEN as u8,
];

impl MixedStream {
    /// The stream against `data` for `seed`.
    pub fn new(data: &Data, s: &Sizing, seed: u64) -> MixedStream {
        let pool = MixedPool::new(&data_constants(s, seed));
        let classes = [
            pool.of_class(VIEW_EQUIVALENT),
            pool.of_class(UNWRITTEN),
            pool.of_class(WRITTEN_READS),
        ];
        MixedStream {
            rng: Rng::new(seed, 7),
            pool,
            classes,
            writes: WriteGen::new(data, s, seed),
            step: 0,
        }
    }
}

impl Iterator for MixedStream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let mut slot = MIXED_PATTERN[self.step % MIXED_PATTERN.len()];
        if slot == WRITTEN_READS as u8
            && !(self.step / MIXED_PATTERN.len()).is_multiple_of(WRITTEN_READ_CYCLES)
        {
            slot = UNWRITTEN as u8;
        }
        self.step += 1;
        if slot == WRITE_SLOT {
            return Some(Op::Write(self.writes.next_write()));
        }
        let class = &self.classes[slot as usize];
        let i = class[self.rng.index(class.len())];
        Some(Op::Query(self.pool.entries[i].clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_renaming_touches_only_variables() {
        assert_eq!(
            alpha_rename("G(x1, y) :- R0(7, x1), E(x1, y), x1 != y.", "v"),
            "G(vx1, vy) :- R0(7, vx1), E(vx1, vy), vx1 != vy."
        );
    }

    #[test]
    fn cold_blocks_cover_every_template() {
        let s = Workload::ColdAnalytic.sizing();
        let kinds: HashSet<usize> = ColdStream::new(&s, 3).take(9).map(|q| q.kind).collect();
        assert_eq!(kinds.len(), COLD_TEMPLATES.len());
    }
}
