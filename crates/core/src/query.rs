//! Standing label-constrained path queries.
//!
//! A query is a restricted regular expression over edge labels — atoms
//! `a`–`z` (mapped to labels 1–26), each optionally modified by `*` (zero or
//! more), `+` (one or more) or `?` (optional), concatenated with `.` — e.g.
//! `a.b*.c`. Registered against a `StreamingGraph`, the pattern is compiled
//! by [`compile`] into a small position automaton ([`QueryDfa`], ≤ 32
//! states): a vertex `v` is a **result** iff some path from the query's
//! source vertex to `v` spells a label word matching the pattern.
//!
//! Evaluation is the textbook product construction, maintained as one bitset
//! of automaton states per `(vertex, query)` on the vertex objects
//! themselves (`VertexObj::qbits`): inserts extend the reachable product
//! states through the monotone [`diffusive::query`] diffusion, and deletions
//! run a scoped clear-and-reseed repair over exactly the region reachable
//! from the deleted edges (see `StreamingGraph::register_query` and the
//! repair pass in `stream_increment`). [`oracle_results`] is the from-scratch
//! recompute every incremental result set is pinned against in tests and the
//! benchmark's `query_fanout` workload.

use std::collections::VecDeque;
use std::fmt;

/// Highest edge label a pattern atom can name (`z` = 26; 0 = unlabelled).
pub const MAX_LABEL: u8 = 26;

/// Maximum automaton states (pattern factors + 1); bitsets are `u32`.
pub const MAX_STATES: usize = 32;

/// Why a query pattern failed to compile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The pattern was empty.
    Empty,
    /// A factor did not start with an atom `a`–`z`.
    BadAtom(char),
    /// Two factors were not separated by exactly one `.`.
    BadSeparator(char),
    /// The pattern has more factors than [`MAX_STATES`] − 1.
    TooManyFactors(usize),
    /// The query's source vertex does not exist in the graph it was
    /// registered against (raised at registration, not compilation).
    SourceOutOfRange {
        /// The source vertex the registration named.
        source: u32,
        /// Number of vertices in the graph.
        n: u32,
    },
    /// A multi-source registration named no sources at all — the query
    /// could never match anything.
    NoSources,
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            QueryError::Empty => write!(f, "empty query pattern"),
            QueryError::BadAtom(c) => write!(f, "expected an atom a-z, found {c:?}"),
            QueryError::BadSeparator(c) => write!(f, "expected '.' between factors, found {c:?}"),
            QueryError::TooManyFactors(n) => {
                write!(f, "{n} factors exceed the {}-state automaton bound", MAX_STATES)
            }
            QueryError::SourceOutOfRange { source, n } => {
                write!(f, "query source {source} out of range (graph has {n} vertices)")
            }
            QueryError::NoSources => write!(f, "query registered with no source vertices"),
        }
    }
}

impl std::error::Error for QueryError {}

/// How often one factor's atom may repeat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rep {
    /// Exactly once (no modifier).
    One,
    /// Zero or more (`*`).
    Star,
    /// One or more (`+`).
    Plus,
    /// Zero or one (`?`).
    Opt,
}

impl Rep {
    /// May the factor match the empty word?
    fn skippable(self) -> bool {
        matches!(self, Rep::Star | Rep::Opt)
    }

    /// May the factor consume more than one atom?
    fn repeatable(self) -> bool {
        matches!(self, Rep::Star | Rep::Plus)
    }
}

/// A compiled query automaton: state `i` means "the first `i` factors of the
/// pattern are satisfied", so state `n_states − 1` accepts. Transitions are
/// pre-closed over skippable factors, which keeps [`QueryDfa::step`] a pure
/// table fold over the set bits — the operation vertex objects perform when
/// an `ACT_QUERY` operon arrives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryDfa {
    n_states: u8,
    start: u32,
    accepting: u32,
    /// `steps[label][state]` = closed successor bitset (index 0 unused: an
    /// unlabelled edge never advances a query).
    steps: Vec<[u32; MAX_STATES]>,
}

impl QueryDfa {
    /// Number of automaton states (pattern factors + 1).
    pub fn n_states(&self) -> usize {
        self.n_states as usize
    }

    /// The closed start bitset — the states holding at the query's source
    /// vertex before any edge is traversed.
    pub fn start_bits(&self) -> u32 {
        self.start
    }

    /// The accepting-state mask.
    pub fn accepting_bits(&self) -> u32 {
        self.accepting
    }

    /// Does a state bitset contain an accepting state?
    pub fn accepts(&self, bits: u32) -> bool {
        bits & self.accepting != 0
    }

    /// Step a state bitset along one edge label: the union of the closed
    /// successors of every set state. Label 0 (unlabelled) and labels beyond
    /// [`MAX_LABEL`] never advance a query.
    pub fn step(&self, bits: u32, label: u8) -> u32 {
        let Some(table) = self.steps.get(label as usize).filter(|_| label != 0) else {
            return 0;
        };
        let mut out = 0;
        let mut rest = bits & ((1u64 << self.n_states) - 1) as u32;
        while rest != 0 {
            let s = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            out |= table[s];
        }
        out
    }
}

/// Compile a pattern (module docs grammar) into its position automaton.
pub fn compile(pattern: &str) -> Result<QueryDfa, QueryError> {
    let mut factors: Vec<(u8, Rep)> = Vec::new();
    let mut chars = pattern.chars().peekable();
    loop {
        let Some(c) = chars.next() else {
            return Err(QueryError::Empty);
        };
        if !c.is_ascii_lowercase() {
            return Err(QueryError::BadAtom(c));
        }
        let label = (c as u8) - b'a' + 1;
        let rep = match chars.peek() {
            Some('*') => Rep::Star,
            Some('+') => Rep::Plus,
            Some('?') => Rep::Opt,
            _ => Rep::One,
        };
        if rep != Rep::One {
            chars.next();
        }
        factors.push((label, rep));
        match chars.next() {
            None => break,
            Some('.') => continue,
            Some(c) => return Err(QueryError::BadSeparator(c)),
        }
    }
    let k = factors.len();
    if k > MAX_STATES - 1 {
        return Err(QueryError::TooManyFactors(k));
    }
    // eps(i): states reachable from i by skipping skippable factors forward.
    let eps = |i: usize| -> u32 {
        let mut bits = 1u32 << i;
        for (j, &(_, rep)) in factors.iter().enumerate().skip(i) {
            if !rep.skippable() {
                break;
            }
            bits |= 1 << (j + 1);
        }
        bits
    };
    let mut steps = vec![[0u32; MAX_STATES]; MAX_LABEL as usize + 1];
    for i in 0..=k {
        // Consume the next unskipped factor's atom from any eps-successor.
        let mut reach = eps(i);
        while reach != 0 {
            let j = reach.trailing_zeros() as usize;
            reach &= reach - 1;
            if j < k {
                let (label, _) = factors[j];
                steps[label as usize][i] |= eps(j + 1);
            }
        }
        // Repeat the factor just satisfied (its own atom, if repeatable).
        if i >= 1 {
            let (label, rep) = factors[i - 1];
            if rep.repeatable() {
                steps[label as usize][i] |= eps(i);
            }
        }
    }
    Ok(QueryDfa { n_states: (k + 1) as u8, start: eps(0), accepting: 1 << k, steps })
}

/// One registered standing query: the source pattern, the source vertices
/// the paths are anchored at, and the compiled automaton. All sources share
/// one compiled DFA and one qbits plane — a vertex matches if a matching
/// path reaches it from *any* source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StandingQuery {
    /// The pattern as registered (re-compiled on checkpoint restore).
    pub pattern: String,
    /// The vertices a matching path may start from (sorted, deduplicated
    /// at registration; single-source registration yields one entry).
    pub sources: Vec<u32>,
    /// The compiled automaton.
    pub dfa: QueryDfa,
}

/// One standing query's result-set change across a single increment:
/// vertices that entered (`added`) and left (`removed`) the accepting set,
/// both sorted ascending. Computed incrementally in `stream_increment`
/// from the qbits transitions the batch actually caused — not a rescan —
/// and pinned bit-identical to diffing the polled result sets before and
/// after the batch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryDelta {
    /// The query the delta belongs to.
    pub qid: u32,
    /// Vertices that newly match, ascending.
    pub added: Vec<u32>,
    /// Vertices that no longer match, ascending.
    pub removed: Vec<u32>,
}

impl QueryDelta {
    /// True when the increment left the result set unchanged.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }
}

/// From-scratch product-state recompute: the least fixpoint of automaton
/// state bitsets over the labelled edge set `(u, v, label)`, anchored at
/// `source` with the automaton's closed start states. Returns the sorted
/// result vertices (those holding an accepting state). This is the oracle
/// every incrementally maintained result set is pinned against.
pub fn oracle_results(
    n_vertices: u32,
    edges: &[(u32, u32, u8)],
    dfa: &QueryDfa,
    source: u32,
) -> Vec<u32> {
    oracle_results_multi(n_vertices, edges, dfa, &[source])
}

/// [`oracle_results`] for a multi-source query: start states are seeded at
/// every source, sharing one automaton — exactly the semantics of
/// `register_query_multi`.
pub fn oracle_results_multi(
    n_vertices: u32,
    edges: &[(u32, u32, u8)],
    dfa: &QueryDfa,
    sources: &[u32],
) -> Vec<u32> {
    let bits = oracle_bits_multi(n_vertices, edges, dfa, sources);
    (0..n_vertices).filter(|&v| dfa.accepts(bits[v as usize])).collect()
}

/// The per-vertex fixpoint bitsets behind [`oracle_results`] (exposed so
/// tests can pin the raw product states, not just the accepting set).
pub fn oracle_bits(
    n_vertices: u32,
    edges: &[(u32, u32, u8)],
    dfa: &QueryDfa,
    source: u32,
) -> Vec<u32> {
    oracle_bits_multi(n_vertices, edges, dfa, &[source])
}

/// The per-vertex fixpoint bitsets behind [`oracle_results_multi`].
pub fn oracle_bits_multi(
    n_vertices: u32,
    edges: &[(u32, u32, u8)],
    dfa: &QueryDfa,
    sources: &[u32],
) -> Vec<u32> {
    let mut adj: Vec<Vec<(u32, u8)>> = vec![Vec::new(); n_vertices as usize];
    for &(u, v, label) in edges {
        adj[u as usize].push((v, label));
    }
    let mut bits = vec![0u32; n_vertices as usize];
    let mut queue = VecDeque::new();
    for &source in sources {
        if source < n_vertices && bits[source as usize] != dfa.start_bits() {
            bits[source as usize] = dfa.start_bits();
            queue.push_back(source);
        }
    }
    while let Some(u) = queue.pop_front() {
        let ub = bits[u as usize];
        for &(v, label) in &adj[u as usize] {
            let new = dfa.step(ub, label) & !bits[v as usize];
            if new != 0 {
                bits[v as usize] |= new;
                queue.push_back(v);
            }
        }
    }
    bits
}

/// Map an atom character `a`–`z` to its edge label 1–26 (convenience for
/// dataset generators and benches building labelled streams).
pub fn label_of(atom: char) -> Option<u8> {
    atom.is_ascii_lowercase().then(|| (atom as u8) - b'a' + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn results(pattern: &str, n: u32, edges: &[(u32, u32, u8)], source: u32) -> Vec<u32> {
        oracle_results(n, edges, &compile(pattern).unwrap(), source)
    }

    const A: u8 = 1;
    const B: u8 = 2;
    const C: u8 = 3;

    #[test]
    fn atom_mapping() {
        assert_eq!(label_of('a'), Some(1));
        assert_eq!(label_of('z'), Some(26));
        assert_eq!(label_of('A'), None);
        assert_eq!(label_of('.'), None);
    }

    #[test]
    fn parse_errors() {
        assert_eq!(compile(""), Err(QueryError::Empty));
        assert_eq!(compile("a."), Err(QueryError::Empty), "trailing separator");
        assert_eq!(compile("A"), Err(QueryError::BadAtom('A')));
        assert_eq!(compile("a.*"), Err(QueryError::BadAtom('*')));
        assert_eq!(compile("ab"), Err(QueryError::BadSeparator('b')));
        assert_eq!(compile("a**"), Err(QueryError::BadSeparator('*')));
        let long = vec!["a"; MAX_STATES].join(".");
        assert_eq!(compile(&long), Err(QueryError::TooManyFactors(MAX_STATES)));
    }

    #[test]
    fn single_atom_matches_one_hop() {
        // 0 -a-> 1 -b-> 2
        let edges = [(0, 1, A), (1, 2, B)];
        assert_eq!(results("a", 3, &edges, 0), vec![1]);
        assert_eq!(results("a.b", 3, &edges, 0), vec![2]);
        assert_eq!(results("b", 3, &edges, 0), Vec::<u32>::new());
    }

    #[test]
    fn star_matches_zero_and_many() {
        // 0 -a-> 1 -b-> 2 -b-> 3 -c-> 4
        let edges = [(0, 1, A), (1, 2, B), (2, 3, B), (3, 4, C)];
        assert_eq!(results("a.b*.c", 5, &edges, 0), vec![4]);
        assert_eq!(results("a.b*", 5, &edges, 0), vec![1, 2, 3], "zero, one, two bs");
        assert_eq!(results("a.b+.c", 5, &edges, 0), vec![4]);
        assert_eq!(results("a.c?", 5, &edges, 0), vec![1], "c optional but absent");
    }

    #[test]
    fn skippable_prefix_accepts_the_source() {
        let edges = [(0, 1, A)];
        assert_eq!(results("a*", 2, &edges, 0), vec![0, 1], "empty word matches at the source");
        assert_eq!(results("a?.b?", 2, &edges, 0), vec![0, 1]);
        assert_eq!(results("a+", 2, &edges, 0), vec![1], "plus requires one atom");
    }

    #[test]
    fn plus_requires_the_first_atom_before_repeating() {
        // A b-cycle reachable over a: plus and star agree past the entry.
        let edges = [(0, 1, B), (1, 2, B), (2, 1, B)];
        assert_eq!(results("b+", 3, &edges, 0), vec![1, 2]);
        assert_eq!(results("b*", 3, &edges, 0), vec![0, 1, 2]);
    }

    #[test]
    fn unlabelled_edges_never_advance_a_query() {
        let edges = [(0, 1, 0), (1, 2, A)];
        assert_eq!(results("a", 3, &edges, 0), Vec::<u32>::new(), "0-labelled hop breaks the path");
        assert_eq!(results("a", 3, &edges, 1), vec![2]);
    }

    #[test]
    fn cycles_converge() {
        // a-cycle 0 -> 1 -> 0 plus an exit 1 -c-> 2.
        let edges = [(0, 1, A), (1, 0, A), (1, 2, C)];
        assert_eq!(results("a+.c", 3, &edges, 0), vec![2]);
        assert_eq!(results("a*", 3, &edges, 0), vec![0, 1]);
    }

    #[test]
    fn step_is_a_pure_table_fold() {
        let dfa = compile("a.b*.c").unwrap();
        assert_eq!(dfa.n_states(), 4);
        let s0 = dfa.start_bits();
        assert_eq!(s0, 0b0001);
        let s1 = dfa.step(s0, A);
        assert_eq!(s1, 0b0110, "a consumed, closed over the skippable b*");
        assert_eq!(dfa.step(s1, B), 0b0100, "b loops in place");
        assert!(dfa.accepts(dfa.step(s1, C)), "c completes");
        assert_eq!(dfa.step(s1, A), 0, "no second a");
        assert_eq!(dfa.step(s0, 0), 0, "unlabelled edges are inert");
        assert_eq!(dfa.step(s0, MAX_LABEL + 1), 0, "out-of-range labels are inert");
    }

    #[test]
    fn oracle_bits_expose_the_product_fixpoint() {
        let dfa = compile("a.b").unwrap();
        let bits = oracle_bits(3, &[(0, 1, A), (1, 2, B)], &dfa, 0);
        assert_eq!(bits, vec![0b001, 0b010, 0b100]);
    }

    #[test]
    fn multi_source_oracle_unions_the_anchors() {
        // Two disjoint a-chains anchored at 0 and 3.
        let edges = [(0, 1, A), (3, 4, A)];
        let dfa = compile("a").unwrap();
        assert_eq!(oracle_results_multi(5, &edges, &dfa, &[0, 3]), vec![1, 4]);
        assert_eq!(oracle_results_multi(5, &edges, &dfa, &[0, 0, 3]), vec![1, 4], "dups harmless");
        assert_eq!(oracle_results_multi(5, &edges, &dfa, &[]), Vec::<u32>::new());
        // The multi-source fixpoint is exactly the union of the per-source
        // fixpoints (the product construction is monotone in start seeds).
        let mut union: Vec<u32> = oracle_results(5, &edges, &dfa, 0)
            .into_iter()
            .chain(oracle_results(5, &edges, &dfa, 3))
            .collect();
        union.sort_unstable();
        union.dedup();
        assert_eq!(oracle_results_multi(5, &edges, &dfa, &[0, 3]), union);
    }
}
