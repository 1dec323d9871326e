//! Checkpoint serialization for the serving layer.
//!
//! A [`GraphCheckpoint`] captures everything the host needs to rebuild a
//! [`StreamingGraph`]'s exact converged state from disk:
//!
//! * the **live edge multiset** at current weights by destination, then
//!   source, then copy age (from the shared mutation log) — replaying it
//!   into a fresh graph reproduces the per-pair oldest-first copy order, so
//!   a write-ahead mutation tail replayed on top resolves deletes and
//!   re-weights to the same copies;
//! * the **promoted (rhizome) vertex set** and the **converged per-vertex
//!   sync values**, stored as integrity checks: restore re-converges from
//!   the edge multiset and verifies both match bit-for-bit, so a corrupt or
//!   stale snapshot is caught at load time instead of surfacing as a wrong
//!   query answer later.
//!
//! The fixpoint itself is *recomputed*, not deserialized: converged states
//! depend only on the live multiset (the property the differential test
//! harness pins across batch splits and shard counts), which keeps the
//! format algorithm-independent — one codec serves BFS, SSSP, and CC.
//!
//! The binary format is a magic, a version, the fields above and a
//! trailing FNV-1a checksum, written and read through the
//! [`amcca_obs::bytes`] codec (which defines the shared field layouts).
//! [`encode_mutations`] / [`decode_mutations`] are the mutation batch the
//! serve crate's write-ahead log and client protocol carry.

use std::fmt;

use amcca_obs::bytes::{self, Reader, Writer};
use amcca_sim::SimError;

use crate::apps::VertexAlgo;
use crate::graph::{
    GraphBuilder, GraphMutation, IncrementError, MutationError, StreamEdge, StreamingGraph,
};

/// Magic bytes opening every checkpoint file.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"AMCK";
/// The one checkpoint format version this build writes and reads: a label
/// byte per edge and a registered standing-query list with a source *list*
/// per query. Files of versions 1 and 2 (no labels or queries; one source
/// per query) are refused as [`CheckpointError::BadVersion`].
pub const CHECKPOINT_VERSION: u32 = 3;

/// Why checkpoint bytes (or a mutation record) failed to decode or a
/// restored graph failed its integrity check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The bytes do not hold the structure: a field is cut short, bytes
    /// are left over, or a query pattern is not UTF-8.
    Codec(bytes::Error),
    /// The magic bytes are not [`CHECKPOINT_MAGIC`].
    BadMagic,
    /// The version is not [`CHECKPOINT_VERSION`].
    BadVersion(u32),
    /// The trailing checksum does not match the payload.
    BadChecksum,
    /// An unknown mutation opcode.
    BadOpcode(u8),
    /// A checkpointed standing query failed to re-register on restore.
    BadQuery(String),
    /// The restored graph's converged state disagrees with the snapshot.
    StateMismatch(String),
    /// The snapshot's edges do not fit the graph it names (an endpoint at
    /// or past its vertex count).
    Refused(MutationError),
    /// Rebuilding the graph failed in the simulator.
    Sim(SimError),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Codec(e) => e.fmt(f),
            CheckpointError::BadMagic => write!(f, "not a checkpoint (bad magic)"),
            CheckpointError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::BadChecksum => write!(f, "checkpoint checksum mismatch"),
            CheckpointError::BadOpcode(op) => write!(f, "unknown mutation opcode {op}"),
            CheckpointError::BadQuery(what) => {
                write!(f, "checkpointed query failed to re-register: {what}")
            }
            CheckpointError::StateMismatch(what) => {
                write!(f, "restored graph diverges from snapshot: {what}")
            }
            CheckpointError::Refused(e) => write!(f, "snapshot edge refused: {e}"),
            CheckpointError::Sim(e) => write!(f, "rebuild failed: {e:?}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<bytes::Error> for CheckpointError {
    fn from(e: bytes::Error) -> Self {
        CheckpointError::Codec(e)
    }
}

impl From<SimError> for CheckpointError {
    fn from(e: SimError) -> Self {
        CheckpointError::Sim(e)
    }
}

impl From<IncrementError> for CheckpointError {
    fn from(e: IncrementError) -> Self {
        match e {
            IncrementError::Refused(e) => CheckpointError::Refused(e),
            IncrementError::Sim(e) => CheckpointError::Sim(e),
        }
    }
}

/// A point-in-time snapshot of a quiescent [`StreamingGraph`] (module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphCheckpoint {
    /// Vertex count the graph was built with.
    pub n_vertices: u32,
    /// Live edge multiset at current weights, each with its label (0 =
    /// unlabeled), by destination, then source, then copy age.
    pub edges: Vec<(StreamEdge, u8)>,
    /// Promoted (multi-root) vertices at capture time, ascending.
    pub promoted: Vec<u32>,
    /// Converged per-vertex sync values at capture time (the restore-time
    /// fixpoint integrity check).
    pub sync_states: Vec<Option<u64>>,
    /// Registered standing queries as `(pattern, sources)` pairs, in
    /// registration (query-id) order. Restore re-registers them, which
    /// recomputes their result sets from the rebuilt graph.
    pub queries: Vec<(String, Vec<u32>)>,
}

impl GraphCheckpoint {
    /// Snapshot a quiescent graph: its live edges, rhizome
    /// directory (promoted set), and converged vertex states.
    ///
    /// Nothing may be staged ([`StreamingGraph::stage`]): the edge list
    /// would include the unapplied inserts while `sync_states` would not,
    /// and the snapshot would fail its own restore check.
    pub fn capture<G: VertexAlgo>(g: &StreamingGraph<G>) -> GraphCheckpoint {
        debug_assert!(g.staged().next().is_none(), "checkpoint with staged mutations unapplied");
        GraphCheckpoint {
            n_vertices: g.n_vertices(),
            edges: g.live_labeled_edges(),
            promoted: g.promoted_vertices(),
            sync_states: g.sync_values(),
            queries: g
                .registered_queries()
                .iter()
                .map(|q| (q.pattern.clone(), q.sources.clone()))
                .collect(),
        }
    }

    /// Rebuild a graph from this snapshot: construct from the builder's
    /// chip/RPVO/repair shape, stream the live multiset in one increment,
    /// and verify the re-converged fixpoint and promoted set match the
    /// captured ones bit-for-bit.
    pub fn restore<G: VertexAlgo>(
        &self,
        builder: GraphBuilder<G>,
    ) -> Result<StreamingGraph<G>, CheckpointError> {
        let mut g = builder.vertices(self.n_vertices).build()?;
        let muts: Vec<GraphMutation> = self
            .edges
            .iter()
            .map(|&(e, l)| match l {
                0 => GraphMutation::AddEdge(e),
                l => GraphMutation::AddLabeledEdge(e, l),
            })
            .collect();
        g.stream_increment(&muts)?;
        if g.sync_values() != self.sync_states {
            return Err(CheckpointError::StateMismatch("converged sync values".into()));
        }
        if g.promoted_vertices() != self.promoted {
            return Err(CheckpointError::StateMismatch("promoted vertex set".into()));
        }
        for (pattern, sources) in &self.queries {
            g.register_query_multi(pattern, sources)
                .map_err(|e| CheckpointError::BadQuery(e.to_string()))?;
        }
        Ok(g)
    }

    /// Serialize to the versioned, checksummed binary format (always the
    /// current version).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(32 + self.edges.len() * 13);
        w.bytes(&CHECKPOINT_MAGIC).u32(CHECKPOINT_VERSION).u32(self.n_vertices);
        w.u64(self.edges.len() as u64);
        for &((u, v, wt), label) in &self.edges {
            w.u32(u).u32(v).u32(wt).u8(label);
        }
        w.u32s(&self.promoted).opt_u64s(&self.sync_states);
        w.list(&self.queries, |w, (pattern, sources)| w.u32s(sources).str(pattern));
        let sum = fnv1a(w.as_bytes());
        w.u64(sum);
        w.into_bytes()
    }

    /// Deserialize, verifying magic, version, and checksum.
    pub fn decode(bytes: &[u8]) -> Result<GraphCheckpoint, CheckpointError> {
        let (payload, tail) = bytes.split_at(bytes.len().saturating_sub(8));
        if fnv1a(payload) != Reader::new(tail).u64()? {
            return Err(CheckpointError::BadChecksum);
        }
        let mut r = Reader::new(payload);
        if r.bytes(4)? != CHECKPOINT_MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = r.u32()?;
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::BadVersion(version));
        }
        let n_vertices = r.u32()?;
        let n_edges = r.u64()? as usize;
        let mut edges = Vec::with_capacity(n_edges.min(1 << 20));
        for _ in 0..n_edges {
            edges.push(((r.u32()?, r.u32()?, r.u32()?), r.u8()?));
        }
        let (promoted, sync_states) = (r.u32s()?, r.opt_u64s()?);
        let queries = r.list(|r| {
            let sources = r.u32s()?;
            Ok((r.str()?.to_string(), sources))
        })?;
        r.finish()?;
        Ok(GraphCheckpoint { n_vertices, edges, promoted, sync_states, queries })
    }
}

/// Append a count-prefixed mutation batch (what [`decode_mutations`] reads):
/// per mutation an opcode byte and three `u32`s, and for opcode 3 — a
/// labeled insert — one trailing label byte.
pub fn write_mutations<'w>(w: &'w mut Writer, muts: &[GraphMutation]) -> &'w mut Writer {
    w.u32(muts.len() as u32);
    for m in muts {
        let (op, (u, v, wt), label) = match *m {
            GraphMutation::AddEdge(e) => (0, e, None),
            GraphMutation::DelEdge(e) => (1, e, None),
            GraphMutation::UpdateWeight { u, v, w } => (2, (u, v, w), None),
            GraphMutation::AddLabeledEdge(e, l) => (3, e, Some(l)),
        };
        w.u8(op).u32(u).u32(v).u32(wt);
        if let Some(l) = label {
            w.u8(l);
        }
    }
    w
}

/// Serialize a mutation batch (count-prefixed).
pub fn encode_mutations(muts: &[GraphMutation]) -> Vec<u8> {
    let mut w = Writer::with_capacity(4 + muts.len() * 13);
    write_mutations(&mut w, muts);
    w.into_bytes()
}

/// Deserialize a count-prefixed mutation batch.
pub fn decode_mutations(bytes: &[u8]) -> Result<Vec<GraphMutation>, CheckpointError> {
    let mut r = Reader::new(bytes);
    let n = r.u32()? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let (op, u, v, w) = (r.u8()?, r.u32()?, r.u32()?, r.u32()?);
        out.push(match op {
            0 => GraphMutation::AddEdge((u, v, w)),
            1 => GraphMutation::DelEdge((u, v, w)),
            2 => GraphMutation::UpdateWeight { u, v, w },
            3 => GraphMutation::AddLabeledEdge((u, v, w), r.u8()?),
            other => return Err(CheckpointError::BadOpcode(other)),
        });
    }
    r.finish()?;
    Ok(out)
}

/// FNV-1a over a byte slice (the checkpoint and WAL record checksum).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use amcca_sim::ChipConfig;

    use super::*;
    use crate::apps::{BfsAlgo, SsspAlgo};
    use crate::rpvo::RpvoConfig;

    fn small() -> StreamingGraph<BfsAlgo> {
        StreamingGraph::builder(BfsAlgo::new(0))
            .vertices(16)
            .chip(ChipConfig::small_test())
            .rpvo(RpvoConfig::basic(4, 2))
            .build()
            .unwrap()
    }

    #[test]
    fn encode_decode_roundtrip() {
        let ck = GraphCheckpoint {
            n_vertices: 9,
            edges: vec![((0, 1, 5), 0), ((1, 2, 7), 2), ((0, 1, 5), 26)],
            promoted: vec![3, 7],
            sync_states: vec![Some(0), None, Some(12)],
            queries: vec![("a.b*.c".into(), vec![0]), ("z+".into(), vec![4, 7, 8])],
        };
        assert_eq!(GraphCheckpoint::decode(&ck.encode()).unwrap(), ck);
    }

    /// Well-formed, checksum-valid images of the two retired generations
    /// are refused by version, not misparsed.
    #[test]
    fn retired_versions_are_refused() {
        for version in [1u32, 2] {
            let mut w = Writer::default();
            w.bytes(&CHECKPOINT_MAGIC).u32(version);
            w.u32(4).u64(1).u32(0).u32(1).u32(5); // n_vertices, edge count, the edge
            if version == 2 {
                w.u8(2); // v2 added the label byte
            }
            w.u32(0).u32(1).u8(0); // no promoted vertices, one sync value: None
            if version == 2 {
                // ... and a query section with one u32 source per query.
                w.u32(1).u32(3).u32(2).bytes(b"b+"); // count, source, pattern
            }
            let sum = fnv1a(w.as_bytes());
            let bytes = w.u64(sum).as_bytes().to_vec();
            assert_eq!(GraphCheckpoint::decode(&bytes), Err(CheckpointError::BadVersion(version)));
        }
    }

    #[test]
    fn corruption_is_detected() {
        let ck = GraphCheckpoint {
            n_vertices: 4,
            edges: vec![((0, 1, 1), 0)],
            promoted: vec![],
            sync_states: vec![Some(0), Some(1), None, None],
            queries: vec![],
        };
        let mut bytes = ck.encode();
        bytes[10] ^= 0xff;
        assert_eq!(GraphCheckpoint::decode(&bytes), Err(CheckpointError::BadChecksum));
        assert_eq!(
            GraphCheckpoint::decode(&bytes[..6]),
            Err(CheckpointError::Codec(bytes::Error::Truncated))
        );
        // A checksum-covered byte past the last query is not ignored.
        let good = ck.encode();
        let mut long = Writer::default();
        long.bytes(&good[..good.len() - 8]).u8(0);
        let sum = fnv1a(long.as_bytes());
        let long = long.u64(sum).as_bytes().to_vec();
        assert_eq!(
            GraphCheckpoint::decode(&long),
            Err(CheckpointError::Codec(bytes::Error::TrailingBytes))
        );
    }

    #[test]
    fn capture_restore_reaches_the_same_fixpoint() {
        let mut g = small();
        g.stream_edges(&[(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)]).unwrap();
        g.stream_increment(&[GraphMutation::DelEdge((0, 3, 1))]).unwrap();
        let ck = GraphCheckpoint::capture(&g);
        let restored = ck
            .restore(
                StreamingGraph::builder(BfsAlgo::new(0))
                    .chip(ChipConfig::small_test())
                    .rpvo(RpvoConfig::basic(4, 2)),
            )
            .unwrap();
        assert_eq!(restored.states(), g.states());
        assert_eq!(restored.live_edges(), g.live_edges());
    }

    #[test]
    fn restore_rejects_a_forged_fixpoint() {
        let mut g = small();
        g.stream_edges(&[(0, 1, 1)]).unwrap();
        let mut ck = GraphCheckpoint::capture(&g);
        ck.sync_states[1] = Some(99);
        let err = match ck.restore(
            StreamingGraph::builder(BfsAlgo::new(0))
                .chip(ChipConfig::small_test())
                .rpvo(RpvoConfig::basic(4, 2)),
        ) {
            Ok(_) => panic!("forged fixpoint accepted"),
            Err(e) => e,
        };
        assert!(matches!(err, CheckpointError::StateMismatch(_)));
    }

    /// A snapshot whose edge names a vertex past its own vertex count —
    /// decodable, checksum-valid bytes — is refused, not a panic.
    #[test]
    fn restore_refuses_an_edge_past_the_vertex_count() {
        let mut ck = GraphCheckpoint::capture(&small());
        ck.edges = vec![((0, 1, 1), 0), ((1, 16, 1), 0)];
        let ck = GraphCheckpoint::decode(&ck.encode()).unwrap();
        let err = match ck.restore(
            StreamingGraph::builder(BfsAlgo::new(0))
                .chip(ChipConfig::small_test())
                .rpvo(RpvoConfig::basic(4, 2)),
        ) {
            Ok(_) => panic!("an edge into vertex 16 restored a 16-vertex graph"),
            Err(e) => e,
        };
        let out = MutationError::VertexOutOfRange { vid: 16, n: 16 };
        assert_eq!(err, CheckpointError::Refused(out));
        assert_eq!(
            err.to_string(),
            "snapshot edge refused: vertex 16 out of range (graph has 16 vertices)"
        );
    }

    #[test]
    fn capture_restore_preserves_labels_and_queries() {
        let mut g = small();
        g.stream_increment(&[
            GraphMutation::AddLabeledEdge((0, 1, 1), 1),
            GraphMutation::AddLabeledEdge((1, 2, 1), 2),
            GraphMutation::AddLabeledEdge((2, 3, 1), 3),
        ])
        .unwrap();
        g.register_query("a.b.c", 0).unwrap();
        g.register_query_multi("b.c?", &[1, 2]).unwrap();
        assert_eq!(g.query_results(0), vec![3]);
        assert_eq!(g.query_results(1), vec![2, 3]);
        let ck = GraphCheckpoint::capture(&g);
        assert_eq!(ck.edges, [((0, 1, 1), 1), ((1, 2, 1), 2), ((2, 3, 1), 3)]);
        assert_eq!(
            ck.queries,
            vec![("a.b.c".to_string(), vec![0]), ("b.c?".to_string(), vec![1, 2])]
        );
        let restored = ck
            .restore(
                StreamingGraph::builder(BfsAlgo::new(0))
                    .chip(ChipConfig::small_test())
                    .rpvo(RpvoConfig::basic(4, 2)),
            )
            .unwrap();
        assert_eq!(restored.live_labeled_edges(), g.live_labeled_edges());
        assert_eq!(restored.query_results(0), vec![3]);
        assert_eq!(restored.query_results(1), vec![2, 3], "multi-source query survives restore");
    }

    /// A multigraph pair whose older copy was re-weighted survives capture,
    /// encode, decode and restore with its copies in age order: the next
    /// re-weight and delete meet the same copies on both graphs.
    #[test]
    fn a_restored_multigraph_pair_resolves_later_mutations_to_the_same_copies() {
        use GraphMutation::{AddEdge, AddLabeledEdge, DelEdge, UpdateWeight};
        let builder = || {
            StreamingGraph::builder(SsspAlgo::new(0))
                .vertices(8)
                .chip(ChipConfig::small_test())
                .rpvo(RpvoConfig::basic(4, 2))
        };
        let mut g = builder().build().unwrap();
        g.stream_increment(&[
            AddEdge((1, 2, 1)),
            AddLabeledEdge((0, 1, 5), 1),
            AddLabeledEdge((0, 1, 3), 2),
            AddEdge((3, 1, 1)),
            AddEdge((0, 3, 6)),
        ])
        .unwrap();
        g.stream_increment(&[UpdateWeight { u: 0, v: 1, w: 9 }]).unwrap();
        let ck = GraphCheckpoint::decode(&GraphCheckpoint::capture(&g).encode()).unwrap();
        let mut restored = ck.restore(builder()).unwrap();
        let want = [((0, 1, 9), 1), ((0, 1, 3), 2), ((3, 1, 1), 0), ((1, 2, 1), 0), ((0, 3, 6), 0)];
        assert_eq!(restored.live_labeled_edges(), want);
        // The re-weight meets the older copy (label 1, weight 9), not the
        // lighter one; the delete then takes that copy by its new weight.
        for step in [UpdateWeight { u: 0, v: 1, w: 2 }, DelEdge((0, 1, 2))] {
            g.stream_increment(&[step]).unwrap();
            restored.stream_increment(&[step]).unwrap();
            assert_eq!(restored.live_labeled_edges(), g.live_labeled_edges(), "after {step:?}");
            assert_eq!(restored.sync_values(), g.sync_values(), "after {step:?}");
        }
        assert_eq!(g.live_labeled_edges()[0], ((0, 1, 3), 2), "the younger copy survives");
        assert_eq!(g.sync_values()[2], Some(4), "0 -3-> 1 -1-> 2");
    }

    #[test]
    fn mutation_wire_roundtrip() {
        let muts = vec![
            GraphMutation::AddEdge((1, 2, 3)),
            GraphMutation::DelEdge((4, 5, 6)),
            GraphMutation::AddLabeledEdge((2, 6, 1), 7),
            GraphMutation::UpdateWeight { u: 7, v: 8, w: 9 },
        ];
        assert_eq!(decode_mutations(&encode_mutations(&muts)).unwrap(), muts);
        assert_eq!(decode_mutations(&encode_mutations(&[])).unwrap(), vec![]);
        let mut bad = encode_mutations(&muts);
        bad[4] = 77;
        assert_eq!(decode_mutations(&bad), Err(CheckpointError::BadOpcode(77)));
        let long = [encode_mutations(&muts), vec![0]].concat();
        assert_eq!(
            decode_mutations(&long),
            Err(CheckpointError::Codec(bytes::Error::TrailingBytes))
        );
    }
}
