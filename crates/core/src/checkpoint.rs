//! Checkpoint serialization for the serving layer.
//!
//! A [`GraphCheckpoint`] captures everything the host needs to rebuild a
//! [`StreamingGraph`]'s exact converged state from disk:
//!
//! * the **live edge multiset** in insertion order at current weights (from
//!   the shared mutation log) — replaying it into a fresh graph reproduces
//!   the per-pair oldest-first copy order, so a write-ahead mutation tail
//!   replayed on top resolves deletes and re-weights to the same copies;
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
//! The binary format is little-endian with a magic, a version, and a
//! trailing FNV-1a checksum. [`encode_mutations`] / [`decode_mutations`]
//! share the per-mutation wire encoding with the serve crate's write-ahead
//! log and client protocol.

use std::fmt;

use amcca_sim::SimError;

use crate::apps::VertexAlgo;
use crate::graph::{GraphBuilder, GraphMutation, StreamEdge, StreamingGraph};

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
    /// The buffer is shorter than the structure it claims to hold.
    Truncated,
    /// The buffer holds bytes past the end of the structure it encodes.
    TrailingBytes,
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
    /// Rebuilding the graph failed in the simulator.
    Sim(SimError),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Truncated => write!(f, "checkpoint truncated"),
            CheckpointError::TrailingBytes => write!(f, "bytes after the last encoded field"),
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
            CheckpointError::Sim(e) => write!(f, "rebuild failed: {e:?}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<SimError> for CheckpointError {
    fn from(e: SimError) -> Self {
        CheckpointError::Sim(e)
    }
}

/// A point-in-time snapshot of a quiescent [`StreamingGraph`] (module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphCheckpoint {
    /// Vertex count the graph was built with.
    pub n_vertices: u32,
    /// Live edge multiset at current weights, in insertion order.
    pub edges: Vec<StreamEdge>,
    /// Per-edge labels, parallel to `edges`. Missing trailing entries encode
    /// as label 0.
    pub labels: Vec<u8>,
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
        let labeled = g.live_labeled_edges();
        GraphCheckpoint {
            n_vertices: g.n_vertices(),
            edges: labeled.iter().map(|&(e, _)| e).collect(),
            labels: labeled.iter().map(|&(_, l)| l).collect(),
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
            .enumerate()
            .map(|(i, &e)| match self.labels.get(i).copied().unwrap_or(0) {
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
        let mut out = Vec::with_capacity(32 + self.edges.len() * 13);
        out.extend_from_slice(&CHECKPOINT_MAGIC);
        put_u32(&mut out, CHECKPOINT_VERSION);
        put_u32(&mut out, self.n_vertices);
        put_u64(&mut out, self.edges.len() as u64);
        for (i, &(u, v, w)) in self.edges.iter().enumerate() {
            put_u32(&mut out, u);
            put_u32(&mut out, v);
            put_u32(&mut out, w);
            out.push(self.labels.get(i).copied().unwrap_or(0));
        }
        put_u32(&mut out, self.promoted.len() as u32);
        for &v in &self.promoted {
            put_u32(&mut out, v);
        }
        put_u32(&mut out, self.sync_states.len() as u32);
        for s in &self.sync_states {
            match s {
                Some(v) => {
                    out.push(1);
                    put_u64(&mut out, *v);
                }
                None => out.push(0),
            }
        }
        put_u32(&mut out, self.queries.len() as u32);
        for (pattern, sources) in &self.queries {
            put_u32(&mut out, sources.len() as u32);
            for &s in sources {
                put_u32(&mut out, s);
            }
            put_u32(&mut out, pattern.len() as u32);
            out.extend_from_slice(pattern.as_bytes());
        }
        let sum = fnv1a(&out);
        put_u64(&mut out, sum);
        out
    }

    /// Deserialize, verifying magic, version, and checksum.
    pub fn decode(bytes: &[u8]) -> Result<GraphCheckpoint, CheckpointError> {
        if bytes.len() < 8 {
            return Err(CheckpointError::Truncated);
        }
        let (payload, tail) = bytes.split_at(bytes.len() - 8);
        let want = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
        if fnv1a(payload) != want {
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
        let mut labels = Vec::with_capacity(n_edges.min(1 << 20));
        for _ in 0..n_edges {
            edges.push((r.u32()?, r.u32()?, r.u32()?));
            labels.push(r.u8()?);
        }
        let promoted = r.u32s()?;
        let sync_states = r.opt_u64s()?;
        let n_queries = r.u32()? as usize;
        let mut queries = Vec::with_capacity(n_queries.min(1 << 16));
        for _ in 0..n_queries {
            let sources = r.u32s()?;
            let len = r.u32()? as usize;
            let pattern = std::str::from_utf8(r.bytes(len)?)
                .map_err(|_| CheckpointError::BadQuery("pattern is not UTF-8".into()))?
                .to_string();
            queries.push((pattern, sources));
        }
        r.finish()?;
        Ok(GraphCheckpoint { n_vertices, edges, labels, promoted, sync_states, queries })
    }
}

/// Append one mutation's wire encoding (opcode byte + three `u32`s; opcode 3
/// — a labeled insert — carries one trailing label byte) — shared by the
/// serve crate's write-ahead log and client protocol.
pub fn encode_mutation(m: &GraphMutation, out: &mut Vec<u8>) {
    let (op, u, v, w, label) = match *m {
        GraphMutation::AddEdge((u, v, w)) => (0u8, u, v, w, None),
        GraphMutation::DelEdge((u, v, w)) => (1, u, v, w, None),
        GraphMutation::UpdateWeight { u, v, w } => (2, u, v, w, None),
        GraphMutation::AddLabeledEdge((u, v, w), l) => (3, u, v, w, Some(l)),
    };
    out.push(op);
    put_u32(out, u);
    put_u32(out, v);
    put_u32(out, w);
    if let Some(l) = label {
        out.push(l);
    }
}

/// Serialize a mutation batch (count-prefixed).
pub fn encode_mutations(muts: &[GraphMutation]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + muts.len() * 13);
    put_u32(&mut out, muts.len() as u32);
    for m in muts {
        encode_mutation(m, &mut out);
    }
    out
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

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A bounds-checked cursor over encoded bytes — what this module's decoders
/// and `amcca-serve`'s frame and WAL-record decoders are written on. Every
/// read returns the field or [`CheckpointError::Truncated`]; a decoder ends
/// with [`Reader::finish`], which refuses leftovers.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Start reading at the first byte of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// The next `n` bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self.pos.checked_add(n).ok_or(CheckpointError::Truncated)?;
        if end > self.buf.len() {
            return Err(CheckpointError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Everything not yet read (a to-end-of-buffer field).
    pub fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }

    /// The structure is fully read: anything left over is an error.
    pub fn finish(&self) -> Result<(), CheckpointError> {
        (self.pos == self.buf.len()).then_some(()).ok_or(CheckpointError::TrailingBytes)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.bytes(1)?[0])
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().expect("4 bytes")))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().expect("8 bytes")))
    }

    /// A `u32` count, then that many `u32`s. The count bounds the read, never
    /// an allocation: the list's bytes are taken before anything is built.
    pub fn u32s(&mut self) -> Result<Vec<u32>, CheckpointError> {
        let n = self.u32()? as usize;
        let raw = self.bytes(n.checked_mul(4).ok_or(CheckpointError::Truncated)?)?;
        Ok(raw
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
            .collect())
    }

    /// A `u32` count, then that many optional `u64`s: a presence byte (0 =
    /// `None`), followed when present by the value.
    pub fn opt_u64s(&mut self) -> Result<Vec<Option<u64>>, CheckpointError> {
        let n = self.u32()? as usize;
        let mut out = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            out.push(match self.u8()? {
                0 => None,
                _ => Some(self.u64()?),
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use amcca_sim::ChipConfig;

    use super::*;
    use crate::apps::BfsAlgo;
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
            edges: vec![(0, 1, 5), (1, 2, 7), (0, 1, 5)],
            labels: vec![0, 2, 26],
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
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&CHECKPOINT_MAGIC);
            put_u32(&mut bytes, version);
            put_u32(&mut bytes, 4); // n_vertices
            put_u64(&mut bytes, 1); // edge count
            for x in [0, 1, 5] {
                put_u32(&mut bytes, x);
            }
            if version == 2 {
                bytes.push(2); // v2 added the label byte
            }
            put_u32(&mut bytes, 0); // promoted count
            put_u32(&mut bytes, 1); // sync count
            bytes.push(0); // None
            if version == 2 {
                // ... and a query section with one u32 source per query.
                put_u32(&mut bytes, 1); // query count
                put_u32(&mut bytes, 3); // source
                put_u32(&mut bytes, 2); // pattern length
                bytes.extend_from_slice(b"b+");
            }
            let sum = fnv1a(&bytes);
            put_u64(&mut bytes, sum);
            assert_eq!(GraphCheckpoint::decode(&bytes), Err(CheckpointError::BadVersion(version)));
        }
    }

    #[test]
    fn corruption_is_detected() {
        let ck = GraphCheckpoint {
            n_vertices: 4,
            edges: vec![(0, 1, 1)],
            labels: vec![0],
            promoted: vec![],
            sync_states: vec![Some(0), Some(1), None, None],
            queries: vec![],
        };
        let mut bytes = ck.encode();
        bytes[10] ^= 0xff;
        assert_eq!(GraphCheckpoint::decode(&bytes), Err(CheckpointError::BadChecksum));
        assert_eq!(GraphCheckpoint::decode(&bytes[..6]), Err(CheckpointError::Truncated));
        // A checksum-covered byte past the last query is not ignored.
        let mut long = ck.encode();
        long.truncate(long.len() - 8);
        long.push(0);
        let sum = fnv1a(&long);
        put_u64(&mut long, sum);
        assert_eq!(GraphCheckpoint::decode(&long), Err(CheckpointError::TrailingBytes));
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
        assert_eq!(ck.labels, vec![1, 2, 3]);
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
        assert_eq!(decode_mutations(&long), Err(CheckpointError::TrailingBytes));
    }
}
