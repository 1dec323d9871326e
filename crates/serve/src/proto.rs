//! The framed wire protocol between clients and the ingestion server.
//!
//! Every message is one **frame**: a little-endian `u32` byte length
//! followed by that many payload bytes ([`write_frame`] / [`read_frame`]).
//! Payloads are a one-byte opcode plus fixed-width little-endian fields;
//! mutation batches reuse the count-prefixed encoding shared with the
//! write-ahead log ([`sdgp_core::checkpoint::encode_mutations`]), so a
//! submission's wire bytes are byte-identical to its WAL record payload.
//! No external serialization crate is involved.

use std::io::{self, Read, Write};

use amcca_obs::MetricsSnapshot;
use sdgp_core::checkpoint::{decode_mutations, encode_mutations, CheckpointError, Reader};
use sdgp_core::graph::GraphMutation;

/// Upper bound on a single frame, protecting the server from a garbage
/// length prefix.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Write one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Most a frame header alone can make [`read_frame`] allocate; beyond this
/// the buffer grows only with payload bytes that actually arrived.
const FRAME_PREALLOC: usize = 64 * 1024;

/// Read one length-prefixed frame. The length prefix is unauthenticated, so
/// it bounds the read but not the allocation: a peer that sends four bytes
/// and stalls pins at most 64 KiB, not [`MAX_FRAME`].
pub fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "frame too large"));
    }
    let len = len as usize;
    let mut buf = Vec::with_capacity(len.min(FRAME_PREALLOC));
    if r.by_ref().take(len as u64).read_to_end(&mut buf)? < len {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "frame body cut short"));
    }
    Ok(buf)
}

fn malformed(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("malformed message: {what}"))
}

/// What a [`Reader`] refused — a field cut short, bytes left over — as a
/// malformed message.
fn bad(e: CheckpointError) -> io::Error {
    match e {
        CheckpointError::Truncated => malformed("field cut short"),
        other => malformed(&other.to_string()),
    }
}

/// Cumulative server-side counters, queryable over the wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Increments applied (one per coalesced service round).
    pub batches: u64,
    /// Canonical mutations applied across all increments.
    pub mutations: u64,
    /// Live edges in the graph right now.
    pub live_edges: u64,
    /// Checkpoints written.
    pub checkpoints: u64,
    /// Submissions refused by admission control.
    pub rejected: u64,
    /// Batches in the write-ahead tail (replayed on a crash right now).
    pub wal_tail_batches: u64,
    /// Size of the most recent checkpoint, in bytes.
    pub last_checkpoint_bytes: u64,
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Open a session; the server answers with the assigned client id.
    Hello,
    /// Submit a mutation batch for ingestion.
    Submit(Vec<GraphMutation>),
    /// Read the converged per-vertex sync values.
    Query,
    /// Force a checkpoint now.
    Checkpoint,
    /// Read the server counters.
    Stats,
    /// Stop gracefully: flush pending work, then exit (no checkpoint — the
    /// WAL tail carries the last batches, exercising recovery on restart).
    Shutdown,
    /// Stop *as if crashed*: drop everything not yet in the WAL and exit
    /// without flushing or checkpointing. Test and fault-injection hook.
    Kill,
    /// Read the current result set (matching vertex ids) of a registered
    /// standing query.
    QueryResults {
        /// The id [`Response::QueryId`] assigned at registration.
        qid: u32,
    },
    /// Read the live observability snapshot: every counter, gauge, and
    /// latency histogram the server's [`amcca_obs::Obs`] handle has
    /// accumulated (empty when the server runs with observability
    /// disabled). The simulated-time counters stay on [`Request::Stats`].
    ObsStats,
    /// Subscribe to push-delivered result deltas of a registered standing
    /// query. The server answers [`Response::Subscribed`] with the current
    /// result snapshot (the subscriber's baseline), then pushes one
    /// [`Response::QueryDelta`] after every increment that changes the
    /// result set — or [`Response::Resync`] if the subscriber fell behind.
    Subscribe {
        /// The id [`Response::QueryId`] assigned at registration.
        qid: u32,
    },
    /// Cancel a subscription; acknowledged with [`Response::Done`]. Deltas
    /// already queued may still arrive before the ack.
    Unsubscribe {
        /// The subscribed query id.
        qid: u32,
    },
    /// Register a standing label-constrained path query anchored at one or
    /// several source vertices (one compiled automaton, one state plane —
    /// results are the union over sources). Answered with
    /// [`Response::QueryId`], the id its results are read under. The one
    /// registration op: the single-source op 7 is retired and refused.
    RegisterQueryMulti {
        /// Query pattern over edge labels (e.g. `a.b*.c`).
        pattern: String,
        /// Source vertices the paths may start from (non-empty).
        sources: Vec<u32>,
    },
}

impl Request {
    /// Serialize to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Request::Hello => vec![0],
            Request::Submit(muts) => {
                let body = encode_mutations(muts);
                let mut out = Vec::with_capacity(1 + body.len());
                out.push(1);
                out.extend_from_slice(&body);
                out
            }
            Request::Query => vec![2],
            Request::Checkpoint => vec![3],
            Request::Stats => vec![4],
            Request::Shutdown => vec![5],
            Request::Kill => vec![6],
            Request::QueryResults { qid } => {
                let mut out = vec![8];
                out.extend_from_slice(&qid.to_le_bytes());
                out
            }
            Request::ObsStats => vec![9],
            Request::Subscribe { qid } => {
                let mut out = vec![10];
                out.extend_from_slice(&qid.to_le_bytes());
                out
            }
            Request::Unsubscribe { qid } => {
                let mut out = vec![11];
                out.extend_from_slice(&qid.to_le_bytes());
                out
            }
            Request::RegisterQueryMulti { pattern, sources } => {
                let mut out = Vec::with_capacity(5 + sources.len() * 4 + pattern.len());
                out.push(12);
                put_u32s(&mut out, sources);
                out.extend_from_slice(pattern.as_bytes());
                out
            }
        }
    }

    /// Deserialize a frame payload.
    pub fn decode(payload: &[u8]) -> io::Result<Request> {
        let mut r = Reader::new(payload);
        let req = match r.u8().map_err(bad)? {
            0 => Request::Hello,
            1 => Request::Submit(decode_mutations(r.rest()).map_err(bad)?),
            2 => Request::Query,
            3 => Request::Checkpoint,
            4 => Request::Stats,
            5 => Request::Shutdown,
            6 => Request::Kill,
            8 => Request::QueryResults { qid: r.u32().map_err(bad)? },
            9 => Request::ObsStats,
            10 => Request::Subscribe { qid: r.u32().map_err(bad)? },
            11 => Request::Unsubscribe { qid: r.u32().map_err(bad)? },
            12 => {
                let sources = r.u32s().map_err(bad)?;
                let pattern = std::str::from_utf8(r.rest())
                    .map_err(|_| malformed("query pattern is not UTF-8"))?
                    .to_string();
                Request::RegisterQueryMulti { pattern, sources }
            }
            _ => return Err(malformed("unknown request")),
        };
        r.finish().map_err(bad)?;
        Ok(req)
    }
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Session opened; the id admission control tracks this client under.
    Hello {
        /// Server-assigned client id.
        client_id: u32,
    },
    /// The submission was applied: the increment containing it converged.
    Submitted,
    /// The submission was refused; retry after this many milliseconds.
    RetryAfter {
        /// Backoff hint in milliseconds.
        millis: u64,
    },
    /// Converged per-vertex sync values (`None` = unreached).
    States(Vec<Option<u64>>),
    /// Server counters.
    Stats(ServerStats),
    /// The control request completed.
    Done,
    /// The request failed; the submission (if any) was not applied.
    Err(
        /// Human-readable reason.
        String,
    ),
    /// A standing query was registered under this id.
    QueryId {
        /// Id to pass to [`Request::QueryResults`].
        qid: u32,
    },
    /// The current matches of a standing query (ascending vertex ids).
    Matches(Vec<u32>),
    /// The live observability snapshot (see [`Request::ObsStats`]), carried
    /// in [`MetricsSnapshot::encode`]'s binary codec.
    ObsStats(MetricsSnapshot),
    /// Subscription opened: the query's full result set as of increment
    /// `batch_seq` — the baseline every following [`Response::QueryDelta`]
    /// applies on top of.
    Subscribed {
        /// The subscribed query id.
        qid: u32,
        /// Increment sequence number the snapshot is current as of.
        batch_seq: u64,
        /// Matching vertex ids, ascending.
        results: Vec<u32>,
    },
    /// Pushed after an increment that changed a subscribed query's result
    /// set: apply `added`/`removed` to the running set. Bit-identical to
    /// diffing polled [`Response::Matches`] before and after the increment.
    QueryDelta {
        /// The subscribed query id.
        qid: u32,
        /// Increment sequence number that produced the delta.
        batch_seq: u64,
        /// Vertices that newly match, ascending.
        added: Vec<u32>,
        /// Vertices that no longer match, ascending.
        removed: Vec<u32>,
    },
    /// Pushed instead of deltas when the subscriber's outbox overflowed:
    /// one or more deltas were dropped, so the running set is stale —
    /// replace it wholesale with this snapshot and continue from
    /// `batch_seq`.
    Resync {
        /// The subscribed query id.
        qid: u32,
        /// Increment sequence number the snapshot is current as of.
        batch_seq: u64,
        /// Matching vertex ids, ascending.
        results: Vec<u32>,
    },
}

/// Append `vs` to `out` as a `u32` count followed by the values (what
/// [`Reader::u32s`] reads back).
fn put_u32s(out: &mut Vec<u8>, vs: &[u32]) {
    out.extend_from_slice(&(vs.len() as u32).to_le_bytes());
    for v in vs {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

impl Response {
    /// Serialize to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Response::Hello { client_id } => {
                let mut out = vec![0];
                out.extend_from_slice(&client_id.to_le_bytes());
                out
            }
            Response::Submitted => vec![1],
            Response::RetryAfter { millis } => {
                let mut out = vec![2];
                out.extend_from_slice(&millis.to_le_bytes());
                out
            }
            Response::States(states) => {
                let mut out = Vec::with_capacity(5 + states.len() * 9);
                out.push(3);
                out.extend_from_slice(&(states.len() as u32).to_le_bytes());
                for s in states {
                    match s {
                        Some(v) => {
                            out.push(1);
                            out.extend_from_slice(&v.to_le_bytes());
                        }
                        None => out.push(0),
                    }
                }
                out
            }
            Response::Stats(s) => {
                let mut out = Vec::with_capacity(1 + 7 * 8);
                out.push(4);
                for field in [
                    s.batches,
                    s.mutations,
                    s.live_edges,
                    s.checkpoints,
                    s.rejected,
                    s.wal_tail_batches,
                    s.last_checkpoint_bytes,
                ] {
                    out.extend_from_slice(&field.to_le_bytes());
                }
                out
            }
            Response::Done => vec![5],
            Response::Err(msg) => {
                let mut out = Vec::with_capacity(1 + msg.len());
                out.push(6);
                out.extend_from_slice(msg.as_bytes());
                out
            }
            Response::QueryId { qid } => {
                let mut out = vec![7];
                out.extend_from_slice(&qid.to_le_bytes());
                out
            }
            Response::Matches(vs) => {
                let mut out = Vec::with_capacity(5 + vs.len() * 4);
                out.push(8);
                put_u32s(&mut out, vs);
                out
            }
            Response::ObsStats(snap) => {
                let body = snap.encode();
                let mut out = Vec::with_capacity(1 + body.len());
                out.push(9);
                out.extend_from_slice(&body);
                out
            }
            Response::Subscribed { qid, batch_seq, results } => {
                let mut out = Vec::with_capacity(17 + results.len() * 4);
                out.push(10);
                out.extend_from_slice(&qid.to_le_bytes());
                out.extend_from_slice(&batch_seq.to_le_bytes());
                put_u32s(&mut out, results);
                out
            }
            Response::QueryDelta { qid, batch_seq, added, removed } => {
                let mut out = Vec::with_capacity(21 + (added.len() + removed.len()) * 4);
                out.push(11);
                out.extend_from_slice(&qid.to_le_bytes());
                out.extend_from_slice(&batch_seq.to_le_bytes());
                put_u32s(&mut out, added);
                put_u32s(&mut out, removed);
                out
            }
            Response::Resync { qid, batch_seq, results } => {
                let mut out = Vec::with_capacity(17 + results.len() * 4);
                out.push(12);
                out.extend_from_slice(&qid.to_le_bytes());
                out.extend_from_slice(&batch_seq.to_le_bytes());
                put_u32s(&mut out, results);
                out
            }
        }
    }

    /// Deserialize a frame payload.
    pub fn decode(payload: &[u8]) -> io::Result<Response> {
        let mut r = Reader::new(payload);
        let resp = match r.u8().map_err(bad)? {
            0 => Response::Hello { client_id: r.u32().map_err(bad)? },
            1 => Response::Submitted,
            2 => Response::RetryAfter { millis: r.u64().map_err(bad)? },
            3 => Response::States(r.opt_u64s().map_err(bad)?),
            4 => {
                let mut field = || r.u64().map_err(bad);
                Response::Stats(ServerStats {
                    batches: field()?,
                    mutations: field()?,
                    live_edges: field()?,
                    checkpoints: field()?,
                    rejected: field()?,
                    wal_tail_batches: field()?,
                    last_checkpoint_bytes: field()?,
                })
            }
            5 => Response::Done,
            6 => Response::Err(String::from_utf8_lossy(r.rest()).into_owned()),
            7 => Response::QueryId { qid: r.u32().map_err(bad)? },
            8 => Response::Matches(r.u32s().map_err(bad)?),
            9 => Response::ObsStats(MetricsSnapshot::decode(r.rest()).map_err(|e| malformed(&e))?),
            10 => Response::Subscribed {
                qid: r.u32().map_err(bad)?,
                batch_seq: r.u64().map_err(bad)?,
                results: r.u32s().map_err(bad)?,
            },
            11 => Response::QueryDelta {
                qid: r.u32().map_err(bad)?,
                batch_seq: r.u64().map_err(bad)?,
                added: r.u32s().map_err(bad)?,
                removed: r.u32s().map_err(bad)?,
            },
            12 => Response::Resync {
                qid: r.u32().map_err(bad)?,
                batch_seq: r.u64().map_err(bad)?,
                results: r.u32s().map_err(bad)?,
            },
            _ => return Err(malformed("unknown response")),
        };
        r.finish().map_err(bad)?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let reqs = [
            Request::Hello,
            Request::Submit(vec![
                GraphMutation::AddEdge((1, 2, 3)),
                GraphMutation::DelEdge((4, 5, 6)),
                GraphMutation::AddLabeledEdge((2, 6, 1), 7),
                GraphMutation::UpdateWeight { u: 7, v: 8, w: 9 },
            ]),
            Request::Submit(vec![]),
            Request::Query,
            Request::Checkpoint,
            Request::Stats,
            Request::Shutdown,
            Request::Kill,
            Request::QueryResults { qid: 3 },
            Request::ObsStats,
            Request::Subscribe { qid: 2 },
            Request::Unsubscribe { qid: 2 },
            Request::RegisterQueryMulti { pattern: "a.b*.c".into(), sources: vec![0, 5, 9] },
            Request::RegisterQueryMulti { pattern: "d+".into(), sources: vec![] },
        ];
        for r in reqs {
            assert_eq!(Request::decode(&r.encode()).unwrap(), r);
        }
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[99]).is_err());
        assert!(Request::decode(&[2, 0]).is_err(), "trailing garbage rejected");
        let mut submit = Request::Submit(vec![GraphMutation::AddEdge((1, 2, 3))]).encode();
        submit.push(0);
        assert!(Request::decode(&submit).is_err(), "bytes after the last mutation rejected");
    }

    /// The retired single-source registration (op 7: `u32 source`, then the
    /// pattern) is refused like any unknown opcode; op 12 carries it.
    #[test]
    fn retired_op7_register_request_is_refused() {
        let mut payload = vec![7u8];
        payload.extend_from_slice(&12u32.to_le_bytes());
        payload.extend_from_slice(b"a.b*.c");
        let err = Request::decode(&payload).unwrap_err();
        assert!(err.to_string().contains("unknown request"), "got: {err}");
    }

    #[test]
    fn response_roundtrip() {
        let resps = [
            Response::Hello { client_id: 7 },
            Response::Submitted,
            Response::RetryAfter { millis: 12 },
            Response::States(vec![Some(0), None, Some(u64::MAX)]),
            Response::States(vec![]),
            Response::Stats(ServerStats {
                batches: 1,
                mutations: 2,
                live_edges: 3,
                checkpoints: 4,
                rejected: 5,
                wal_tail_batches: 6,
                last_checkpoint_bytes: 7,
            }),
            Response::Done,
            Response::Err("no live copy".into()),
            Response::QueryId { qid: 9 },
            Response::Matches(vec![1, 4, 1000]),
            Response::Matches(vec![]),
            Response::ObsStats(MetricsSnapshot::default()),
            Response::ObsStats({
                let obs = amcca_obs::Obs::enabled();
                obs.counter_add("wal.bytes", 4096);
                obs.gauge_set("serve.queue_depth", 3);
                obs.observe("span.wal_append_ns", 120_000);
                obs.snapshot()
            }),
            Response::Subscribed { qid: 1, batch_seq: 42, results: vec![3, 7, 11] },
            Response::Subscribed { qid: 0, batch_seq: 0, results: vec![] },
            Response::QueryDelta { qid: 1, batch_seq: 43, added: vec![2], removed: vec![3, 7] },
            Response::QueryDelta { qid: 9, batch_seq: 1, added: vec![], removed: vec![] },
            Response::Resync { qid: 1, batch_seq: 50, results: vec![2, 11] },
        ];
        for r in resps {
            assert_eq!(Response::decode(&r.encode()).unwrap(), r);
        }
        assert!(Response::decode(&[99]).is_err());
        assert!(Response::decode(&[8, 2, 0, 0, 0, 1, 0, 0, 0]).is_err(), "short match list");
        let mut short_delta =
            Response::QueryDelta { qid: 1, batch_seq: 2, added: vec![4], removed: vec![] }.encode();
        short_delta.truncate(short_delta.len() - 2);
        assert!(Response::decode(&short_delta).is_err(), "short delta list");
    }

    #[test]
    fn frames_roundtrip_and_bound_length() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap(), b"");
        assert!(read_frame(&mut r).is_err(), "EOF surfaces as an error");
        let huge = (MAX_FRAME + 1).to_le_bytes();
        let err = read_frame(&mut &huge[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn frame_header_alone_cannot_demand_the_full_allocation() {
        // The largest legal header, then a body that stops after 3 bytes.
        let mut wire = MAX_FRAME.to_le_bytes().to_vec();
        wire.extend_from_slice(b"abc");
        let err = read_frame(&mut &wire[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn large_submit_survives_framing() {
        // ~1 MiB on the wire: far past the capped initial buffer.
        let muts: Vec<GraphMutation> =
            (0..81_000u32).map(|i| GraphMutation::AddEdge((i, i ^ 0x5555, i % 97))).collect();
        let req = Request::Submit(muts);
        let payload = req.encode();
        assert!(payload.len() > 1 << 20);
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let mut r = &wire[..];
        let frame = read_frame(&mut r).unwrap();
        assert!(r.is_empty(), "exactly one frame consumed");
        assert_eq!(Request::decode(&frame).unwrap(), req);
    }
}
