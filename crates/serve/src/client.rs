//! A small blocking client for the ingestion server.
//!
//! Used by the served benchmark workloads (`benchmark/`) and the smoke
//! tests. One request is in flight per client at a time — the protocol is
//! strictly request/response per connection, and the interesting
//! concurrency lives server-side (many clients, one writer).

use std::collections::VecDeque;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::thread;
use std::time::Duration;

use sdgp_core::graph::GraphMutation;

use crate::proto::{read_frame, write_frame, Request, Response, ServerStats};

/// Outcome of a single submission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Submission {
    /// Applied: the increment containing the batch converged.
    Applied,
    /// Refused by admission control; retry after this long.
    RetryAfter(Duration),
}

/// One pushed subscription event (see [`Client::subscribe`] /
/// [`Client::next_event`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubEvent {
    /// An increment changed the query's result set: apply `added` and
    /// `removed` to the running set.
    Delta {
        /// The subscribed query id.
        qid: u32,
        /// Increment sequence number that produced the delta.
        batch_seq: u64,
        /// Vertices that newly match, ascending.
        added: Vec<u32>,
        /// Vertices that no longer match, ascending.
        removed: Vec<u32>,
    },
    /// The subscriber fell behind and deltas were dropped: replace the
    /// running set wholesale with `results`.
    Resync {
        /// The subscribed query id.
        qid: u32,
        /// Increment sequence number the snapshot is current as of.
        batch_seq: u64,
        /// Matching vertex ids, ascending.
        results: Vec<u32>,
    },
}

/// A connected client session.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    /// Pushed subscription frames that arrived while waiting for a request
    /// reply, in arrival order; drained by [`Client::next_event`].
    pending: VecDeque<SubEvent>,
    /// The id the server tracks this session's rate budget under.
    pub client_id: u32,
}

fn unexpected(resp: &Response) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("unexpected server response: {resp:?}"))
}

/// Split a frame into a pushed subscription event or a request reply.
fn as_event(resp: Response) -> Result<SubEvent, Response> {
    match resp {
        Response::QueryDelta { qid, batch_seq, added, removed } => {
            Ok(SubEvent::Delta { qid, batch_seq, added, removed })
        }
        Response::Resync { qid, batch_seq, results } => {
            Ok(SubEvent::Resync { qid, batch_seq, results })
        }
        other => Err(other),
    }
}

impl Client {
    /// Connect and complete the hello handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut c = Client { stream, pending: VecDeque::new(), client_id: 0 };
        match c.call(&Request::Hello)? {
            Response::Hello { client_id } => {
                c.client_id = client_id;
                Ok(c)
            }
            other => Err(unexpected(&other)),
        }
    }

    fn call(&mut self, req: &Request) -> io::Result<Response> {
        write_frame(&mut self.stream, &req.encode())?;
        self.read_reply()
    }

    /// Read frames until a request reply arrives, stashing any pushed
    /// subscription events that were already in flight.
    fn read_reply(&mut self) -> io::Result<Response> {
        loop {
            match as_event(Response::decode(&read_frame(&mut self.stream)?)?) {
                Ok(event) => self.pending.push_back(event),
                Err(reply) => return Ok(reply),
            }
        }
    }

    /// Submit one batch; a server-side refusal of the *content* (e.g. a
    /// delete naming no live copy) is an error, an admission refusal is
    /// [`Submission::RetryAfter`].
    pub fn submit(&mut self, muts: &[GraphMutation]) -> io::Result<Submission> {
        match self.call(&Request::Submit(muts.to_vec()))? {
            Response::Submitted => Ok(Submission::Applied),
            Response::RetryAfter { millis } => {
                Ok(Submission::RetryAfter(Duration::from_millis(millis)))
            }
            Response::Err(msg) => Err(io::Error::other(msg)),
            other => Err(unexpected(&other)),
        }
    }

    /// Submit, sleeping out admission backoffs, up to `max_attempts`.
    pub fn submit_retrying(&mut self, muts: &[GraphMutation], max_attempts: u32) -> io::Result<()> {
        for _ in 0..max_attempts {
            match self.submit(muts)? {
                Submission::Applied => return Ok(()),
                Submission::RetryAfter(backoff) => thread::sleep(backoff),
            }
        }
        Err(io::Error::new(io::ErrorKind::TimedOut, "admission kept refusing the batch"))
    }

    /// Read the converged per-vertex sync values.
    pub fn query(&mut self) -> io::Result<Vec<Option<u64>>> {
        match self.call(&Request::Query)? {
            Response::States(states) => Ok(states),
            other => Err(unexpected(&other)),
        }
    }

    /// Register a standing label-constrained path query from one source:
    /// [`Client::register_query_multi`] with `[source]`.
    pub fn register_query(&mut self, pattern: &str, source: u32) -> io::Result<u32> {
        self.register_query_multi(pattern, &[source])
    }

    /// Register a standing label-constrained path query anchored at several
    /// source vertices at once (results are the union over sources);
    /// returns the query id its results are read under. The registration is
    /// durable before the reply arrives — it survives a server crash and
    /// restart.
    pub fn register_query_multi(&mut self, pattern: &str, sources: &[u32]) -> io::Result<u32> {
        let req =
            Request::RegisterQueryMulti { pattern: pattern.to_string(), sources: sources.to_vec() };
        match self.call(&req)? {
            Response::QueryId { qid } => Ok(qid),
            Response::Err(msg) => Err(io::Error::other(msg)),
            other => Err(unexpected(&other)),
        }
    }

    /// Subscribe to push-delivered result deltas of a registered query.
    /// Returns `(batch_seq, results)` — the full result set the following
    /// [`SubEvent::Delta`]s apply on top of. After every applied increment
    /// that changes the result set, the server pushes one event, readable
    /// via [`Client::next_event`].
    pub fn subscribe(&mut self, qid: u32) -> io::Result<(u64, Vec<u32>)> {
        write_frame(&mut self.stream, &Request::Subscribe { qid }.encode())?;
        match self.read_reply()? {
            Response::Subscribed { qid: q, batch_seq, results } if q == qid => {
                Ok((batch_seq, results))
            }
            Response::Err(msg) => Err(io::Error::other(msg)),
            other => Err(unexpected(&other)),
        }
    }

    /// Cancel a subscription. Events already pushed may still be delivered
    /// by [`Client::next_event`] (they were produced before the server saw
    /// the unsubscribe); none arrive after this call returns.
    pub fn unsubscribe(&mut self, qid: u32) -> io::Result<()> {
        match self.call(&Request::Unsubscribe { qid })? {
            Response::Done => Ok(()),
            Response::Err(msg) => Err(io::Error::other(msg)),
            other => Err(unexpected(&other)),
        }
    }

    /// Next pushed subscription event, blocking until one arrives: first
    /// anything stashed while waiting for request replies, then the socket.
    pub fn next_event(&mut self) -> io::Result<SubEvent> {
        if let Some(event) = self.pending.pop_front() {
            return Ok(event);
        }
        match as_event(Response::decode(&read_frame(&mut self.stream)?)?) {
            Ok(event) => Ok(event),
            Err(reply) => Err(unexpected(&reply)),
        }
    }

    /// Read the current matches (ascending vertex ids) of a standing query.
    pub fn query_results(&mut self, qid: u32) -> io::Result<Vec<u32>> {
        match self.call(&Request::QueryResults { qid })? {
            Response::Matches(vs) => Ok(vs),
            Response::Err(msg) => Err(io::Error::other(msg)),
            other => Err(unexpected(&other)),
        }
    }

    /// Force a checkpoint now.
    pub fn checkpoint(&mut self) -> io::Result<()> {
        match self.call(&Request::Checkpoint)? {
            Response::Done => Ok(()),
            Response::Err(msg) => Err(io::Error::other(msg)),
            other => Err(unexpected(&other)),
        }
    }

    /// Read the server counters.
    pub fn stats(&mut self) -> io::Result<ServerStats> {
        match self.call(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(unexpected(&other)),
        }
    }

    /// Read the live observability snapshot (counters, gauges, latency
    /// histograms). Empty when the server runs with observability disabled.
    pub fn obs_stats(&mut self) -> io::Result<amcca_obs::MetricsSnapshot> {
        match self.call(&Request::ObsStats)? {
            Response::ObsStats(snap) => Ok(snap),
            other => Err(unexpected(&other)),
        }
    }

    /// Stop the server gracefully (flush, no checkpoint).
    pub fn shutdown(&mut self) -> io::Result<()> {
        match self.call(&Request::Shutdown)? {
            Response::Done => Ok(()),
            Response::Err(msg) => Err(io::Error::other(msg)),
            other => Err(unexpected(&other)),
        }
    }

    /// Stop the server as if it crashed (drop pending, no flush).
    pub fn kill(&mut self) -> io::Result<()> {
        match self.call(&Request::Kill)? {
            Response::Done => Ok(()),
            other => Err(unexpected(&other)),
        }
    }
}
