//! Decoders never panic (ROADMAP 5(e), first slice). The five byte-level
//! decoders a peer or a disk can reach are fed arbitrary bytes and every
//! strict prefix of a valid encoding: none may panic, a prefix that cuts a
//! fixed-width or count-prefixed field is `Err` (only the two
//! to-end-of-frame strings — the query pattern and `Response::Err`'s
//! message — can be cut and still decode), a valid encoding with one byte
//! appended is `Err` (those two strings again excepted: they take it in),
//! and `decode ∘ encode = id` on generated values of every request and
//! response op.
//!
//! `amcca_obs::json::parse`, the text decoder, gets the same treatment —
//! arbitrary text never panics, no strict prefix of a metrics snapshot's
//! JSON parses — plus the two inputs that used to break it: nesting a
//! million levels deep (a stack overflow) and a 1 MiB string (quadratic).

use std::time::{Duration, Instant};

use amcca::amcca_obs::hist::BUCKETS;
use amcca::amcca_obs::json::{escape, parse, Json};
use amcca::amcca_obs::{HistSnapshot, Histogram, MetricsSnapshot, Registry};
use amcca::sdgp_core::checkpoint::{decode_mutations, encode_mutations, GraphCheckpoint};
use amcca::sdgp_core::graph::GraphMutation;
use amcca_serve::proto::{Request, Response, ServerStats};
use proptest::prelude::*;

/// Pattern syntax plus two multi-byte characters, so a cut can land in one.
const ALPHABET: [char; 8] = ['a', 'z', '.', '*', '+', '?', 'é', '→'];

/// JSON's structural characters, escapes, literal and number starts, and a
/// multi-byte character, so random text reaches every branch of the parser.
const JSON_ALPHABET: [char; 20] = [
    '{', '}', '[', ']', '"', '\\', ':', ',', ' ', '-', '.', '0', '7', 'e', 'u', 't', 'n', 'l', 'a',
    '→',
];

/// Feed `decode` every strict prefix of `bytes`: none may panic, and one
/// shorter than `fixed` (it cuts a fixed-width or counted field) must fail.
fn refuses_prefixes<T, E>(bytes: &[u8], fixed: usize, decode: impl Fn(&[u8]) -> Result<T, E>) {
    for cut in 0..bytes.len() {
        let refused = decode(&bytes[..cut]).is_err();
        assert!(refused || cut >= fixed, "prefix {cut} of {} bytes decoded", bytes.len());
    }
}

/// A valid encoding with one byte appended is refused: a decoder that has
/// read its last field checks that nothing follows.
fn refuses_one_more_byte<T, E>(bytes: &[u8], decode: impl Fn(&[u8]) -> Result<T, E>) {
    let longer = [bytes, &[0][..]].concat();
    assert!(decode(&longer).is_err(), "{} bytes and one more decoded", bytes.len());
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(
        op in 0u8..16,
        bytes in prop::collection::vec(any::<u8>(), 0..64),
        text in prop::collection::vec(0usize..JSON_ALPHABET.len(), 0..64),
    ) {
        let text: String = text.into_iter().map(|i| JSON_ALPHABET[i]).collect();
        let _ = parse(&text);
        let _ = parse(&String::from_utf8_lossy(&bytes));
        let _ = decode_mutations(&bytes);
        let _ = GraphCheckpoint::decode(&bytes);
        // A snapshot that decodes also renders.
        if let Ok(snap) = MetricsSnapshot::decode(&bytes) {
            let _ = snap.to_json();
        }
        // Bare, and behind a plausible opcode so the per-op parsers run.
        for framed in [bytes.clone(), [&[op][..], &bytes[..]].concat()] {
            let _ = Request::decode(&framed);
            if let Ok(Response::ObsStats(snap)) = Response::decode(&framed) {
                let _ = snap.to_json();
            }
        }
    }

    #[test]
    fn valid_encodings_roundtrip_and_refuse_prefixes(
        ws in prop::collection::vec(any::<u32>(), 0..6),
        text in prop::collection::vec(0usize..ALPHABET.len(), 0..8),
        n in any::<u64>(),
    ) {
        let text: String = text.into_iter().map(|i| ALPHABET[i]).collect();
        let (qid, batch_seq) = (n as u32, n.rotate_left(17));
        let muts: Vec<GraphMutation> = ws
            .iter()
            .map(|&w| match w % 4 {
                0 => GraphMutation::AddEdge((w, qid, 1)),
                1 => GraphMutation::DelEdge((qid, w, 2)),
                2 => GraphMutation::UpdateWeight { u: w, v: qid, w },
                _ => GraphMutation::AddLabeledEdge((w, w, qid), w as u8),
            })
            .collect();
        let states: Vec<Option<u64>> =
            ws.iter().map(|&w| (w % 2 == 1).then_some(n ^ w as u64)).collect();
        let mut hist = Histogram::default();
        for &w in &ws {
            hist.record(n ^ w as u64);
        }
        let snap = MetricsSnapshot {
            counters: ws.iter().map(|&w| (text.clone(), n ^ w as u64)).collect(),
            gauges: vec![(text.clone(), n as i64)],
            hists: vec![(text.clone(), hist.snapshot())],
        };
        let ck = GraphCheckpoint {
            n_vertices: qid,
            edges: ws.iter().map(|&w| (w, qid, 1)).collect(),
            labels: ws.iter().map(|&w| w as u8).collect(),
            promoted: ws.clone(),
            sync_states: states.clone(),
            queries: vec![(text.clone(), ws.clone())],
        };

        let bytes = encode_mutations(&muts);
        prop_assert_eq!(&decode_mutations(&bytes).unwrap(), &muts);
        refuses_prefixes(&bytes, bytes.len(), decode_mutations);
        refuses_one_more_byte(&bytes, decode_mutations);
        let bytes = ck.encode();
        prop_assert_eq!(&GraphCheckpoint::decode(&bytes).unwrap(), &ck);
        refuses_prefixes(&bytes, bytes.len(), GraphCheckpoint::decode);
        refuses_one_more_byte(&bytes, GraphCheckpoint::decode);
        let bytes = snap.encode();
        prop_assert_eq!(&MetricsSnapshot::decode(&bytes).unwrap(), &snap);
        refuses_prefixes(&bytes, bytes.len(), MetricsSnapshot::decode);
        refuses_one_more_byte(&bytes, MetricsSnapshot::decode);

        // The snapshot as JSON, its names carrying characters `escape`
        // rewrites: the whole document parses, a strict prefix of it never.
        let name = format!("{text}\"\\\t");
        let reg = Registry::default();
        for &w in &ws {
            reg.counter_add(&name, w as u64);
            reg.observe(&name, n ^ w as u64);
        }
        reg.gauge_set(&name, n as i64);
        let doc = reg.snapshot().to_json();
        let doc = doc.trim_end();
        prop_assert!(parse(doc).is_ok(), "{}", doc);
        for cut in (0..doc.len()).filter(|&cut| doc.is_char_boundary(cut)) {
            prop_assert!(parse(&doc[..cut]).is_err(), "prefix {} of {:?} parsed", cut, doc);
        }

        // One value of every op, beside the length of its fixed-width /
        // count-prefixed part where a to-end-of-frame string trails it.
        let requests = [
            (Request::Hello, None),
            (Request::Submit(muts), None),
            (Request::Query, None),
            (Request::Checkpoint, None),
            (Request::Stats, None),
            (Request::Shutdown, None),
            (Request::Kill, None),
            (Request::QueryResults { qid }, None),
            (Request::ObsStats, None),
            (Request::Subscribe { qid }, None),
            (Request::Unsubscribe { qid }, None),
            (
                Request::RegisterQueryMulti { pattern: text.clone(), sources: ws.clone() },
                Some(1 + 4 + 4 * ws.len()),
            ),
        ];
        for (r, fixed) in requests {
            let bytes = r.encode();
            prop_assert_eq!(&Request::decode(&bytes).unwrap(), &r);
            refuses_prefixes(&bytes, fixed.unwrap_or(bytes.len()), Request::decode);
            if fixed.is_none() {
                refuses_one_more_byte(&bytes, Request::decode);
            }
        }
        let stats = ServerStats { batches: n, last_checkpoint_bytes: !n, ..Default::default() };
        let responses = [
            (Response::Hello { client_id: qid }, None),
            (Response::Submitted, None),
            (Response::RetryAfter { millis: n }, None),
            (Response::States(states), None),
            (Response::Stats(stats), None),
            (Response::Done, None),
            (Response::Err(text), Some(1)),
            (Response::QueryId { qid }, None),
            (Response::Matches(ws.clone()), None),
            (Response::ObsStats(snap), None),
            (Response::Subscribed { qid, batch_seq, results: ws.clone() }, None),
            (Response::QueryDelta { qid, batch_seq, added: ws.clone(), removed: ws.clone() }, None),
            (Response::Resync { qid, batch_seq, results: ws }, None),
        ];
        for (r, fixed) in responses {
            let bytes = r.encode();
            prop_assert_eq!(&Response::decode(&bytes).unwrap(), &r);
            refuses_prefixes(&bytes, fixed.unwrap_or(bytes.len()), Response::decode);
            if fixed.is_none() {
                refuses_one_more_byte(&bytes, Response::decode);
            }
        }
    }
}

/// A count read from the wire bounds a loop, never an allocation: a
/// histogram claiming 2³² − 1 buckets with none following is `Err`. Nor does
/// a snapshot decode that would panic when rendered: a bucket index past the
/// last bucket (it overflowed a shift in `bucket_bounds`), counts that
/// overflow (an add in `percentile`), indices out of order, or counts that
/// do not sum to the histogram's count.
#[test]
fn a_hostile_bucket_count_is_an_error_not_an_allocation() {
    let mut bytes = vec![0u8; 8]; // no counters, no gauges
    bytes.extend_from_slice(&1u32.to_le_bytes()); // one histogram
    bytes.extend_from_slice(&[0u8; 2 + 32]); // empty name; count, sum, min, max
    bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // bucket count
    assert!(MetricsSnapshot::decode(&bytes).is_err());

    let last = (BUCKETS - 1) as u16;
    let cases: [(&[(u16, u64)], u64); 6] = [
        (&[(last + 1, 1)], 1),
        (&[(1, 5), (2, u64::MAX)], 10),
        (&[(2, 1), (1, 1)], 2),
        (&[(1, 1), (1, 1)], 2),
        (&[(1, 5)], 4),
        (&[(last, 2)], 2), // the one valid shape here
    ];
    for (i, (buckets, count)) in cases.into_iter().enumerate() {
        let hist = HistSnapshot { buckets: buckets.to_vec(), count, sum: 0, min: 0, max: 0 };
        let snap = MetricsSnapshot { hists: vec![("h".into(), hist)], ..Default::default() };
        let decoded = MetricsSnapshot::decode(&snap.encode());
        assert_eq!(decoded.is_ok(), i == 5, "case {i}: {buckets:?} count {count}");
        if let Ok(snap) = decoded {
            let _ = snap.to_json();
        }
    }
}

/// Nesting depth is bounded: a million `[` is an error, not a stack
/// overflow.
#[test]
fn deep_json_nesting_is_an_error_not_a_stack_overflow() {
    assert!(parse(&"[".repeat(1_000_000)).is_err());
    assert!(parse(&format!("{}{}", "[".repeat(100), "]".repeat(100))).is_ok());
}

/// Strings parse in linear time: a 1 MiB value, escapes and multi-byte
/// characters included, round-trips through `escape` inside a 5 s budget
/// (a linear parse takes milliseconds; re-validating the rest of the input
/// at every character took over 400 s in a release build).
#[test]
fn a_one_mib_json_string_parses_in_linear_time() {
    let value: String = "esc\"aped\\ \n → ".chars().cycle().take(1 << 20).collect();
    let doc = format!("{{\"k\": \"{}\"}}", escape(&value));
    let start = Instant::now();
    let parsed = parse(&doc).unwrap();
    let took = start.elapsed();
    assert_eq!(parsed.get("k").and_then(Json::as_str), Some(value.as_str()));
    assert!(took < Duration::from_secs(5), "1 MiB string took {took:?}");
}
