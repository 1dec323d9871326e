//! The durability store: checkpoint file + write-ahead mutation log.
//!
//! A store directory holds two files:
//!
//! * `checkpoint.bin` — the latest [`GraphCheckpoint`] in its versioned,
//!   checksummed codec. Replaced **atomically** (write to a temp file,
//!   `sync`, `rename`, then fsync the *directory* so the rename itself is
//!   durable), so a crash mid-checkpoint leaves the previous checkpoint
//!   intact; writing it truncates the WAL, because everything the WAL
//!   carried is now inside the snapshot. The directory fsync MUST land
//!   between the rename and the truncation: a crash after an un-synced
//!   rename but after the truncate would leave the *old* checkpoint on
//!   disk with an empty WAL — silently losing acknowledged batches.
//! * `wal.bin` — one record per applied action, appended and synced
//!   **after** the action applied and before it is acknowledged, so an
//!   action that fails to apply never reaches the log and no boot replays
//!   it into the same failure. A record payload is a one-byte kind —
//!   `0` = one service round's admitted submissions, concatenated in
//!   arrival order (an `encode_mutations` body; re-staged on the log they
//!   were admitted against, they coalesce to the batch the round applied),
//!   `2` = standing-query registration (its sources, then its pattern: the
//!   two fields a checkpoint stores per query, in the [`amcca_obs::bytes`]
//!   layouts) — length-prefixed and followed by its FNV-1a checksum; a torn
//!   trailing record (crash mid-append) is detected and dropped at load,
//!   never mistaken for data.
//!   Any other kind — the retired single-source kind `1` included — is
//!   refused as a corrupt record.
//!
//! Recovery cost is therefore `O(checkpoint) + O(tail)`: restore the
//! snapshot, replay only the actions applied since it was written — in
//! append order, so a query registered mid-stream re-registers against
//! exactly the edges that preceded it.

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use amcca_obs::bytes::{Reader, Writer};
use sdgp_core::checkpoint::{decode_mutations, fnv1a, write_mutations};
use sdgp_core::graph::GraphMutation;
use sdgp_core::GraphCheckpoint;

use crate::ServeError;

/// Decode one checksum-valid record payload (kind byte + body). Whatever
/// it refuses is a corrupt record.
fn decode_record(payload: &[u8]) -> Result<WalRecord, ServeError> {
    let corrupt =
        |what: &dyn fmt::Display| ServeError::WalReplay(format!("corrupt WAL record: {what}"));
    let mut r = Reader::new(payload);
    match r.u8() {
        Ok(0) => decode_mutations(r.rest()).map(WalRecord::Batch).map_err(|e| corrupt(&e)),
        Ok(2) => {
            let mut register = || {
                let sources = r.u32s()?;
                let pattern = r.str()?.to_string();
                r.finish().map(|()| WalRecord::Register { pattern, sources })
            };
            register().map_err(|e| corrupt(&e))
        }
        _ => Err(corrupt(&"unknown record kind")),
    }
}

/// Parse the record framed at `bytes[at..]`: `u32` length, payload,
/// `u64` FNV-1a checksum. Returns the payload and the offset one past the
/// record, or `None` if the bytes there are short or the checksum fails.
fn frame_at(bytes: &[u8], at: usize) -> Option<(&[u8], usize)> {
    let mut r = Reader::new(bytes.get(at..)?);
    let len = r.u32().ok()? as usize;
    let payload = r.bytes(len).ok()?;
    (fnv1a(payload) == r.u64().ok()?).then_some((payload, at + 12 + len))
}

/// Whether the bytes at `bytes[at..]` could frame a record
/// [`decode_record`] accepts: a known kind byte and a length its body
/// agrees with (kind 0: `count` mutations of 13–14 bytes each; kind 2:
/// exactly its sources and pattern). Every appended record passes, and the
/// test reads a few bytes where [`frame_at`] hashes the whole claimed
/// length.
fn plausible(bytes: &[u8], at: usize) -> bool {
    let mut r = Reader::new(&bytes[at..]);
    let (Ok(len), Ok(kind), Ok(count)) = (r.u32(), r.u8(), r.u32()) else { return false };
    let (len, count) = (u64::from(len), u64::from(count));
    match kind {
        0 => (5 + 13 * count..=5 + 14 * count).contains(&len),
        2 => r
            .bytes(4 * count as usize)
            .and_then(|_| r.u32())
            .is_ok_and(|pattern_len| len == 9 + 4 * count + u64::from(pattern_len)),
        _ => false,
    }
}

/// File name of the checkpoint inside a store directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.bin";
/// File name of the write-ahead log inside a store directory.
pub const WAL_FILE: &str = "wal.bin";

/// One durable action in the write-ahead log, in append order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// One round's admitted submissions in arrival order, applied as one
    /// increment: the canonical batch they coalesce to.
    Batch(Vec<GraphMutation>),
    /// A standing-query registration.
    Register {
        /// Query pattern over edge labels.
        pattern: String,
        /// Source vertices the paths start from.
        sources: Vec<u32>,
    },
}

/// An open store directory (module docs).
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    wal: File,
    /// Ordered trace of durability-relevant operations, recorded only
    /// under test so regression tests can pin the fsync ordering that a
    /// real crash would otherwise be needed to expose.
    #[cfg(test)]
    ops: Vec<&'static str>,
}

impl Store {
    /// Open (creating if absent) the store in `dir`.
    pub fn open(dir: &Path) -> io::Result<Store> {
        fs::create_dir_all(dir)?;
        let wal = OpenOptions::new().create(true).append(true).open(dir.join(WAL_FILE))?;
        let mut store = Store {
            dir: dir.to_path_buf(),
            wal,
            #[cfg(test)]
            ops: Vec::new(),
        };
        store.trace("create_wal");
        // Make the WAL's directory entry durable before any append: a
        // record synced into a file whose creation was never synced can
        // vanish wholesale with the file on a crash.
        store.sync_dir()?;
        Ok(store)
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    #[cfg(test)]
    fn trace(&mut self, op: &'static str) {
        self.ops.push(op);
    }

    #[cfg(not(test))]
    fn trace(&mut self, _op: &'static str) {}

    /// fsync the store directory itself, making any preceding rename or
    /// file creation durable (syncing a file does not sync the directory
    /// entry that names it).
    fn sync_dir(&mut self) -> io::Result<()> {
        File::open(&self.dir)?.sync_all()?;
        self.trace("sync_dir");
        Ok(())
    }

    /// Load the checkpoint, or `None` if one was never written. Corrupt
    /// bytes surface as an error — silently booting empty would discard
    /// acknowledged data.
    pub fn load_checkpoint(&self) -> Result<Option<GraphCheckpoint>, ServeError> {
        let path = self.dir.join(CHECKPOINT_FILE);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        Ok(Some(GraphCheckpoint::decode(&bytes)?))
    }

    /// Load the WAL tail: every intact record, in append order. A torn
    /// trailing record (short bytes or checksum mismatch at the very end)
    /// is dropped; corruption *before* the tail is an error. The two are
    /// told apart by scanning ahead after the first bad record: a torn
    /// append leaves only garbage behind it, so if ANY later offset still
    /// frames a checksum-valid record, intact data would be silently
    /// dropped — that is mid-log corruption, not a torn tail. The scan
    /// hashes only offsets that pass a cheap `plausible` filter, so a
    /// torn large record no longer costs one hash of garbage per later byte.
    pub fn load_tail(&self) -> Result<Vec<WalRecord>, ServeError> {
        let mut bytes = Vec::new();
        File::open(self.dir.join(WAL_FILE))?.read_to_end(&mut bytes)?;
        let mut out = Vec::new();
        let mut at = 0usize;
        while at < bytes.len() {
            let Some((payload, next)) = frame_at(&bytes, at) else {
                // The scan stopped before the end of the log. Torn tail or
                // mid-log corruption? Look for any intact record beyond
                // the stop point before deciding it is safe to drop.
                for probe in at + 1..bytes.len() {
                    if plausible(&bytes, probe) && frame_at(&bytes, probe).is_some() {
                        return Err(ServeError::WalReplay(format!(
                            "WAL corrupt at byte {at}: intact record found at byte {probe} \
                             beyond the damage — refusing to silently drop it"
                        )));
                    }
                }
                break; // torn mid-append: the tail genuinely ends here
            };
            // A checksum-valid record that fails to decode is corruption,
            // not a torn tail.
            out.push(decode_record(payload)?);
            at = next;
        }
        Ok(out)
    }

    /// Append one round's mutations to the WAL and sync it to disk. Returns
    /// the record size in bytes, and only once the record is durable —
    /// callers apply the round *before* and acknowledge it *after*.
    pub fn append_batch(&mut self, muts: &[GraphMutation]) -> io::Result<u64> {
        let mut w = Writer::with_capacity(5 + muts.len() * 14);
        write_mutations(w.u8(0), muts);
        self.append_record(w.as_bytes())
    }

    /// Append one standing-query registration to the WAL and sync it.
    /// Returns the record size in bytes, and only once the record is
    /// durable — callers register *before* and acknowledge it *after*.
    pub fn append_register(&mut self, pattern: &str, sources: &[u32]) -> io::Result<u64> {
        let mut w = Writer::with_capacity(9 + sources.len() * 4 + pattern.len());
        self.append_record(w.u8(2).u32s(sources).str(pattern).as_bytes())
    }

    fn append_record(&mut self, payload: &[u8]) -> io::Result<u64> {
        let mut rec = Writer::with_capacity(12 + payload.len());
        rec.u32(payload.len() as u32).bytes(payload).u64(fnv1a(payload));
        self.wal.write_all(rec.as_bytes())?;
        self.wal.sync_data()?;
        Ok(rec.as_bytes().len() as u64)
    }

    /// Atomically replace the checkpoint and truncate the WAL (module
    /// docs). Returns the checkpoint size in bytes.
    pub fn write_checkpoint(&mut self, ck: &GraphCheckpoint) -> io::Result<u64> {
        let bytes = ck.encode();
        let tmp = self.dir.join("checkpoint.tmp");
        {
            let mut f = File::create(&tmp)?;
            self.trace("write_tmp");
            f.write_all(&bytes)?;
            f.sync_all()?;
            self.trace("sync_tmp");
        }
        fs::rename(&tmp, self.dir.join(CHECKPOINT_FILE))?;
        self.trace("rename");
        // The rename must be durable BEFORE the WAL is truncated: syncing
        // the renamed file does not sync the directory entry, so without
        // this a crash could surface the old checkpoint next to an
        // already-empty WAL — losing every acknowledged batch the new
        // checkpoint was supposed to absorb.
        self.sync_dir()?;
        self.wal.set_len(0)?;
        self.trace("truncate_wal");
        self.wal.sync_data()?;
        self.trace("sync_wal");
        Ok(bytes.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Store {
        /// Make every later append fail with a real I/O error, by swapping
        /// the WAL handle for a read-only one (for other modules' tests).
        pub(crate) fn break_wal(&mut self) {
            self.wal = File::open(self.dir.join(WAL_FILE)).expect("an open store has a WAL");
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("amcca-serve-wal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn batch(i: u32) -> Vec<GraphMutation> {
        vec![GraphMutation::AddEdge((i, i + 1, 1)), GraphMutation::DelEdge((i, i + 2, 3))]
    }

    #[test]
    fn wal_appends_and_reloads_in_order() {
        let dir = tmp_dir("order");
        let mut s = Store::open(&dir).unwrap();
        assert!(s.load_checkpoint().unwrap().is_none());
        assert!(s.load_tail().unwrap().is_empty());
        s.append_batch(&batch(0)).unwrap();
        s.append_register("a.b*.c", &[3]).unwrap();
        s.append_register("d+", &[0, 2, 5]).unwrap();
        s.append_batch(&batch(10)).unwrap();
        drop(s);
        let s = Store::open(&dir).unwrap();
        assert_eq!(
            s.load_tail().unwrap(),
            vec![
                WalRecord::Batch(batch(0)),
                WalRecord::Register { pattern: "a.b*.c".into(), sources: vec![3] },
                WalRecord::Register { pattern: "d+".into(), sources: vec![0, 2, 5] },
                WalRecord::Batch(batch(10)),
            ],
            "records interleave in append order"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A checksum-valid record of the retired single-source kind 1 is
    /// refused, and a boot over it reports the refusal instead of panicking.
    #[test]
    fn retired_kind1_register_record_is_refused() {
        let dir = tmp_dir("kind1");
        let mut s = Store::open(&dir).unwrap();
        // Hand-frame the retired layout: kind 1, u32 source, u32 len, pattern.
        let pattern = b"a.b*.c";
        let mut payload = vec![1u8];
        payload.extend_from_slice(&7u32.to_le_bytes());
        payload.extend_from_slice(&(pattern.len() as u32).to_le_bytes());
        payload.extend_from_slice(pattern);
        s.append_record(&payload).unwrap();
        let refused = |e: &ServeError| matches!(e, ServeError::WalReplay(msg) if msg.contains("unknown record kind"));
        let err = s.load_tail().unwrap_err();
        assert!(refused(&err), "got: {err}");
        drop(s);
        let builder = sdgp_core::graph::StreamingGraph::builder(sdgp_core::apps::BfsAlgo::new(0))
            .vertices(8)
            .chip(amcca_sim::ChipConfig::small_test());
        let err = match crate::IngestCore::boot(builder, &dir, 0) {
            Ok(_) => panic!("boot accepted a kind-1 record"),
            Err(e) => e,
        };
        assert!(refused(&err), "got: {err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A checksum-valid register record with a byte after its pattern is
    /// corrupt, not a registration with garbage ignored.
    #[test]
    fn register_record_with_a_trailing_byte_is_refused() {
        let dir = tmp_dir("register-tail");
        let mut s = Store::open(&dir).unwrap();
        // Hand-frame kind 2: u32 count, sources, u32 len, pattern — plus one.
        let pattern = b"a.b*.c";
        let mut payload = vec![2u8];
        payload.extend_from_slice(&2u32.to_le_bytes());
        payload.extend_from_slice(&3u32.to_le_bytes());
        payload.extend_from_slice(&5u32.to_le_bytes());
        payload.extend_from_slice(&(pattern.len() as u32).to_le_bytes());
        payload.extend_from_slice(pattern);
        s.append_record(&payload).unwrap();
        let intact = WalRecord::Register { pattern: "a.b*.c".into(), sources: vec![3, 5] };
        assert_eq!(s.load_tail().unwrap(), vec![intact.clone()]);
        payload.push(0);
        s.append_record(&payload).unwrap();
        let err = s.load_tail().unwrap_err();
        assert!(
            matches!(&err, ServeError::WalReplay(msg) if msg.contains("bytes after the last")),
            "got: {err}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A checksum-valid batch record whose body is cut short is a corrupt
    /// WAL record, not a checkpoint error, and a boot over it says so.
    #[test]
    fn a_cut_short_batch_record_is_a_wal_error() {
        let dir = tmp_dir("short-batch");
        let mut s = Store::open(&dir).unwrap();
        // Kind 0 claiming two mutations, carrying one.
        let mut payload = Writer::default();
        payload.u8(0).u32(2).u8(0).u32(1).u32(2).u32(1);
        s.append_record(payload.as_bytes()).unwrap();
        let refused = |e: ServeError| {
            assert!(matches!(e, ServeError::WalReplay(_)), "got: {e}");
            assert_eq!(e.to_string(), "WAL replay failed: corrupt WAL record: field cut short");
        };
        refused(s.load_tail().unwrap_err());
        drop(s);
        let builder = sdgp_core::graph::StreamingGraph::builder(sdgp_core::apps::BfsAlgo::new(0))
            .vertices(8)
            .chip(amcca_sim::ChipConfig::small_test());
        match crate::IngestCore::boot(builder, &dir, 0) {
            Ok(_) => panic!("boot accepted a cut-short batch record"),
            Err(e) => refused(e),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_truncates_the_wal() {
        let dir = tmp_dir("truncate");
        let mut s = Store::open(&dir).unwrap();
        s.append_batch(&batch(0)).unwrap();
        let ck = GraphCheckpoint {
            n_vertices: 4,
            edges: vec![((0, 1, 1), 2)],
            promoted: vec![],
            sync_states: vec![Some(0), Some(1), None, None],
            queries: vec![("b".into(), vec![0])],
        };
        let size = s.write_checkpoint(&ck).unwrap();
        assert!(size > 0);
        assert!(s.load_tail().unwrap().is_empty(), "checkpoint absorbs the tail");
        assert_eq!(s.load_checkpoint().unwrap(), Some(ck));
        // Appends continue cleanly after truncation.
        s.append_batch(&batch(5)).unwrap();
        assert_eq!(s.load_tail().unwrap(), vec![WalRecord::Batch(batch(5))]);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Regression: the rename installing the new checkpoint must be made
    /// durable (directory fsync) BEFORE the WAL is truncated, else a crash
    /// between the two can surface the old checkpoint next to an empty WAL
    /// and lose acknowledged batches. A real crash can't run under `cargo
    /// test`, so the ordering is pinned through the store's op trace.
    #[test]
    fn checkpoint_syncs_directory_between_rename_and_truncate() {
        let dir = tmp_dir("fsync-order");
        let mut s = Store::open(&dir).unwrap();
        assert_eq!(s.ops, vec!["create_wal", "sync_dir"], "open syncs the created WAL's entry");
        s.ops.clear();
        s.append_batch(&batch(0)).unwrap();
        s.write_checkpoint(&GraphCheckpoint {
            n_vertices: 2,
            edges: vec![((0, 1, 1), 0)],
            promoted: vec![],
            sync_states: vec![Some(0), Some(1)],
            queries: vec![],
        })
        .unwrap();
        let rename = s.ops.iter().position(|&op| op == "rename").expect("rename traced");
        let sync_dir = s.ops.iter().position(|&op| op == "sync_dir").expect("dir fsync present");
        let truncate = s.ops.iter().position(|&op| op == "truncate_wal").expect("truncate traced");
        assert!(
            rename < sync_dir && sync_dir < truncate,
            "dir fsync must land between rename and WAL truncation, got {:?}",
            s.ops
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_trailing_record_is_dropped_not_fatal() {
        let dir = tmp_dir("torn");
        let mut s = Store::open(&dir).unwrap();
        s.append_batch(&batch(0)).unwrap();
        s.append_batch(&batch(10)).unwrap();
        let wal_path = dir.join(WAL_FILE);
        let full = fs::read(&wal_path).unwrap();
        for cut in [full.len() - 1, full.len() - 9, full.len() - 12] {
            fs::write(&wal_path, &full[..cut]).unwrap();
            let s = Store::open(&dir).unwrap();
            assert_eq!(s.load_tail().unwrap(), vec![WalRecord::Batch(batch(0))], "cut at {cut}");
        }
        // A flipped byte inside the trailing record is also a torn tail:
        // nothing intact lies beyond it.
        let mut flipped = full.clone();
        let n = flipped.len();
        flipped[n - 10] ^= 0xff;
        fs::write(&wal_path, &flipped).unwrap();
        assert_eq!(
            Store::open(&dir).unwrap().load_tail().unwrap(),
            vec![WalRecord::Batch(batch(0))]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Regression: the scan past a torn record used to hash, at every later
    /// offset, whatever length the garbage there claimed — seconds for one
    /// torn 20 000-mutation batch. Now it loads the intact prefix at once.
    #[test]
    fn torn_large_record_loads_quickly() {
        let dir = tmp_dir("torn-large");
        let mut s = Store::open(&dir).unwrap();
        let small: Vec<GraphMutation> = (0..4).flat_map(batch).collect();
        let mut x = 91u64;
        let large: Vec<GraphMutation> = (0..20_000)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let r = x >> 16;
                let (u, v) = ((r % 100_000) as u32, ((r >> 20) % 100_000) as u32);
                GraphMutation::AddEdge((u, v, (r >> 40) as u32 % 16 + 1))
            })
            .collect();
        s.append_batch(&small).unwrap();
        s.append_batch(&large).unwrap();
        let wal_path = dir.join(WAL_FILE);
        let full = fs::read(&wal_path).unwrap();
        fs::write(&wal_path, &full[..full.len() - 20]).unwrap();
        let s = Store::open(&dir).unwrap();
        let t0 = std::time::Instant::now();
        let tail = s.load_tail().unwrap();
        let took = t0.elapsed();
        assert_eq!(tail, vec![WalRecord::Batch(small)]);
        assert!(took < std::time::Duration::from_secs(1), "load_tail took {took:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Regression: a flipped byte in an *earlier* record used to stop the
    /// scan silently, dropping the intact records behind it — recovery
    /// would boot with acknowledged batches missing and no error. Mid-log
    /// corruption must surface as `WalReplay`, reserving the lossy path
    /// for genuinely torn tails.
    #[test]
    fn mid_log_corruption_is_an_error_not_silent_truncation() {
        let dir = tmp_dir("midlog");
        let mut s = Store::open(&dir).unwrap();
        s.append_batch(&batch(0)).unwrap();
        s.append_register("a.b*.c", &[1, 2]).unwrap();
        s.append_batch(&batch(10)).unwrap();
        let wal_path = dir.join(WAL_FILE);
        let full = fs::read(&wal_path).unwrap();
        // Corrupt the first record's payload: both later records are intact.
        let mut early = full.clone();
        early[5] ^= 0xff;
        fs::write(&wal_path, &early).unwrap();
        let err = Store::open(&dir).unwrap().load_tail().unwrap_err();
        assert!(
            matches!(&err, ServeError::WalReplay(msg) if msg.contains("intact record")),
            "mid-log corruption must refuse to drop intact records, got: {err}"
        );
        // Corrupting the middle record likewise errors (one intact behind).
        let mut mid = full.clone();
        let second = frame_at(&full, 0).expect("first record intact").1;
        mid[second + 5] ^= 0xff;
        fs::write(&wal_path, &mid).unwrap();
        assert!(matches!(
            Store::open(&dir).unwrap().load_tail().unwrap_err(),
            ServeError::WalReplay(_)
        ));
        fs::remove_dir_all(&dir).unwrap();
    }
}
