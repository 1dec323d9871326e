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
//!   **before** the action runs. A record payload is a one-byte kind —
//!   `0` = canonical mutation batch ([`encode_mutations`] body), `2` =
//!   standing-query registration (`u32` source count, that many `u32`
//!   sources, `u32` pattern length, pattern bytes) — length-prefixed and
//!   followed by its FNV-1a checksum; a torn trailing record (crash
//!   mid-append) is detected and dropped at load, never mistaken for data.
//!   Any other kind — the retired single-source kind `1` included — is
//!   refused as a corrupt record.
//!
//! Recovery cost is therefore `O(checkpoint) + O(tail)`: restore the
//! snapshot, replay only the actions applied since it was written — in
//! append order, so a query registered mid-stream re-registers against
//! exactly the edges that preceded it.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use sdgp_core::checkpoint::{decode_mutations, encode_mutations, fnv1a, CheckpointError, Reader};
use sdgp_core::graph::GraphMutation;
use sdgp_core::GraphCheckpoint;

use crate::ServeError;

/// Decode one checksum-valid record payload (kind byte + body).
fn decode_record(payload: &[u8]) -> Result<WalRecord, ServeError> {
    let corrupt = |what: &str| ServeError::WalReplay(format!("corrupt WAL record: {what}"));
    let cut = |e: CheckpointError| corrupt(&e.to_string());
    let mut r = Reader::new(payload);
    match r.u8() {
        Ok(0) => Ok(WalRecord::Batch(decode_mutations(r.rest())?)),
        Ok(2) => {
            let sources = r.u32s().map_err(cut)?;
            let len = r.u32().map_err(cut)? as usize;
            let pattern = std::str::from_utf8(r.bytes(len).map_err(cut)?)
                .map_err(|_| corrupt("register pattern is not UTF-8"))?
                .to_string();
            r.finish().map_err(cut)?;
            Ok(WalRecord::Register { pattern, sources })
        }
        _ => Err(corrupt("unknown record kind")),
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

/// File name of the checkpoint inside a store directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.bin";
/// File name of the write-ahead log inside a store directory.
pub const WAL_FILE: &str = "wal.bin";

/// One durable action in the write-ahead log, in append order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A canonical mutation batch (applied as one `stream_increment`).
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
    /// dropped — that is mid-log corruption, not a torn tail.
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
                    if frame_at(&bytes, probe).is_some() {
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

    /// Append one canonical batch to the WAL and sync it to disk. Returns
    /// the record size in bytes, and only once the record is durable —
    /// callers apply the batch *after*.
    pub fn append_batch(&mut self, muts: &[GraphMutation]) -> io::Result<u64> {
        let mut payload = Vec::with_capacity(5 + muts.len() * 14);
        payload.push(0);
        payload.extend_from_slice(&encode_mutations(muts));
        self.append_record(&payload)
    }

    /// Append one standing-query registration to the WAL and sync it.
    /// Returns the record size in bytes, and only once the record is
    /// durable — callers register *after*.
    pub fn append_register(&mut self, pattern: &str, sources: &[u32]) -> io::Result<u64> {
        let mut payload = Vec::with_capacity(9 + sources.len() * 4 + pattern.len());
        payload.push(2);
        payload.extend_from_slice(&(sources.len() as u32).to_le_bytes());
        for s in sources {
            payload.extend_from_slice(&s.to_le_bytes());
        }
        payload.extend_from_slice(&(pattern.len() as u32).to_le_bytes());
        payload.extend_from_slice(pattern.as_bytes());
        self.append_record(&payload)
    }

    fn append_record(&mut self, payload: &[u8]) -> io::Result<u64> {
        let mut rec = Vec::with_capacity(12 + payload.len());
        rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        rec.extend_from_slice(payload);
        rec.extend_from_slice(&fnv1a(payload).to_le_bytes());
        self.wal.write_all(&rec)?;
        self.wal.sync_data()?;
        Ok(rec.len() as u64)
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

    #[test]
    fn checkpoint_truncates_the_wal() {
        let dir = tmp_dir("truncate");
        let mut s = Store::open(&dir).unwrap();
        s.append_batch(&batch(0)).unwrap();
        let ck = GraphCheckpoint {
            n_vertices: 4,
            edges: vec![(0, 1, 1)],
            labels: vec![2],
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
            edges: vec![(0, 1, 1)],
            labels: vec![0],
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
