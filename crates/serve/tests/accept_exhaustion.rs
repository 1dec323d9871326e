//! The acceptor outlives an accept error. With every file descriptor of the
//! process taken, `accept` fails with `EMFILE` while a connection waits in
//! the backlog; once descriptors free up, the server must take that
//! connection and new ones. This file is its own test binary because it
//! exhausts its own process's descriptors, which would fail any test
//! running beside it. It changes no limit: it fills the one it finds.

use std::fs::File;
use std::net::TcpStream;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use amcca_serve::server::{IngestCore, ServeConfig, Server};
use amcca_serve::Client;
use amcca_sim::ChipConfig;
use sdgp_core::rpvo::RpvoConfig;
use sdgp_core::{BfsAlgo, StreamingGraph};

/// `EMFILE` on Linux: the process has no descriptor left.
const EMFILE: i32 = 24;

/// Opening more files than this to reach the limit is not worth a test run.
const MOST_FILES: u64 = 65_536;

/// The soft "Max open files" limit of this process, if Linux reports one.
fn soft_open_files_limit() -> Option<u64> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits.lines().find_map(|l| l.strip_prefix("Max open files"))?;
    line.split_whitespace().next()?.parse().ok()
}

#[test]
fn an_exhausted_descriptor_table_does_not_stop_the_acceptor() {
    let limit = match soft_open_files_limit() {
        Some(limit) if limit <= MOST_FILES => limit,
        other => {
            println!("skipped: open-files limit {other:?} is unknown or above {MOST_FILES}");
            return;
        }
    };
    let dir =
        std::env::temp_dir().join(format!("amcca-serve-accept-exhaustion-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let builder = StreamingGraph::builder(BfsAlgo::new(0))
        .vertices(8)
        .chip(ChipConfig::small_test())
        .rpvo(RpvoConfig::basic(4, 2));
    let (core, _) = IngestCore::boot(builder, &dir, 0).unwrap();
    let server = Server::start_loopback(core, ServeConfig::default()).unwrap();
    let addr = server.addr();

    let mut files = Vec::new();
    let full = loop {
        match File::open("/dev/null") {
            Ok(f) => files.push(f),
            Err(e) => break e,
        }
        assert!(files.len() as u64 <= limit, "opened more files than the limit allows");
    };
    assert_eq!(full.raw_os_error(), Some(EMFILE), "filling the table failed otherwise: {full}");
    // One descriptor for a connection, none for the acceptor to take it
    // with: the kernel queues it, and `accept` meets `EMFILE`.
    files.pop();
    let waiting = TcpStream::connect(addr).unwrap();
    thread::sleep(Duration::from_millis(100));
    drop(files);

    let (tx, rx) = mpsc::channel();
    let client = thread::spawn(move || {
        let stats = Client::connect(addr).and_then(|mut c| {
            let stats = c.stats()?;
            c.shutdown()?;
            Ok(stats)
        });
        let _ = tx.send(stats);
    });
    let stats = rx.recv_timeout(Duration::from_secs(30)).expect("the server answers in 30 s");
    client.join().expect("the client thread does not panic");
    let stats = stats.expect("the server accepts again once descriptors are free");
    assert_eq!(stats.live_edges, 0);
    drop(waiting);
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}
