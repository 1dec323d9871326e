//! The crate's two binaries driven as a user would: exit codes, the flag a
//! rejected input names, and `paper`'s scenario table as seen from outside.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The scenarios `paper` carries — the reproductions of the source paper's
/// tables and figures plus the rhizome follow-up's ablations — in `all`
/// order. Retiring or adding one is meant to show up here.
const SCENARIOS: [&str; 15] = [
    "table1",
    "table2",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "ablate-alloc",
    "ablate-edgecap",
    "ablate-ghosts",
    "ablate-terminator",
    "ablate-rhizomes",
    "loadmap",
    "skew",
    "churn",
    "verify",
];

fn run(bin: &str, args: &[&str]) -> (Option<i32>, String, String) {
    let Output { status, stdout, stderr } =
        Command::new(bin).args(args).output().expect("binary runs");
    (
        status.code(),
        String::from_utf8(stdout).expect("utf-8 stdout"),
        String::from_utf8(stderr).expect("utf-8 stderr"),
    )
}

fn paper(args: &[&str]) -> (Option<i32>, String, String) {
    run(env!("CARGO_BIN_EXE_paper"), args)
}

/// A 1-indexed path 1→2→3→4 (four vertices, ids 0..4 after loading).
fn path_graph(name: &str) -> PathBuf {
    let p = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&p, "1 2\n2 3\n3 4\n").expect("write edge file");
    p
}

fn amcca_run(edges: &Path, extra: &[&str]) -> (Option<i32>, String, String) {
    let mut args = vec!["--edges", edges.to_str().expect("utf-8 path")];
    args.extend_from_slice(extra);
    run(env!("CARGO_BIN_EXE_amcca-run"), &args)
}

#[test]
fn amcca_run_rejects_bad_input_with_exit_2_naming_the_flag() {
    let edges = path_graph("cli_bad_input.tsv");
    let cases: [(&[&str], &str); 8] = [
        (&["--chip", "0x4"], "--chip"),
        // 90 000 cells: their 16-bit ids would wrap.
        (&["--chip", "300x300"], "--chip"),
        (&["--edge-cap", "0"], "--edge-cap"),
        (&["--ghosts", "0"], "--ghosts"),
        (&["--ghosts", "17"], "--ghosts"),
        (&["--root", "99"], "--root"),
        (&["--root", "99", "--verify"], "--root"),
        // Ingestion only leaves no result to verify.
        (&["--verify", "--ingest-only"], "--verify"),
    ];
    for (extra, flag) in cases {
        let (code, _, stderr) = amcca_run(&edges, extra);
        assert_eq!(code, Some(2), "{extra:?} must exit 2, stderr: {stderr}");
        assert!(stderr.contains(flag), "{extra:?} must name {flag}, stderr: {stderr}");
        assert!(!stderr.contains("panicked"), "{extra:?} must not panic, stderr: {stderr}");
    }
}

#[test]
fn amcca_run_verifies_a_good_file() {
    let edges = path_graph("cli_good_input.tsv");
    let states = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli_cc_states.csv");
    let states = states.to_str().expect("utf-8 path");
    let inputs: [&[&str]; 3] = [
        &["--root", "0", "--verify"],
        &["--algo", "sssp", "--root", "0", "--verify"],
        // `cc` has no source vertex, so an out-of-range `--root` is not its error.
        &["--algo", "cc", "--symmetrize", "--root", "99", "--verify", "--states", states],
    ];
    for extra in inputs {
        let (code, stdout, stderr) = amcca_run(&edges, extra);
        assert_eq!(code, Some(0), "{extra:?} stderr: {stderr}");
        assert!(stdout.contains("verify: OK — all 4 vertices"), "{extra:?} stdout: {stdout}");
    }
    let csv = std::fs::read_to_string(states).expect("--states wrote its file");
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines[0], "vertex,state");
    assert_eq!(lines.len(), 1 + 4, "a header and one row per vertex: {csv}");
}

#[test]
fn paper_list_prints_the_scenario_table() {
    let (code, stdout, _) = paper(&["list"]);
    assert_eq!(code, Some(0));
    assert_eq!(stdout.lines().collect::<Vec<_>>(), SCENARIOS);
}

#[test]
fn paper_unknown_command_exits_2_and_lists_every_scenario() {
    // `serve` was a scenario once; the repo benchmark measures serving now.
    for cmd in ["nosuch", "serve"] {
        let (code, _, stderr) = paper(&[cmd]);
        assert_eq!(code, Some(2), "stderr: {stderr}");
        assert!(stderr.contains(&format!("unknown command {cmd}")), "stderr: {stderr}");
        let usage = stderr.lines().find(|l| l.starts_with("usage: paper <")).expect("usage line");
        let names = usage["usage: paper <".len()..].split('>').next().expect("closing bracket");
        let listed: Vec<&str> = names.split('|').collect();
        assert_eq!(listed, [&SCENARIOS[..], &["all", "list"]].concat());
    }
    let (code, _, stderr) = paper(&[]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("usage: paper <"), "stderr: {stderr}");
}

#[test]
fn paper_verify_passes_at_small_scale() {
    let (code, stdout, stderr) = paper(&["verify", "--scale", "small"]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(stdout.contains("verify: all increments match the reference oracle"));
}
