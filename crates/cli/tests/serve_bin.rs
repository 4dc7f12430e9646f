//! The `mmd-serve` binary is `mmd-cli serve` under its own name: it parses
//! the same flags (including `--super-shards`, the two-level engine) and
//! serves the wire protocol.

use mmd_serve::WireClient;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

#[test]
fn mmd_serve_takes_the_serve_flags_and_serves_two_level() {
    let input = std::env::temp_dir().join(format!("mmd-serve-bin-{}.json", std::process::id()));
    let generated = Command::new(env!("CARGO_BIN_EXE_mmd-cli"))
        .args(["gen", "--kind", "clustered", "--seed", "1", "--out"])
        .arg(&input)
        .status()
        .expect("run mmd-cli gen");
    assert!(generated.success());

    let mut daemon = Command::new(env!("CARGO_BIN_EXE_mmd-serve"))
        .arg("--input")
        .arg(&input)
        .args([
            "--addr",
            "127.0.0.1:0",
            "--shard-size",
            "16",
            "--super-shards",
            "4",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn mmd-serve");
    let mut announce = String::new();
    BufReader::new(daemon.stderr.take().expect("stderr"))
        .read_line(&mut announce)
        .expect("listening line");
    let addr = announce
        .strip_prefix("mmd-serve listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("unexpected first line: {announce}"));

    let mut client = WireClient::connect(addr).expect("connect");
    assert_eq!(client.health().expect("health").status, "ok");
    assert_eq!(client.metrics().expect("metrics").super_shards, 4);
    client.shutdown().expect("shutdown");
    drop(client);
    let output = daemon.wait_with_output().expect("daemon exits");
    std::fs::remove_file(&input).ok();
    assert!(output.status.success());
    let summary = String::from_utf8_lossy(&output.stdout);
    assert!(summary.starts_with("served "), "{summary}");
}
