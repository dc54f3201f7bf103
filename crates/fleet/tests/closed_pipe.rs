//! A closed stdout is an I/O error, not a panic: `fleet` reports it on
//! stderr and exits 1.

use std::process::{Command, Stdio};

#[test]
fn a_closed_stdout_exits_1_without_a_panic() {
    let (reader, writer) = std::io::pipe().expect("open a pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_fleet"))
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("run fleet");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
