//! Printing commands run with stdout as a pipe nobody reads: a reader
//! that went away (`ytaudit topics | head -1`) must end in a quiet exit
//! 0, not a panic.

use std::process::{Command, Stdio};

/// The write end of a pipe whose read end is already closed: handed to
/// a process that exits without reading its stdin.
fn closed_pipe() -> Stdio {
    let mut reader = Command::new(env!("CARGO_BIN_EXE_ytaudit"))
        .arg("help")
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .spawn()
        .unwrap();
    let write_end = reader.stdin.take().unwrap();
    assert!(reader.wait().unwrap().success());
    Stdio::from(write_end)
}

#[test]
fn printing_commands_exit_quietly_on_a_closed_stdout() {
    for args in [&["topics"][..], &["quota", "--paper"]] {
        let output = Command::new(env!("CARGO_BIN_EXE_ytaudit"))
            .args(args)
            .stdout(closed_pipe())
            .stderr(Stdio::piped())
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.is_empty(), "{args:?}: {stderr}");
    }
}
