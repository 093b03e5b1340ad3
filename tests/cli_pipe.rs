//! The CLI and a closed stdout: when the reader of `clara`'s output goes
//! away (`clara hints … | head -4`), the process ends quietly, never with
//! a panic and exit code 101.

#[cfg(unix)]
#[test]
fn a_closed_stdout_ends_clara_without_a_panic() {
    use std::process::{Command, Stdio};

    let (reader, writer) = std::io::pipe().expect("pipe");
    // No reader left: the first write to the pipe fails.
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_clara"))
        .arg("--help")
        .stdout(Stdio::from(writer))
        .stderr(Stdio::piped())
        .output()
        .expect("clara starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "clara panicked:\n{stderr}");
    assert_ne!(out.status.code(), Some(101), "clara exited 101:\n{stderr}");
}
