//! The CLI refuses a hostile packet count before doing any work: `clara
//! validate` and `clara profile` take `--packets` in `1..=1,000,000`, the
//! bound a served validate request has. Zero packets once produced a
//! "healthy" validation cell with 0 simulated cycles and exit 0, and
//! 10^12 packets aborted the process on a failed allocation (exit 134).

use std::process::Command;

#[test]
fn packet_counts_outside_the_bound_are_usage_errors() {
    for command in ["validate", "profile"] {
        for packets in ["0", "1000001", "1000000000000"] {
            let out = Command::new(env!("CARGO_BIN_EXE_clara"))
                .args([command, "nat", "--packets", packets])
                .output()
                .expect("clara starts");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(!stderr.contains("panicked"), "{command} --packets {packets}:\n{stderr}");
            assert_eq!(
                out.status.code(),
                Some(2),
                "{command} --packets {packets} must exit 2 (usage):\n{stderr}"
            );
            // Refused before the parameter extraction a valid run starts with.
            assert!(!stderr.contains("extracting"), "{command} --packets {packets}:\n{stderr}");
        }
    }
}
