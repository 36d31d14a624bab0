//! `picos` error paths as a process: bad input exits 1 with a message
//! naming the problem, never a panic (exit 101).

use std::process::Command;

/// Runs `picos` with the space-separated `args` and asserts it fails
/// cleanly with a message containing `needle`.
fn rejects(args: &str, needle: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_picos"))
        .args(args.split_whitespace())
        .output()
        .expect("spawn picos");
    let (code, err) = (out.status.code(), String::from_utf8_lossy(&out.stderr));
    assert_eq!(code, Some(1), "{args}: exit {code:?}, stderr: {err}");
    assert!(err.contains(needle), "{args}: {needle:?} not in: {err}");
    assert!(!err.contains("panicked"), "{args} panicked: {err}");
}

#[test]
fn options_a_command_does_not_read_are_rejected() {
    rejects(
        "run sparselu --engine cluster --shards 4 --threads 2",
        "--threads",
    );
    rejects(
        "run sparselu --engine cluster --workers 8 --thread 4",
        "--thread",
    );
    rejects("sweep cholesky --cluster-threads 2", "--cluster-threads");
}

#[test]
fn zero_picos_instances_is_a_config_error() {
    let msg = "at least one TRS and one DCT";
    rejects(
        "run sparselu --block 256 --engine hw-only --instances 0",
        msg,
    );
    rejects(
        "sweep sparselu --block 256 --engine hw-only --instances 0",
        msg,
    );
}

#[test]
fn unusable_block_sizes_are_rejected_before_generating() {
    rejects("gen sparselu --block 48", "problem size 2048");
    rejects("stats heat --block 3", "problem size 2048");
    rejects("run h264dec --block 0", "positive block size");
    rejects("sweep cholesky --block 100", "problem size 2048");
    rejects("whatif lu --block 0", "positive block size");
}
