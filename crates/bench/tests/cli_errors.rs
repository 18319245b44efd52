//! The `table2` and `fleet` binaries reject a bad command line with exit
//! code 2 and a message, never a panic, and before any run starts.

use std::process::Command;

#[test]
fn bad_values_exit_2_without_a_panic() {
    let cases = [
        (env!("CARGO_BIN_EXE_table2"), &["--smoke", "--threads"][..]),
        (env!("CARGO_BIN_EXE_fleet"), &["--threads", "one"][..]),
        (
            env!("CARGO_BIN_EXE_table2"),
            &["--widths", "4,x", "--smoke"][..],
        ),
        (env!("CARGO_BIN_EXE_fleet"), &["--smoke", "--bogus"][..]),
    ];
    for (bin, args) in cases {
        let out = Command::new(bin)
            .args(args)
            .current_dir(std::env::temp_dir())
            .output()
            .expect("spawn the binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{bin} {args:?} started a run");
    }
}
