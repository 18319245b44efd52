//! Benchmark harness regenerating every table and figure of the paper.
//!
//! | artifact | module | regenerate with |
//! |---|---|---|
//! | Table I (concept matrix) | [`certnn_core::pillars`] | `cargo run --release -p certnn-bench --bin table1` |
//! | Figure 1 (scene + GMM)   | [`figure1`] | `cargo run --release -p certnn-bench --bin figure1` |
//! | Table II (verification)  | [`table2`]  | `cargo run --release -p certnn-bench --bin table2` |
//! | Hints ablation (Sec. IV iii) | [`hints`] | `cargo run --release -p certnn-bench --bin hints_ablation` |
//!
//! Criterion benches (`cargo bench -p certnn-bench`) cover the scaling
//! ablations: `verify_scaling`, `bounds_ablation`, `mcdc_coverage`,
//! `quantized_verify`, `simplex`.
//!
//! Report binaries write their text artifacts under `target/reports/`;
//! `table2` and `fleet` share their command line through [`cli`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod cli;
pub mod figure1;
pub mod hints;
pub mod json;
pub mod table2;

use std::fs;
use std::io;
use std::path::PathBuf;

/// Writes a report artifact under `target/reports/` and returns its path.
///
/// # Errors
///
/// Returns [`io::Error`] if the directory or file cannot be written.
pub fn write_report(name: &str, contents: &str) -> io::Result<PathBuf> {
    let dir = PathBuf::from("target/reports");
    fs::create_dir_all(&dir)?;
    let path = dir.join(name);
    fs::write(&path, contents)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_report_creates_file() {
        let p = write_report("test_artifact.txt", "hello").unwrap();
        assert!(p.exists());
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "hello");
        let _ = std::fs::remove_file(p);
    }
}
