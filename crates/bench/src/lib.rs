//! Shared helpers for the `dh-bench` binaries.
//!
//! The `ablate-*` binaries run the design-choice studies called out in
//! DESIGN.md (their joined output is pinned in
//! `docs/sample_ablation_output.txt`); `fleet` drives fleet and scenario
//! runs; `perf-snapshot` times each kernel against its oracle. The
//! paper's tables and figures are printed by the `deep-healing` binary.

/// Prints a figure/table banner.
pub fn banner(title: &str) {
    let line = "=".repeat(title.len() + 4);
    println!("{line}\n| {title} |\n{line}\n");
}

/// Prints a short paper-vs-ours verdict line.
pub fn verdict(what: &str, paper: &str, ours: String) {
    println!("{what:<44} paper: {paper:<22} ours: {ours}");
}

#[cfg(test)]
mod tests {
    #[test]
    fn banner_does_not_panic() {
        super::banner("Table I");
        super::verdict("x", "y", "z".to_string());
    }
}
