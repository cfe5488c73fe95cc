//! Shared helpers for the `dh-bench` binaries.
//!
//! The `ablate-*` binaries run the design-choice studies called out in
//! DESIGN.md (their joined output is pinned in
//! `docs/sample_ablation_output.txt`); `fleet` drives fleet and scenario
//! runs; `perf-snapshot` times each kernel against its oracle. The
//! paper's tables and figures are printed by the `deep-healing` binary.

/// A figure/table banner: the title boxed between two rules, three
/// lines in all.
pub struct Banner<'a>(pub &'a str);

impl std::fmt::Display for Banner<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let line = "=".repeat(self.0.len() + 4);
        writeln!(f, "{line}\n| {} |\n{line}", self.0)
    }
}

/// Prints a figure/table banner and an empty line.
pub fn banner(title: &str) {
    println!("{}", Banner(title));
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
