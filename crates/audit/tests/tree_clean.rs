//! The real campaign tree must lint clean: no banned nondeterministic
//! construct survives unexempted.

use std::path::PathBuf;

use restore_audit::analyze_determinism_dirs;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn determinism_lint_scans_clean() {
    let roots = [
        repo_root().join("crates/inject/src"),
        repo_root().join("crates/bench/src"),
        repo_root().join("crates/store/src"),
        repo_root().join("crates/snapshot/src"),
        repo_root().join("crates/maskmap/src"),
        repo_root().join("crates/perf/src"),
        repo_root().join("crates/core/src"),
    ];
    let analysis = analyze_determinism_dirs(&roots).expect("campaign sources readable");
    let errors: Vec<String> = analysis.errors().map(ToString::to_string).collect();
    assert!(errors.is_empty(), "determinism findings on the live tree:\n{}", errors.join("\n"));
    // The known keyed-lookup caches and stderr progress timers must stay
    // explicitly exempted — if an exemption disappears the count drops
    // and this pin asks whether the construct or the comment went away.
    assert_eq!(analysis.allows_honored, 4, "expected the tree's 4 reasoned allows");
    assert!(analysis.files_scanned >= 30, "only {} files scanned", analysis.files_scanned);
}
