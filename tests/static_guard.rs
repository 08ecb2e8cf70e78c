//! Static source guards: invariants of the *source tree* that the type
//! system cannot enforce, pinned so they fail loudly in review instead of
//! eroding silently.
//!
//! 1. Every workspace crate root keeps `#![forbid(unsafe_code)]` — the
//!    whole reproduction is safe Rust, and `forbid` (unlike `deny`)
//!    cannot be overridden by an inner `allow`.
//! 2. Explicit `std::sync::atomic` memory orderings appear only in a
//!    documented allowlist. The simulator is the source of truth for the
//!    paper's proofs; the threaded backends mirror it under `SeqCst`
//!    funneled through per-crate `ORD` constants, and anything weaker must
//!    be justified here, file by file.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Recursively collects `.rs` files under `dir` (which must exist).
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display())) {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            // `target/` never nests under crates/src/tests, but stay safe.
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn every_crate_root_forbids_unsafe_code() {
    let mut roots = vec![root().join("src/lib.rs")];
    for entry in fs::read_dir(root().join("crates")).expect("read crates/") {
        let dir = entry.expect("dir entry").path();
        if dir.is_dir() {
            let lib = dir.join("src/lib.rs");
            assert!(lib.is_file(), "crate without src/lib.rs: {}", dir.display());
            roots.push(lib);
        }
    }
    assert!(
        roots.len() >= 12,
        "expected the umbrella plus >= 11 workspace crates, found {}",
        roots.len()
    );
    for lib in roots {
        let text = fs::read_to_string(&lib).unwrap_or_else(|e| panic!("{}: {e}", lib.display()));
        assert!(
            text.contains("#![forbid(unsafe_code)]"),
            "{} lost #![forbid(unsafe_code)]",
            lib.display()
        );
    }
}

/// Every file allowed to name an atomic memory ordering, with its exact
/// occurrence count and the reason the orderings there are sound. Adding an
/// ordering anywhere — including one more in an allowed file — must update
/// this table, i.e. must be argued in review.
const ORDERING_ALLOWLIST: &[(&str, usize, &str)] = &[
    (
        "crates/api/src/drive.rs",
        4,
        "watchdog progress counters: SeqCst heartbeat increments, Relaxed throughput count",
    ),
    (
        "crates/bench/benches/llsc_ops.rs",
        2,
        "Relaxed stop-flag/counter in the bench harness threads (no data published)",
    ),
    (
        "crates/bench/benches/register_cost.rs",
        2,
        "Relaxed stop-flag/counter in the bench harness threads (no data published)",
    ),
    (
        "crates/hashtable/src/phase.rs",
        1,
        "ORD = SeqCst: per-backend constant, matches the simulator's sequential consistency",
    ),
    (
        "crates/sim/src/atomic.rs",
        1,
        "ORD = SeqCst: AtomicMem's one ordering, matches the simulator's sequential consistency; \
         the register, set, queue and LL/SC step machines and Algorithm 5's hand loop run on it",
    ),
    (
        "crates/service/src/service.rs",
        1,
        "GAUGE_ORD = Relaxed: queue-depth gauges and abort latches only, never a publication channel",
    ),
    (
        "crates/shard/src/threaded.rs",
        1,
        "ORD = SeqCst: per-backend constant, matches the simulator's sequential consistency",
    ),
    (
        "tests/hashtable_threaded.rs",
        2,
        "SeqCst stop flag coordinating the threaded stress loops",
    ),
    (
        "tests/llsc_progress.rs",
        2,
        "SeqCst stop flag coordinating the threaded progress loops",
    ),
];

#[test]
fn atomic_orderings_match_the_documented_allowlist() {
    let root = root();
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests"] {
        rs_files(&root.join(dir), &mut files);
    }
    assert!(
        files.len() > 40,
        "source scan looks broken: {} files",
        files.len()
    );

    let mut found: BTreeMap<String, usize> = BTreeMap::new();
    for path in &files {
        // The guard itself names `Ordering::` in prose and in the filter
        // below; scanning it would make the allowlist self-referential.
        if path.file_name().is_some_and(|n| n == "static_guard.rs") {
            continue;
        }
        let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let count = text
            .lines()
            // `std::cmp::Ordering` (comparator code) is not a memory
            // ordering; everything else that names `Ordering::` is.
            .filter(|l| !l.contains("cmp::Ordering"))
            .map(|l| l.matches("Ordering::").count())
            .sum::<usize>();
        if count > 0 {
            let rel = path
                .strip_prefix(&root)
                .expect("scanned file under root")
                .to_string_lossy()
                .replace('\\', "/");
            found.insert(rel, count);
        }
    }

    let expected: BTreeMap<String, usize> = ORDERING_ALLOWLIST
        .iter()
        .map(|(f, n, _)| (f.to_string(), *n))
        .collect();
    assert_eq!(
        found, expected,
        "atomic memory orderings drifted from the allowlist; if the new use is \
         justified, document it in ORDERING_ALLOWLIST with its reason"
    );
}
