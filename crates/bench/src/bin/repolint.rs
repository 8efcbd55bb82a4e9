//! `repolint`: textual repo-invariant lint, wired into CI.
//!
//! Conventions that keep the simulators deterministic and the serving
//! engine panic-free are easy to erode one commit at a time; this lint
//! makes them mechanical:
//!
//! 1. **`thread::spawn` only inside `tpu-par`.** All parallelism goes
//!    through the scoped pool so `--jobs N` stays byte-deterministic.
//! 2. **No wall-clock reads in simulator crates** (`tpu-sim`,
//!    `tpu-serving`, `tpu-isa`): `Instant::now` / `SystemTime` in model
//!    code makes runs unreproducible. Host time is measured outside the
//!    workspace, by `perfbench`.
//! 3. **No `.unwrap()` in non-test engine code** of `tpu-serving` and
//!    `tpu-sim`: the serving path returns typed errors; a panic in the
//!    decode loop is an outage, not a bug report.
//!
//! A line ending in a `repolint:allow` comment is exempt (use
//! sparingly; say why on the same line). Test modules (`#[cfg(test)]`,
//! tracked by brace depth), `tests/`, `benches/` and `examples/` trees
//! are exempt from rule 3 and rule 2.
//!
//! Exit status: 0 when clean, 1 with one line per violation otherwise.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Which invariant a finding violates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rule {
    ThreadSpawn,
    WallClock,
    Unwrap,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Rule::ThreadSpawn => "thread-spawn-outside-tpu-par",
            Rule::WallClock => "wall-clock-in-simulator",
            Rule::Unwrap => "unwrap-in-engine-code",
        };
        f.write_str(s)
    }
}

#[derive(Debug)]
struct Violation {
    file: PathBuf,
    line: usize,
    rule: Rule,
    text: String,
}

/// The patterns, assembled so this file does not flag itself.
const SPAWN_PATTERN: &str = concat!("thread::", "spawn");
const INSTANT_PATTERN: &str = concat!("Instant::", "now");
const SYSTEMTIME_PATTERN: &str = concat!("System", "Time");
const UNWRAP_PATTERN: &str = concat!(".unwrap", "()");

/// Crates whose model code must be wall-clock-free.
const SIM_CRATES: [&str; 3] = ["sim", "serving", "isa"];

/// Crates whose non-test code must be unwrap-free.
const ENGINE_CRATES: [&str; 2] = ["serving", "sim"];

fn main() -> ExitCode {
    // crates/bench/Cargo.toml -> workspace root, so the lint works from
    // any working directory.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate sits two levels under the workspace root")
        .to_path_buf();
    let crates_dir = root.join("crates");

    let mut files = Vec::new();
    collect_rust_files(&crates_dir, &mut files);
    files.sort();

    let mut violations = Vec::new();
    for file in &files {
        let Ok(source) = fs::read_to_string(file) else {
            continue;
        };
        let rel = file.strip_prefix(&root).unwrap_or(file);
        violations.extend(lint_file(rel, &source));
    }

    if violations.is_empty() {
        println!("repolint: {} files clean", files.len());
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            println!(
                "{}:{}: [{}] {}",
                v.file.display(),
                v.line,
                v.rule,
                v.text.trim()
            );
        }
        println!("repolint: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}

fn collect_rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The crate a repo-relative path belongs to (`crates/<name>/...`).
fn crate_of(rel: &Path) -> Option<&str> {
    let mut parts = rel.components();
    let first = parts.next()?.as_os_str().to_str()?;
    if first != "crates" {
        return None;
    }
    parts.next()?.as_os_str().to_str()
}

/// Whether the path is library source (vs tests/, benches/, examples/).
fn is_library_source(rel: &Path) -> bool {
    !rel.components().any(|c| {
        matches!(
            c.as_os_str().to_str(),
            Some("tests") | Some("benches") | Some("examples")
        )
    })
}

fn lint_file(rel: &Path, source: &str) -> Vec<Violation> {
    let Some(krate) = crate_of(rel) else {
        return Vec::new();
    };
    let lib_source = is_library_source(rel);
    let spawn_applies = krate != "par";
    let clock_applies = lib_source && SIM_CRATES.contains(&krate);
    let unwrap_applies = lib_source && ENGINE_CRATES.contains(&krate);

    let mut out = Vec::new();
    let mut test_tracker = TestRegionTracker::default();
    for (i, line) in source.lines().enumerate() {
        let in_test = test_tracker.observe(line);
        let trimmed = line.trim_start();
        if trimmed.starts_with("//") || line.contains("repolint:allow") {
            continue;
        }
        let mut hit = |rule: Rule| {
            out.push(Violation {
                file: rel.to_path_buf(),
                line: i + 1,
                rule,
                text: line.to_owned(),
            });
        };
        if spawn_applies && line.contains(SPAWN_PATTERN) {
            hit(Rule::ThreadSpawn);
        }
        if clock_applies
            && !in_test
            && (line.contains(INSTANT_PATTERN) || line.contains(SYSTEMTIME_PATTERN))
        {
            hit(Rule::WallClock);
        }
        if unwrap_applies && !in_test && line.contains(UNWRAP_PATTERN) {
            hit(Rule::Unwrap);
        }
    }
    out
}

/// Tracks `#[cfg(test)]` regions by brace depth. Naive about braces in
/// string literals, which is fine for gating: test modules sit at the
/// end of files in this repo, so an unbalanced string can only extend,
/// never shrink, the exempt region.
#[derive(Default)]
struct TestRegionTracker {
    pending: bool,
    in_region: bool,
    depth: i64,
}

impl TestRegionTracker {
    /// Feeds one line; returns whether it belongs to a test region.
    fn observe(&mut self, line: &str) -> bool {
        if self.in_region {
            self.depth += brace_delta(line);
            if self.depth <= 0 {
                self.in_region = false;
            }
            return true;
        }
        if self.pending {
            let delta = brace_delta(line);
            if delta > 0 {
                self.pending = false;
                self.in_region = true;
                self.depth = delta;
            }
            return true;
        }
        if line.trim_start().starts_with("#[cfg(test)]") {
            self.pending = true;
            return true;
        }
        false
    }
}

fn brace_delta(line: &str) -> i64 {
    let mut d = 0i64;
    for c in line.chars() {
        match c {
            '{' => d += 1,
            '}' => d -= 1,
            _ => {}
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawn_is_flagged_outside_par_only() {
        // Split so this file does not flag itself.
        let src = concat!("fn go() { std::thread::", "spawn(|| {}); }\n");
        let v = lint_file(Path::new("crates/sim/src/lib.rs"), src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::ThreadSpawn);
        assert!(lint_file(Path::new("crates/par/src/lib.rs"), src).is_empty());
    }

    #[test]
    fn wall_clock_rules_scope_to_sim_crates() {
        let src = "fn t() -> Instant { Instant::now() }\n";
        assert_eq!(
            lint_file(Path::new("crates/serving/src/des.rs"), src).len(),
            1
        );
        // Non-simulator crates may read the clock.
        assert!(lint_file(Path::new("crates/bench/src/lib.rs"), src).is_empty());
        // Integration tests of simulator crates may too.
        assert!(lint_file(Path::new("crates/sim/tests/t.rs"), src).is_empty());
    }

    #[test]
    fn unwrap_is_flagged_only_outside_test_modules() {
        let src = "\
fn f() { x.unwrap(); }
#[cfg(test)]
mod tests {
    fn g() { y.unwrap(); }
}
";
        let v = lint_file(Path::new("crates/sim/src/engine.rs"), src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 1);
        assert_eq!(v[0].rule, Rule::Unwrap);
    }

    #[test]
    fn comments_and_waivers_are_exempt() {
        let src = "\
//! let x = plan.unwrap();
// Instant::now in a comment
fn f() { let t = Instant::now(); } // repolint:allow reason
";
        assert!(lint_file(Path::new("crates/sim/src/engine.rs"), src).is_empty());
    }

    #[test]
    fn nested_braces_close_the_test_region() {
        let src = "\
#[cfg(test)]
mod tests {
    fn g() { if a { b.unwrap(); } }
}
fn live() { c.unwrap(); }
";
        let v = lint_file(Path::new("crates/serving/src/des.rs"), src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 5);
    }
}
