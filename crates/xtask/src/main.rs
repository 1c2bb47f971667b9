//! `cargo xtask lint` — the workspace's offline repo-invariant checker.
//!
//! This is a *source-level* pass (no rustc, no syn): a small line lexer
//! strips comments and string literals, and seven rules run over the
//! stripped code of every first-party source file (`src/` of the root
//! crate and of each `crates/*` member; `vendor/`, `tests/`, `examples/`
//! and generated artifacts are out of scope):
//!
//! * **safety-comment** — every `unsafe` keyword site must be preceded by
//!   a contiguous `// SAFETY:` comment block (attributes and neighbouring
//!   `unsafe` lines may sit in between, blank or code lines may not).
//! * **no-unwrap** — non-test code in `crates/serve/src` must not call
//!   `.unwrap()` or `.expect(...)`: the serving daemon's failure story is
//!   catch-and-refuse, and the checked-sync facade exists precisely so
//!   lock acquisition needs no `expect`. (`unwrap_or*` combinators are
//!   fine — the rule matches the exact panicking calls.)
//! * **no-raw-clock** — non-test code in `crates/serve/src` must read the
//!   clock through `telemetry::now()`, never `Instant::now()` directly,
//!   so time stays a single seam (`telemetry.rs` itself is the one
//!   exempt file).
//! * **checked-sync** — a module carrying the `// teal-lint: checked-sync`
//!   marker has opted into the `crate::sync` facade; its non-test code
//!   must not import the std primitives the facade shadows (`Mutex`,
//!   `RwLock`, `Condvar`, `Arc`, `atomic`, `mpsc` — and direct
//!   `std::thread::` spawning). Primitives the facade
//!   does not model (`OnceLock`, `PoisonError`, ...) stay legal.
//! * **ffi-confined** — raw FFI (`extern` declarations, `std::os::*` fd
//!   plumbing) lives in exactly one audited file, the serve crate's
//!   `net/sys.rs` epoll bindings; everywhere else must go through its
//!   safe wrappers.
//! * **forbid-unsafe** — a crate whose sources contain zero `unsafe`
//!   must say so: its crate root needs `#![forbid(unsafe_code)]`.
//! * **kernels-serial** — non-test code in `crates/nn/src` other than
//!   `pool.rs` must not name `pool::run`: kernels are serial, and the
//!   stage above them (a window's forward pass over its matrices, in
//!   `teal-core`) is what submits pool jobs.
//!
//! Findings print one per line, machine-readable, sorted:
//! `path:line: [rule] message`. The process exits non-zero if any finding
//! is not covered by `xtask-lint-allow.txt` (exact `path:line:rule`
//! entries). That allowlist ships **empty** and is meant to stay so — it
//! exists for emergency grandfathering during a refactor, not as a
//! steady-state escape hatch.

#![forbid(unsafe_code)]

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => {}
        _ => {
            eprintln!("usage: cargo xtask lint");
            return ExitCode::from(2);
        }
    }
    let root = workspace_root();
    let files = collect_sources(&root);
    if files.is_empty() {
        eprintln!("xtask lint: no sources found under {}", root.display());
        return ExitCode::from(2);
    }
    let findings = lint_workspace(&files);
    let allow = load_allowlist(&root.join("xtask-lint-allow.txt"));
    let mut reported = 0usize;
    let mut allowed = 0usize;
    for f in &findings {
        if allow.contains(&f.key()) {
            allowed += 1;
            continue;
        }
        println!("{f}");
        reported += 1;
    }
    eprintln!(
        "xtask lint: {} file(s), {} finding(s), {} allowlisted",
        files.len(),
        reported,
        allowed
    );
    if reported == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The repo root: two levels above this crate's manifest.
fn workspace_root() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

/// Every first-party source file, as (repo-relative path with `/`
/// separators, contents). Scope: root `src/` plus each `crates/*/src/`.
fn collect_sources(root: &Path) -> Vec<(String, String)> {
    let mut files = Vec::new();
    push_rs_files(&root.join("src"), root, &mut files);
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            push_rs_files(&entry.path().join("src"), root, &mut files);
        }
    }
    files.sort();
    files
}

fn push_rs_files(dir: &Path, root: &Path, out: &mut Vec<(String, String)>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            push_rs_files(&path, root, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let Ok(text) = std::fs::read_to_string(&path) else {
                continue;
            };
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push((rel, text));
        }
    }
}

/// Allowlist entries: exact `path:line:rule` keys, `#` comments ignored.
fn load_allowlist(path: &Path) -> Vec<String> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Finding {
    file: String,
    line: usize,
    rule: &'static str,
    message: String,
}

impl Finding {
    fn key(&self) -> String {
        format!("{}:{}:{}", self.file, self.line, self.rule)
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// One source line after lexing: executable code with comments and string
/// *contents* blanked out, plus the text of any line comment.
#[derive(Debug, Default, Clone)]
struct LineView {
    code: String,
    comment: Option<String>,
}

/// Strip comments and string literals, line by line. Handles `//` line
/// comments, nested `/* */` block comments, `"..."` with escapes,
/// lifetime/char literals well enough to not open strings on `'a'`, and
/// raw strings up to `r##"..."##`. Contents of strings are dropped so the
/// rules never match words inside literals or docs.
fn lex(text: &str) -> Vec<LineView> {
    #[derive(Clone, Copy, PartialEq)]
    enum State {
        Code,
        Block(u32),
        Str,
        RawStr(u8),
    }
    let mut state = State::Code;
    let mut out = Vec::new();
    for raw in text.lines() {
        let mut code = String::new();
        let mut comment = None;
        let bytes: Vec<char> = raw.chars().collect();
        let mut i = 0usize;
        while i < bytes.len() {
            match state {
                State::Block(depth) => {
                    if bytes[i] == '*' && bytes.get(i + 1) == Some(&'/') {
                        state = if depth <= 1 {
                            State::Code
                        } else {
                            State::Block(depth - 1)
                        };
                        i += 2;
                    } else if bytes[i] == '/' && bytes.get(i + 1) == Some(&'*') {
                        state = State::Block(depth + 1);
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                State::Str => {
                    if bytes[i] == '\\' {
                        i += 2;
                    } else {
                        if bytes[i] == '"' {
                            state = State::Code;
                        }
                        i += 1;
                    }
                }
                State::RawStr(hashes) => {
                    if bytes[i] == '"'
                        && bytes[i + 1..]
                            .iter()
                            .take(hashes as usize)
                            .filter(|&&c| c == '#')
                            .count()
                            == hashes as usize
                    {
                        state = State::Code;
                        i += 1 + hashes as usize;
                    } else {
                        i += 1;
                    }
                }
                State::Code => match bytes[i] {
                    '/' if bytes.get(i + 1) == Some(&'/') => {
                        comment = Some(bytes[i + 2..].iter().collect::<String>());
                        i = bytes.len();
                    }
                    '/' if bytes.get(i + 1) == Some(&'*') => {
                        state = State::Block(1);
                        i += 2;
                    }
                    '"' => {
                        state = State::Str;
                        code.push('"');
                        i += 1;
                    }
                    'r' if bytes.get(i + 1) == Some(&'"')
                        || (bytes.get(i + 1) == Some(&'#')
                            && matches!(bytes.get(i + 2), Some(&'#') | Some(&'"'))) =>
                    {
                        // r"...", r#"..."#, r##"..."## — count the hashes.
                        let mut hashes = 0u8;
                        let mut j = i + 1;
                        while bytes.get(j) == Some(&'#') {
                            hashes += 1;
                            j += 1;
                        }
                        if bytes.get(j) == Some(&'"') {
                            state = State::RawStr(hashes);
                            code.push('"');
                            i = j + 1;
                        } else {
                            code.push('r');
                            i += 1;
                        }
                    }
                    '\'' => {
                        // Char literal ('x', '\n', '\'') vs lifetime ('a).
                        if bytes.get(i + 1) == Some(&'\\') {
                            let mut j = i + 2;
                            while j < bytes.len() && bytes[j] != '\'' {
                                j += 1;
                            }
                            i = j + 1;
                        } else if bytes.get(i + 2) == Some(&'\'') {
                            i += 3;
                        } else {
                            code.push('\'');
                            i += 1;
                        }
                    }
                    c => {
                        code.push(c);
                        i += 1;
                    }
                },
            }
        }
        // `Str`/`RawStr`/`Block` all legitimately span lines in Rust;
        // the state simply carries over.
        out.push(LineView { code, comment });
    }
    out
}

/// True if `needle` occurs in `haystack` delimited by non-identifier
/// characters on both sides.
fn contains_word(haystack: &str, needle: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = haystack[start..].find(needle) {
        let at = start + pos;
        let before_ok = at == 0
            || !haystack[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = at + needle.len();
        let after_ok = !haystack[after..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = at + needle.len();
    }
    false
}

/// Which lines (by index) sit inside `#[cfg(test)] mod ... { ... }`
/// regions, found by brace counting over stripped code.
fn test_mod_lines(lines: &[LineView]) -> Vec<bool> {
    let mut in_test = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        let trimmed = lines[i].code.trim();
        if trimmed.starts_with("#[cfg(test)]") {
            // Find the mod opening within the next few lines (other
            // attributes may sit in between).
            let mut j = i + 1;
            while j < lines.len() && lines[j].code.trim().starts_with("#[") {
                j += 1;
            }
            if j < lines.len() && lines[j].code.trim_start().starts_with("mod ") {
                let mut depth = 0i64;
                let mut opened = false;
                let mut k = j;
                while k < lines.len() {
                    for c in lines[k].code.chars() {
                        match c {
                            '{' => {
                                depth += 1;
                                opened = true;
                            }
                            '}' => depth -= 1,
                            _ => {}
                        }
                    }
                    in_test[k] = true;
                    if opened && depth <= 0 {
                        break;
                    }
                    k += 1;
                }
                in_test[i] = true;
                i = k + 1;
                continue;
            }
        }
        i += 1;
    }
    in_test
}

/// Is the `unsafe` at `lines[at]` covered by a `// SAFETY:` comment run
/// directly above? The walk-up skips attribute lines and neighbouring
/// lines that themselves contain `unsafe` (one comment may cover a
/// multi-line unsafe expression); it stops at the first blank or ordinary
/// code line.
fn has_safety_comment(lines: &[LineView], at: usize) -> bool {
    if lines[at]
        .comment
        .as_deref()
        .is_some_and(|c| c.contains("SAFETY:"))
    {
        return true;
    }
    let mut i = at;
    while i > 0 {
        i -= 1;
        let line = &lines[i];
        let code = line.code.trim();
        if code.is_empty() {
            match &line.comment {
                Some(c) if c.contains("SAFETY:") => return true,
                Some(_) => continue,  // continuation of the comment block
                None => return false, // blank line breaks the run
            }
        }
        if code.starts_with("#[") || code.starts_with("#![") {
            continue;
        }
        if contains_word(code, "unsafe") {
            // A neighbouring unsafe line shares the comment above it.
            continue;
        }
        return false;
    }
    false
}

const SERVE_SRC: &str = "crates/serve/src/";
const CHECKED_SYNC_MARKER: &str = "teal-lint: checked-sync";
/// The one file allowed to declare raw FFI (`extern` blocks) and touch
/// `std::os::*` fd plumbing: the serve crate's hand-rolled epoll/eventfd
/// bindings. Everything else must go through its safe wrappers.
const FFI_HOME: &str = "crates/serve/src/net/sys.rs";

/// Kernel code: serial everywhere except the pool itself.
const NN_SRC: &str = "crates/nn/src/";
const POOL_HOME: &str = "crates/nn/src/pool.rs";

/// std::sync items the checked-sync facade shadows; importing them in an
/// opted-in module bypasses the model checker.
const FACADE_SHADOWED: &[&str] = &[
    "atomic",
    "Arc",
    "Barrier",
    "Condvar",
    "Mutex",
    "MutexGuard",
    "RwLock",
    "RwLockReadGuard",
    "RwLockWriteGuard",
    "Weak",
    "mpsc",
];

fn leading_ident(s: &str) -> &str {
    let end = s
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(s.len());
    &s[..end]
}

/// Does this stripped code line pull a facade-shadowed name out of
/// `std::sync`, or reach for `std::thread::` directly (the facade shims
/// spawning too)?
fn references_shadowed_std_sync(code: &str) -> bool {
    let mut rest = code;
    while let Some(pos) = rest.find("std::sync::") {
        let tail = &rest[pos + "std::sync::".len()..];
        if let Some(body) = tail.strip_prefix('{') {
            let body = body.split('}').next().unwrap_or(body);
            for item in body.split(',') {
                if FACADE_SHADOWED.contains(&leading_ident(item.trim())) {
                    return true;
                }
            }
        } else if FACADE_SHADOWED.contains(&leading_ident(tail)) {
            return true;
        }
        rest = tail;
    }
    code.contains("std::thread::")
}

fn lint_file(path: &str, text: &str, out: &mut Vec<Finding>) {
    let lines = lex(text);
    let in_test = test_mod_lines(&lines);
    let is_serve = path.starts_with(SERVE_SRC);
    let is_telemetry = path == "crates/serve/src/telemetry.rs";
    // The opt-in marker must be a standalone comment line — prose
    // *mentioning* the marker (module docs, this file) does not opt in.
    let checked_sync = lines.iter().any(|l| {
        l.comment
            .as_deref()
            .is_some_and(|c| c.trim().starts_with(CHECKED_SYNC_MARKER))
    });

    for (idx, line) in lines.iter().enumerate() {
        let lineno = idx + 1;
        let code = &line.code;

        if contains_word(code, "unsafe") && !has_safety_comment(&lines, idx) {
            out.push(Finding {
                file: path.to_string(),
                line: lineno,
                rule: "safety-comment",
                message: "`unsafe` site without a `// SAFETY:` comment directly above".to_string(),
            });
        }

        if is_serve && !in_test[idx] {
            if code.contains(".unwrap()") || code.contains(".expect(") {
                out.push(Finding {
                    file: path.to_string(),
                    line: lineno,
                    rule: "no-unwrap",
                    message: "`unwrap()`/`expect()` in non-test serving code; return an error \
                              or use the crate::sync facade"
                        .to_string(),
                });
            }
            if !is_telemetry && code.contains("Instant::now") {
                out.push(Finding {
                    file: path.to_string(),
                    line: lineno,
                    rule: "no-raw-clock",
                    message: "direct `Instant::now()`; route clock reads through \
                              `telemetry::now()`"
                        .to_string(),
                });
            }
        }

        // Raw FFI stays in one audited file. The lexer drops string
        // contents, so `extern "C"` in real code still matches the bare
        // `extern` keyword while prose/string mentions don't.
        if path != FFI_HOME
            && !in_test[idx]
            && (contains_word(code, "extern") || code.contains("std::os::"))
        {
            out.push(Finding {
                file: path.to_string(),
                line: lineno,
                rule: "ffi-confined",
                message: format!(
                    "raw FFI (`extern` declarations, `std::os::*` fd plumbing) is confined \
                     to {FFI_HOME}; call its safe wrappers instead"
                ),
            });
        }

        if path.starts_with(NN_SRC)
            && path != POOL_HOME
            && !in_test[idx]
            && code.contains("pool::run")
        {
            out.push(Finding {
                file: path.to_string(),
                line: lineno,
                rule: "kernels-serial",
                message: "kernels are serial: parallelism belongs to the stage that calls \
                          them, not to `teal-nn` code outside pool.rs"
                    .to_string(),
            });
        }

        if checked_sync && !in_test[idx] && references_shadowed_std_sync(code) {
            out.push(Finding {
                file: path.to_string(),
                line: lineno,
                rule: "checked-sync",
                message: "module opted into the checked-sync facade imports a std::sync \
                          primitive the facade shadows; use `crate::sync`"
                    .to_string(),
            });
        }
    }
}

/// The crate a path belongs to, as (crate key, is crate root file).
fn crate_of(path: &str) -> (String, bool) {
    if let Some(rest) = path.strip_prefix("crates/") {
        let name = rest.split('/').next().unwrap_or(rest);
        let root = path == format!("crates/{name}/src/lib.rs")
            || path == format!("crates/{name}/src/main.rs");
        (format!("crates/{name}"), root)
    } else {
        (
            ".".to_string(),
            path == "src/lib.rs" || path == "src/main.rs",
        )
    }
}

fn lint_workspace(files: &[(String, String)]) -> Vec<Finding> {
    let mut out = Vec::new();
    for (path, text) in files {
        lint_file(path, text, &mut out);
    }

    // forbid-unsafe: group files per crate, find crate roots, require the
    // attribute when the crate has zero unsafe sites.
    use std::collections::BTreeMap;
    struct CrateInfo {
        has_unsafe: bool,
        root: Option<(String, bool)>, // (path, has forbid attribute)
    }
    let mut crates: BTreeMap<String, CrateInfo> = BTreeMap::new();
    for (path, text) in files {
        let (key, is_root) = crate_of(path);
        let lines = lex(text);
        let has_unsafe = lines.iter().any(|l| contains_word(&l.code, "unsafe"));
        let info = crates.entry(key).or_insert(CrateInfo {
            has_unsafe: false,
            root: None,
        });
        info.has_unsafe |= has_unsafe;
        if is_root {
            let has_forbid = lines
                .iter()
                .any(|l| l.code.replace(' ', "").contains("#![forbid(unsafe_code)]"));
            info.root = Some((path.clone(), has_forbid));
        }
    }
    for (key, info) in crates {
        let Some((root_path, has_forbid)) = info.root else {
            continue;
        };
        if !info.has_unsafe && !has_forbid {
            out.push(Finding {
                file: root_path,
                line: 1,
                rule: "forbid-unsafe",
                message: format!(
                    "crate {key} has no unsafe code; add `#![forbid(unsafe_code)]` to its root"
                ),
            });
        }
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(path: &str, text: &str) -> Vec<Finding> {
        let mut out = Vec::new();
        lint_file(path, text, &mut out);
        out
    }

    #[test]
    fn lexer_strips_strings_comments_and_char_literals() {
        let lines = lex(concat!(
            "let s = \"unsafe in a string\"; // unsafe in a comment\n",
            "/* unsafe\n   in a block */ let c = 'u'; let lt: &'static str = s;\n",
            "let r = r#\"unsafe raw\"#;\n",
        ));
        assert!(!contains_word(&lines[0].code, "unsafe"));
        assert_eq!(lines[0].comment.as_deref(), Some(" unsafe in a comment"));
        assert!(!contains_word(&lines[1].code, "unsafe"));
        assert!(!contains_word(&lines[2].code, "unsafe"));
        assert!(lines[2].code.contains("let c"));
        assert!(lines[2].code.contains("'static"));
        assert!(!contains_word(&lines[3].code, "unsafe"));
    }

    #[test]
    fn word_matching_ignores_identifier_prefixes() {
        assert!(!contains_word("#![forbid(unsafe_code)]", "unsafe"));
        assert!(!contains_word("#![deny(unsafe_op_in_unsafe_fn)]", "unsafe"));
        assert!(contains_word("unsafe impl Send for X {}", "unsafe"));
        assert!(contains_word("let x = unsafe { y };", "unsafe"));
    }

    #[test]
    fn safety_comment_walkup_accepts_runs_and_attributes() {
        let ok = "// SAFETY: the pointer is valid because reasons that\n\
                  // span two lines.\n\
                  #[allow(clippy::undocumented_unsafe_blocks)]\n\
                  unsafe impl Send for X {}\n";
        assert!(findings("crates/nn/src/x.rs", ok).is_empty());

        let missing = "let y = 1;\nunsafe impl Send for X {}\n";
        let f = findings("crates/nn/src/x.rs", missing);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "safety-comment");
        assert_eq!(f[0].line, 2);

        let blank_breaks = "// SAFETY: too far away\n\nunsafe { x() };\n";
        assert_eq!(findings("crates/nn/src/x.rs", blank_breaks).len(), 1);

        let adjacent = "// SAFETY: one comment for both lines\n\
                        unsafe { a() };\n\
                        unsafe { b() };\n";
        assert!(findings("crates/nn/src/x.rs", adjacent).is_empty());
    }

    #[test]
    fn unwrap_rule_is_serve_only_and_skips_tests_and_combinators() {
        let text = "fn f() { x.unwrap(); }\n\
                    fn g() { x.unwrap_or_else(id); y.expect_err(\"no\"); }\n\
                    #[cfg(test)]\n\
                    mod tests {\n\
                        fn t() { x.unwrap(); y.expect(\"fine in tests\"); }\n\
                    }\n";
        let f = findings("crates/serve/src/daemon.rs", text);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "no-unwrap");
        assert_eq!(f[0].line, 1);
        assert!(findings("crates/nn/src/pool.rs", text).is_empty());
    }

    #[test]
    fn raw_clock_rule_exempts_telemetry_and_other_crates() {
        let text = "fn f() { let t = std::time::Instant::now(); }\n";
        assert_eq!(findings("crates/serve/src/daemon.rs", text).len(), 1);
        assert!(findings("crates/serve/src/telemetry.rs", text).is_empty());
        assert!(findings("crates/sim/src/schemes.rs", text).is_empty());
    }

    #[test]
    fn checked_sync_rule_bans_shadowed_imports_only() {
        let marked = "// teal-lint: checked-sync\n\
                      use std::sync::OnceLock;\n\
                      use std::sync::PoisonError;\n";
        assert!(findings("crates/nn/src/pool.rs", marked).is_empty());

        let bad = "// teal-lint: checked-sync\n\
                   use std::sync::{Mutex, PoisonError};\n";
        let f = findings("crates/nn/src/pool.rs", bad);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "checked-sync");
        assert_eq!(f[0].line, 2);

        let atomic = "// teal-lint: checked-sync\n\
                      use std::sync::atomic::AtomicBool;\n";
        assert_eq!(findings("crates/nn/src/pool.rs", atomic).len(), 1);

        let thread = "// teal-lint: checked-sync\n\
                      fn f() { std::thread::spawn(|| ()); }\n";
        assert_eq!(findings("crates/serve/src/daemon.rs", thread).len(), 1);

        let unmarked = "use std::sync::Mutex;\n";
        assert!(findings("crates/serve/src/server.rs", unmarked).is_empty());

        let in_tests = "// teal-lint: checked-sync\n\
                        #[cfg(test)]\n\
                        mod tests {\n\
                            use std::sync::Arc;\n\
                        }\n";
        assert!(findings("crates/serve/src/registry.rs", in_tests).is_empty());

        // Prose mentioning the marker does not opt a module in.
        let prose = "//! Carry the `// teal-lint: checked-sync` marker to opt in.\n\
                     use std::sync::Mutex;\n";
        assert!(findings("crates/serve/src/sync.rs", prose).is_empty());
    }

    #[test]
    fn ffi_rule_confines_extern_and_std_os_to_sys() {
        // The one audited home may declare FFI and use std::os fd types.
        let ffi = "// SAFETY: signatures transcribed from the kernel ABI\n\
                   extern \"C\" { fn close(fd: i32) -> i32; }\n\
                   use std::os::fd::AsRawFd;\n";
        assert!(findings("crates/serve/src/net/sys.rs", ffi).is_empty());

        // Anywhere else, both the extern block and the fd import fire.
        let f = findings("crates/serve/src/net/mod.rs", ffi);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.rule == "ffi-confined"));
        assert_eq!(findings("crates/nn/src/pool.rs", ffi).len(), 2);

        // Prose and string mentions are not declarations.
        let prose = "//! Raw FFI (`extern \"C\"`) is confined to sys.rs.\n\
                     let s = \"no extern here, no std::os:: either\";\n";
        assert!(findings("crates/serve/src/server.rs", prose).is_empty());

        // Test modules may exercise the wrappers however they like.
        let in_tests = "#[cfg(test)]\n\
                        mod tests {\n\
                            use std::os::fd::AsRawFd;\n\
                        }\n";
        assert!(findings("crates/serve/src/daemon.rs", in_tests).is_empty());
    }

    #[test]
    fn kernels_serial_rule_confines_pool_jobs_to_the_pool() {
        let text = "fn spmm() { crate::pool::run(4, &|_| ()); }\n";
        let f = findings("crates/nn/src/sparse.rs", text);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "kernels-serial");
        // The pool itself, and the stage in another crate, may submit.
        assert!(findings("crates/nn/src/pool.rs", text).is_empty());
        assert!(findings("crates/core/src/engine.rs", text).is_empty());
        // Prose and test modules are not kernel code.
        let benign = "//! Stages call `pool::run`; kernels do not.\n\
                      #[cfg(test)]\n\
                      mod tests {\n\
                          fn t() { crate::pool::run(1, &|_| ()); }\n\
                      }\n";
        assert!(findings("crates/nn/src/tensor.rs", benign).is_empty());
    }

    #[test]
    fn forbid_rule_fires_only_for_zero_unsafe_crates() {
        let clean = vec![
            (
                "crates/topology/src/lib.rs".to_string(),
                "pub fn f() {}\n".to_string(),
            ),
            (
                "crates/nn/src/lib.rs".to_string(),
                "pub mod pool;\n".to_string(),
            ),
            (
                "crates/nn/src/pool.rs".to_string(),
                "// SAFETY: `run` outlives every dereference\nunsafe { x() };\n".to_string(),
            ),
        ];
        let f = lint_workspace(&clean);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "forbid-unsafe");
        assert_eq!(f[0].file, "crates/topology/src/lib.rs");

        let fixed = vec![(
            "crates/topology/src/lib.rs".to_string(),
            "#![forbid(unsafe_code)]\npub fn f() {}\n".to_string(),
        )];
        assert!(lint_workspace(&fixed).is_empty());
    }

    #[test]
    fn test_mod_detection_tracks_braces() {
        let text = "fn a() {}\n\
                    #[cfg(test)]\n\
                    mod tests {\n\
                        fn inner() { if x { y(); } }\n\
                    }\n\
                    fn b() { x.unwrap(); }\n";
        let f = findings("crates/serve/src/x.rs", text);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 6);
    }
}
