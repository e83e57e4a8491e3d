//! Diagnostics must be readable text: no one-line string literal in
//! first-party source may carry a run of 8 or more spaces after
//! non-space text. Such runs are what a message wrapped over several
//! source lines becomes when its line breaks are lost instead of written
//! as `\` continuations. Literals whose value spans lines (usage text,
//! embedded Fortran) lay out columns on purpose and are not checked.

use std::path::{Path, PathBuf};

/// Shortest space run that counts as run-on whitespace.
const RUN: usize = 8;

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|e| e.expect("dir entry").path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            rust_files(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
}

/// Each string literal as `(line of its first char, value)`, with
/// comments and char literals skipped. Escapes stay verbatim; a `\`
/// continuation drops the line break and the next line's indentation,
/// as rustc does.
fn string_literals(src: &str) -> Vec<(usize, String)> {
    let c: Vec<char> = src.chars().collect();
    let mut out = Vec::new();
    let (mut i, mut line) = (0, 1);
    while i < c.len() {
        let ident_before = i > 0 && (c[i - 1].is_alphanumeric() || c[i - 1] == '_');
        match c[i] {
            '\n' => {
                line += 1;
                i += 1;
            }
            '/' if c.get(i + 1) == Some(&'/') => {
                while i < c.len() && c[i] != '\n' {
                    i += 1;
                }
            }
            '/' if c.get(i + 1) == Some(&'*') => {
                let mut depth = 0;
                while i < c.len() {
                    if c[i] == '/' && c.get(i + 1) == Some(&'*') {
                        depth += 1;
                        i += 2;
                    } else if c[i] == '*' && c.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        line += usize::from(c[i] == '\n');
                        i += 1;
                    }
                }
            }
            '\'' => {
                // char literal ('x', '\n', '"') or lifetime ('a)
                if c.get(i + 1) == Some(&'\\') {
                    i += 2;
                    while i < c.len() && c[i] != '\'' {
                        i += 1;
                    }
                    i += 1;
                } else if c.get(i + 2) == Some(&'\'') {
                    i += 3;
                } else {
                    i += 1;
                }
            }
            'r' if !ident_before && matches!(c.get(i + 1), Some('"' | '#')) => {
                let mut j = i + 1;
                while c.get(j) == Some(&'#') {
                    j += 1;
                }
                if c.get(j) != Some(&'"') {
                    i += 1;
                    continue;
                }
                let hashes = j - i - 1;
                let start_line = line;
                let mut body = String::new();
                j += 1;
                while j < c.len() {
                    if c[j] == '"' && (1..=hashes).all(|k| c.get(j + k) == Some(&'#')) {
                        break;
                    }
                    line += usize::from(c[j] == '\n');
                    body.push(c[j]);
                    j += 1;
                }
                out.push((start_line, body));
                i = j + 1 + hashes;
            }
            '"' => {
                let start_line = line;
                let mut body = String::new();
                i += 1;
                while i < c.len() && c[i] != '"' {
                    if c[i] == '\\' && c.get(i + 1) == Some(&'\n') {
                        i += 1;
                        while i < c.len() && c[i].is_whitespace() {
                            line += usize::from(c[i] == '\n');
                            i += 1;
                        }
                        continue;
                    }
                    if c[i] == '\\' {
                        // an escape pair (`\"`, `\\`, `\n`, ...) stays verbatim
                        body.push(c[i]);
                        i += 1;
                    }
                    line += usize::from(c[i] == '\n');
                    body.push(c[i]);
                    i += 1;
                }
                out.push((start_line, body));
                i += 1;
            }
            _ => i += 1,
        }
    }
    out
}

/// Whether a one-line literal value holds `RUN` spaces after non-space
/// text.
fn has_run_on(value: &str) -> bool {
    let one_line = !value.contains('\n') && !value.contains("\\n");
    one_line && value.trim().contains(&" ".repeat(RUN))
}

#[test]
fn no_string_literal_has_run_on_whitespace() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    for krate in std::fs::read_dir(&crates).expect("crates dir") {
        let src = krate.expect("crate entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    assert!(files.len() > 50, "scanned only {} files", files.len());
    let mut bad = Vec::new();
    for f in &files {
        let src = std::fs::read_to_string(f).expect("read source");
        for (line, body) in string_literals(&src) {
            if has_run_on(&body) {
                bad.push(format!("{}:{line}", f.display()));
            }
        }
    }
    assert!(
        bad.is_empty(),
        "string literals with run-on whitespace (write the line break as a `\\` \
         continuation):\n{}",
        bad.join("\n")
    );
}

#[test]
fn scanner_sees_literals_the_way_rustc_does() {
    let src = concat!(
        "let a = \"short\"; // \"not        a literal\"\n",
        "let c = '\"'; let l: &'static str = \"x\";\n",
        "let r = r#\"raw \"quoted\"        gap\"#;\n",
        "let m = \"first: \\\n         second\";\n",
        "let bad = \"run-on:        text\";\n",
        "let usage = \"\n  --flag        help\n\";\n",
    );
    let lits = string_literals(src);
    let bodies: Vec<&str> = lits.iter().map(|(_, b)| b.as_str()).collect();
    assert_eq!(bodies.len(), 6, "{bodies:?}");
    assert_eq!(bodies[0], "short");
    assert_eq!(bodies[1], "x");
    assert!(has_run_on(bodies[2]), "raw string gap");
    assert_eq!(bodies[3], "first: second", "continuation joins the lines");
    assert!(!has_run_on(bodies[3]));
    assert!(has_run_on(bodies[4]));
    assert!(!has_run_on(bodies[5]), "multi-line layout is not run-on");
    assert_eq!(lits[4].0, 6, "line numbers count continuation lines");
}
