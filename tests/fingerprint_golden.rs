//! Compile-output lock: `Compiled::fingerprint()` of NAS SP and BT class
//! S at several processor grids, and of every example program, must
//! match `tests/golden/fingerprints.txt` byte for byte (compared through
//! a 64-bit FNV-1a hash and the length of the fingerprint text).
//!
//! The golden file was recorded before the communication planner's
//! owner-candidate enumeration replaced its all-ranks scans, so a
//! passing run proves that refactor changed no plan, CP, report or
//! transformed program. A deliberate output change must regenerate the
//! file: the failure message prints the complete new contents.

use dhpf::prelude::*;
use std::collections::BTreeMap;

const GOLDEN: &str = include_str!("golden/fingerprints.txt");

/// Processor grids `(npy, npz)` the NAS codes are locked at.
const GRIDS: [(i64, i64); 4] = [(1, 1), (2, 2), (3, 2), (4, 4)];

fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn line(name: &str, compiled: &dhpf::core::driver::Compiled) -> String {
    let fp = compiled.fingerprint();
    format!("{name} {} {:016x}", fp.len(), fnv1a(&fp))
}

fn nas_line(bench: &str, npy: i64, npz: i64) -> String {
    let (program, mut bindings) = match bench {
        "sp" => (dhpf::nas::sp::parse(), dhpf::nas::sp::bindings(Class::S, 1)),
        "bt" => (dhpf::nas::bt::parse(), dhpf::nas::bt::bindings(Class::S, 1)),
        _ => unreachable!("unknown benchmark {bench}"),
    };
    bindings.insert("npy".into(), npy);
    bindings.insert("npz".into(), npz);
    let mut opts = CompileOptions::new();
    opts.bindings = bindings;
    opts.granularity = 4;
    let compiled = compile(&program, &opts).unwrap_or_else(|e| panic!("{bench} compile: {e}"));
    line(&format!("{bench}-S-{npy}x{npz}"), &compiled)
}

/// The `const PROGRAM: &str = "…";` source embedded in an example file.
fn embedded_program(example: &str) -> &str {
    let start = example
        .find("const PROGRAM: &str = \"")
        .expect("example embeds a PROGRAM")
        + "const PROGRAM: &str = \"".len();
    let len = example[start..].find("\";").expect("PROGRAM literal ends");
    &example[start..start + len]
}

fn example_lines() -> Vec<String> {
    let sources = [
        (
            "example-quickstart",
            embedded_program(include_str!("../examples/quickstart.rs")),
        ),
        (
            "example-stencil_compile",
            embedded_program(include_str!("../examples/stencil_compile.rs")),
        ),
        ("example-jacobi", include_str!("../examples/hpf/jacobi.f")),
    ];
    sources
        .iter()
        .map(|(name, src)| {
            let program = parse(src).unwrap_or_else(|d| panic!("{name} parse: {d:?}"));
            let compiled = compile(&program, &CompileOptions::new())
                .unwrap_or_else(|e| panic!("{name} compile: {e}"));
            line(name, &compiled)
        })
        .collect()
}

fn golden() -> BTreeMap<&'static str, &'static str> {
    GOLDEN
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| (l.split(' ').next().unwrap(), l))
        .collect()
}

fn check(actual: &[String]) {
    let golden = golden();
    let stale: Vec<&String> = actual
        .iter()
        .filter(|l| golden.get(l.split(' ').next().unwrap()) != Some(&l.as_str()))
        .collect();
    assert!(
        stale.is_empty(),
        "compile output changed; the new golden lines are:\n{}",
        stale
            .iter()
            .map(|l| l.as_str())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn sp_class_s_fingerprints_match_golden() {
    let lines: Vec<String> = GRIDS.iter().map(|&(y, z)| nas_line("sp", y, z)).collect();
    check(&lines);
}

#[test]
fn bt_class_s_fingerprints_match_golden() {
    let lines: Vec<String> = GRIDS.iter().map(|&(y, z)| nas_line("bt", y, z)).collect();
    check(&lines);
}

#[test]
fn example_fingerprints_match_golden() {
    check(&example_lines());
}

#[test]
fn golden_file_covers_every_locked_compile() {
    let golden = golden();
    let mut names: Vec<String> = ["sp", "bt"]
        .iter()
        .flat_map(|b| GRIDS.iter().map(move |(y, z)| format!("{b}-S-{y}x{z}")))
        .collect();
    names.extend(
        ["quickstart", "stencil_compile", "jacobi"]
            .iter()
            .map(|e| format!("example-{e}")),
    );
    for n in &names {
        assert!(golden.contains_key(n.as_str()), "golden lacks {n}");
    }
    assert_eq!(golden.len(), names.len(), "golden has stray entries");
}
