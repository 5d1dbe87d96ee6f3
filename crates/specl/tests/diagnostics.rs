//! End-to-end diagnostic quality: malformed specs must come back as
//! errors that name the file, line and column, quote the offending source
//! line, and point at the offending tokens with a caret run — the
//! acceptance bar for the specl front-end's error reporting.

use std::fs;
use std::panic;
use std::path::Path;

use specl::{compile, render_diagnostics, Diagnostic};

fn rendered(file: &str, source: &str) -> String {
    let diags = compile(source).expect_err("spec must be rejected");
    render_diagnostics(&diags, file, source)
}

#[test]
fn lex_error_points_at_the_bad_character() {
    let src = "spec s;\nproc p { state A { when ? { } } }\n";
    let out = rendered("bad.specl", src);
    assert!(out.contains("bad.specl:2:25"), "{out}");
    assert!(out.contains("unexpected character `?`"), "{out}");
    // The caret line sits under the quoted source line.
    assert!(
        out.contains("2 | proc p { state A { when ? { } } }"),
        "{out}"
    );
    assert!(out.contains("^"), "{out}");
}

#[test]
fn parse_error_names_what_was_expected() {
    let src = "spec s;\nchan c from a to b cap;\n";
    let out = rendered("chan.specl", src);
    assert!(out.contains("chan.specl:2:23"), "{out}");
    assert!(out.contains("expected"), "{out}");
}

#[test]
fn sema_errors_carry_carets_and_accumulate() {
    // Two independent sema errors: an unknown variable in a guard and a
    // send on an undeclared channel. Both must be reported in one pass.
    let src = concat!(
        "spec s;\n",
        "msg M;\n",
        "chan c from p to q cap 2;\n",
        "proc p { state A { when oops { send nochan M; } } }\n",
        "proc q { state B { } }\n",
    );
    let out = rendered("sema.specl", src);
    assert!(out.contains("unknown variable `oops`"), "{out}");
    assert!(out.contains("sema.specl:4:25"), "{out}");
    assert!(out.contains("unknown channel `nochan`"), "{out}");
    assert!(out.contains("sema.specl:4:37"), "{out}");
    assert_eq!(out.matches("error:").count(), 2, "{out}");
}

#[test]
fn caret_width_covers_the_offending_token() {
    let src = "spec s;\nproc p { state A { when missing_var { } } }\n";
    let out = rendered("w.specl", src);
    // The caret run is as wide as the identifier it underlines.
    let caret_line = out
        .lines()
        .find(|l| l.contains('^'))
        .unwrap_or_else(|| panic!("no caret line in:\n{out}"));
    let carets = caret_line.chars().filter(|&c| c == '^').count();
    assert_eq!(carets, "missing_var".len(), "{out}");
}

#[test]
fn type_errors_point_at_the_expression() {
    let src = concat!(
        "spec s;\n",
        "global flag: bool = false;\n",
        "proc p { state A { when flag + 1 > 0 { } } }\n",
    );
    let out = rendered("ty.specl", src);
    assert!(out.contains("ty.specl:3"), "{out}");
    assert!(out.to_lowercase().contains("int"), "{out}");
}

#[test]
fn diagnostics_display_is_line_col_message() {
    let diags = compile("spec s;\nglobal g: int 5..1 = 2;\n").unwrap_err();
    let shown = diags[0].to_string();
    assert!(shown.starts_with("2:"), "{shown}");
    assert!(
        shown.contains("empty range") || shown.contains("range"),
        "{shown}"
    );
}

/// Every shipped `.specl` file as `(file name, source)`, from `specs/`,
/// `specs/fivegs/` and `specs/remedies/`.
fn shipped_specs() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs");
    let mut files = Vec::new();
    for dir in [root.clone(), root.join("fivegs"), root.join("remedies")] {
        for entry in fs::read_dir(&dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
            let path = entry.expect("dir entry").path();
            if path.extension().is_some_and(|x| x == "specl") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let name = p
                .file_name()
                .expect("file name")
                .to_string_lossy()
                .into_owned();
            (name, fs::read_to_string(&p).expect("spec readable"))
        })
        .collect()
}

/// A SplitMix64 stream, so the sampled inputs are fixed by the seed.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// `compile(source)` returns without panicking, and an `Err` renders one
/// `file:line:col` location and one caret run per diagnostic.
fn assert_compiles_or_renders(file: &str, source: &str, input: &str) {
    let compiled = panic::catch_unwind(|| compile(source))
        .unwrap_or_else(|_| panic!("{input} of {file} panicked; the input was:\n{source}"));
    if let Err(diags) = compiled {
        assert_renders(file, source, input, &diags);
    }
}

/// `diags` is not empty, and rendering it against `source` shows one
/// `file:line:col` location and one caret run per diagnostic.
fn assert_renders(file: &str, source: &str, input: &str, diags: &[Diagnostic]) {
    assert!(
        !diags.is_empty(),
        "{input} of {file}: an error with no diagnostic"
    );
    let out = render_diagnostics(diags, file, source);
    for d in diags {
        let at = format!("--> {file}:{}:{}", d.span.line, d.span.col);
        assert!(out.contains(&at), "{input} of {file}: no `{at}` in\n{out}");
    }
    let carets = out.lines().filter(|l| l.ends_with('^')).count();
    assert_eq!(
        carets,
        diags.len(),
        "{input} of {file}: one caret run each in\n{out}"
    );
}

/// `truncations` truncated and `splices` token-spliced copies of `source`,
/// each as `(what was done, mangled text)`.
fn mangled(
    rng: &mut Rng,
    source: &str,
    truncations: usize,
    splices: usize,
) -> Vec<(String, String)> {
    let mut out = Vec::with_capacity(truncations + splices);
    for _ in 0..truncations {
        let mut cut = rng.below(source.len() + 1);
        while !source.is_char_boundary(cut) {
            cut -= 1;
        }
        out.push((format!("truncation at {cut}"), source[..cut].to_owned()));
    }
    let toks = specl::lexer::lex(source).expect("shipped specs lex");
    for _ in 0..splices {
        let span = toks[rng.below(toks.len())].span;
        let (head, tail) = (&source[..span.start], &source[span.end..]);
        let token = &source[span.start..span.end];
        let piece = SPLICES[rng.below(SPLICES.len())];
        out.push(match rng.below(3) {
            0 => (
                format!("deleting `{token}` at {}", span.start),
                format!("{head}{tail}"),
            ),
            1 => (
                format!("inserting `{piece}` at {}", span.start),
                format!("{head}{piece} {token}{tail}"),
            ),
            _ => (
                format!("replacing `{token}` at {} with `{piece}`", span.start),
                format!("{head}{piece}{tail}"),
            ),
        });
    }
    out
}

/// Text spliced in at a token boundary: punctuation, an oversized number
/// and every keyword.
const SPLICES: &[&str] = &[
    ";",
    "{",
    "}",
    "..",
    "9999999",
    "spec",
    "instance",
    "msg",
    "chan",
    "from",
    "to",
    "cap",
    "lossy",
    "dup",
    "global",
    "proc",
    "var",
    "init",
    "state",
    "when",
    "recv",
    "send",
    "goto",
    "as",
    "bool",
    "int",
    "true",
    "false",
    "always",
    "never",
    "eventually",
    "boundary",
    "timer",
    "deadline",
    "start",
    "stop",
    "expire",
    "atomic",
];

/// Truncated and token-spliced copies of every shipped spec go through
/// the whole front end (lexer, parser, sema, lowering). Each compiles or
/// fails with caret diagnostics; none panics.
#[test]
fn mangled_shipped_specs_fail_with_diagnostics_never_panics() {
    let specs = shipped_specs();
    assert_eq!(specs.len(), 9, "every shipped spec is fed through");
    let mut rng = Rng(0x5eed_5bec);
    for (file, source) in &specs {
        for (input, mangled) in mangled(&mut rng, source, 400, 500) {
            assert_compiles_or_renders(file, &mangled, &input);
        }
    }
}

/// Truncated and token-spliced copies of both shipped remedy patches are
/// parsed, merged onto their base spec with `apply_overlay`, checked and
/// lowered, as `repro --exp remedies` merges them. Each lowers or fails
/// with diagnostics; none panics. A patch's parse error renders with its
/// caret; a check error of the merged spec may point into either file.
#[test]
fn mangled_remedy_overlays_fail_with_diagnostics_never_panics() {
    let specs = shipped_specs();
    let patches: Vec<_> = specs
        .iter()
        .filter(|(file, _)| file.contains("__"))
        .collect();
    assert_eq!(patches.len(), 2, "both shipped patches are fed through");
    let mut rng = Rng(0x0fe7_1a75);
    for (file, source) in patches {
        let base_file = format!("{}.specl", file.split("__").next().expect("patch name"));
        let (_, base_source) = specs
            .iter()
            .find(|(f, _)| *f == base_file)
            .unwrap_or_else(|| panic!("{file}: no base spec {base_file}"));
        let base = specl::parse(base_source).expect("shipped base specs parse");
        for (input, mangled) in mangled(&mut rng, source, 100, 200) {
            let panicked = format!("{input} of {file} panicked; the input was:\n{mangled}");
            let parsed = panic::catch_unwind(|| specl::parse(&mangled));
            let patch = match parsed.unwrap_or_else(|_| panic!("{panicked}")) {
                Ok(patch) => patch,
                Err(d) => {
                    assert_renders(file, &mangled, &input, &[d]);
                    continue;
                }
            };
            let checked = panic::catch_unwind(|| {
                let merged = specl::apply_overlay(&base, &patch);
                specl::check(&merged)?;
                specl::lower(&merged);
                Ok::<(), Vec<Diagnostic>>(())
            })
            .unwrap_or_else(|_| panic!("{panicked}"));
            if let Err(diags) = checked {
                assert!(
                    !diags.is_empty(),
                    "{input} of {file}: a merge error with no diagnostic"
                );
            }
        }
    }
}
