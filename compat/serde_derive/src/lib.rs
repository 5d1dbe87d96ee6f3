//! The `Serialize` derive macro for the workspace's offline `serde` subset.
//!
//! Upstream `serde_derive` depends on `syn`/`quote`, which are unavailable
//! offline, so the item grammar is parsed directly from the raw
//! `proc_macro::TokenStream`. Supported shapes — which cover every derived
//! type in this repository — are non-generic structs (named, tuple, unit)
//! and enums whose variants are unit, tuple, or struct-like, with no
//! `#[serde(...)]` attributes. Enums use serde's default externally-tagged
//! representation; newtype structs serialize as their inner value.

use proc_macro::{Delimiter, TokenStream, TokenTree};

enum Fields {
    Unit,
    Tuple(usize),
    Named(Vec<String>),
}

enum Item {
    Struct {
        name: String,
        fields: Fields,
    },
    Enum {
        name: String,
        variants: Vec<(String, Fields)>,
    },
}

/// Derive `serde::Serialize` (streaming JSON writer).
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    match parse_item(input) {
        Ok(item) => gen_serialize(&item).parse().unwrap(),
        Err(e) => error_ts(&e),
    }
}

fn error_ts(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});").parse().unwrap()
}

// ----------------------------------------------------------------------
// Parsing
// ----------------------------------------------------------------------

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0usize;
    skip_attrs_and_vis(&tokens, &mut i);

    let kind = match tokens.get(i) {
        Some(TokenTree::Ident(id)) if id.to_string() == "struct" => "struct",
        Some(TokenTree::Ident(id)) if id.to_string() == "enum" => "enum",
        other => return Err(format!("expected struct or enum, got {other:?}")),
    };
    i += 1;
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected item name, got {other:?}")),
    };
    i += 1;

    if matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!(
            "generic type `{name}` is not supported by the offline serde derive"
        ));
    }

    if kind == "struct" {
        let fields = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Fields::Named(parse_named_fields(g.stream())?)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Fields::Tuple(count_top_level_elems(g.stream()))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Fields::Unit,
            other => return Err(format!("unsupported struct body: {other:?}")),
        };
        Ok(Item::Struct { name, fields })
    } else {
        let body = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
            other => return Err(format!("expected enum body, got {other:?}")),
        };
        Ok(Item::Enum {
            name,
            variants: parse_variants(body)?,
        })
    }
}

fn skip_attrs_and_vis(tokens: &[TokenTree], i: &mut usize) {
    loop {
        match tokens.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                *i += 1;
                if matches!(tokens.get(*i), Some(TokenTree::Punct(p)) if p.as_char() == '!') {
                    *i += 1;
                }
                if matches!(tokens.get(*i), Some(TokenTree::Group(_))) {
                    *i += 1;
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *i += 1;
                if matches!(tokens.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                {
                    *i += 1;
                }
            }
            _ => break,
        }
    }
}

/// Count comma-separated elements at angle-bracket depth 0 (commas inside
/// `<...>` belong to generic argument lists, not the element list).
fn count_top_level_elems(stream: TokenStream) -> usize {
    let mut depth = 0i32;
    let mut elems = 0usize;
    let mut saw_token = false;
    for t in stream {
        match &t {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                if saw_token {
                    elems += 1;
                }
                saw_token = false;
                continue;
            }
            _ => {}
        }
        saw_token = true;
    }
    if saw_token {
        elems += 1;
    }
    elems
}

fn parse_named_fields(stream: TokenStream) -> Result<Vec<String>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut i = 0usize;
    let mut fields = Vec::new();
    while i < tokens.len() {
        skip_attrs_and_vis(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        let name = match &tokens[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => return Err(format!("expected field name, got {other:?}")),
        };
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => return Err(format!("expected `:` after field `{name}`, got {other:?}")),
        }
        // Consume the type up to the next comma at angle depth 0.
        let mut depth = 0i32;
        while i < tokens.len() {
            match &tokens[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        fields.push(name);
    }
    Ok(fields)
}

fn parse_variants(stream: TokenStream) -> Result<Vec<(String, Fields)>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut i = 0usize;
    let mut variants = Vec::new();
    while i < tokens.len() {
        skip_attrs_and_vis(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        let name = match &tokens[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => return Err(format!("expected variant name, got {other:?}")),
        };
        i += 1;
        let fields = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                Fields::Tuple(count_top_level_elems(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                Fields::Named(parse_named_fields(g.stream())?)
            }
            _ => Fields::Unit,
        };
        // Skip an optional `= discriminant` and the trailing comma.
        let mut depth = 0i32;
        while i < tokens.len() {
            match &tokens[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        variants.push((name, fields));
    }
    Ok(variants)
}

// ----------------------------------------------------------------------
// Code generation
// ----------------------------------------------------------------------

fn gen_serialize(item: &Item) -> String {
    let (name, body) = match item {
        Item::Struct { name, fields } => (name, write_fields(fields, |f| format!("&self.{f}"))),
        Item::Enum { name, variants } => {
            let arms: Vec<String> = variants
                .iter()
                .map(|(v, fields)| {
                    let tag = quoted(v);
                    let (pattern, payload) = match fields {
                        Fields::Unit => {
                            return format!("{name}::{v} => __w.raw({tag})?,");
                        }
                        Fields::Tuple(n) => {
                            let binds: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                            (
                                format!("{name}::{v}({})", binds.join(", ")),
                                write_fields(fields, |i| format!("__f{i}")),
                            )
                        }
                        Fields::Named(fs) => (
                            format!("{name}::{v} {{ {} }}", fs.join(", ")),
                            write_fields(fields, str::to_string),
                        ),
                    };
                    format!(
                        "{pattern} => {{ __w.begin_map()?; __w.raw_key({tag})?; \
                         {payload} __w.end_map()?; }}"
                    )
                })
                .collect();
            (name, format!("match self {{\n{}\n}}", arms.join("\n")))
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
             fn serialize<__W: ::std::fmt::Write>(&self, __w: &mut ::serde::Writer<__W>) \
             -> ::std::fmt::Result {{\n\
                 {body}\n\
                 ::std::result::Result::Ok(())\n\
             }}\n\
         }}"
    )
}

/// Statements writing `fields` the way serde's default representation
/// does: unit as `null`, a single tuple field as its value, other tuples
/// as arrays and named fields as objects. `access` turns a field name or
/// tuple index into an expression borrowing that field.
fn write_fields(fields: &Fields, access: impl Fn(&str) -> String) -> String {
    let value = |f: &str| format!("::serde::Serialize::serialize({}, __w)?;", access(f));
    match fields {
        Fields::Unit => "__w.null()?;".to_string(),
        Fields::Tuple(1) => value("0"),
        Fields::Tuple(n) => {
            let elems: String = (0..*n)
                .map(|i| format!("__w.elem()?; {}", value(&i.to_string())))
                .collect();
            format!("__w.begin_seq()?; {elems} __w.end_seq()?;")
        }
        Fields::Named(fs) => {
            let entries: String = fs
                .iter()
                .map(|f| format!("__w.raw_key({})?; {}", quoted(f), value(f)))
                .collect();
            format!("__w.begin_map()?; {entries} __w.end_map()?;")
        }
    }
}

/// A Rust literal of `name` as a quoted JSON string. Identifiers need no
/// JSON escaping, so derived keys and tags are written verbatim.
fn quoted(name: &str) -> String {
    format!("{:?}", format!("\"{name}\""))
}
