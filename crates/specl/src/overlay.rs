//! Spec-to-spec remedy overlays (§8 remedies as declarative patches).
//!
//! An overlay is an ordinary parsed [`Spec`] whose declarations *patch* a
//! base spec: named declarations — channels, globals, processes,
//! properties — replace the base declaration of the same name, new names
//! are appended, and the message alphabets are unioned. Declarations the
//! patch does not mention survive verbatim, so a remedy is written as
//! exactly the handful of lines it changes (a channel made reliable, a
//! retry budget zeroed, a process's detach edges replaced by recovery
//! edges) — the granularity at which §8 describes each fix.
//!
//! The merged spec is a plain [`Spec`]: run [`crate::check`] and
//! [`crate::lower`] on it like any hand-written file. Overlays are only
//! parsed, never checked in isolation — a patch that mentions just one
//! channel is not a well-formed spec on its own.

use crate::ast::Spec;

/// Merge `patch` into `base`, returning the remedied spec.
///
/// * the result takes the patch's `spec` name (a remedied spec is a
///   different spec; agreement tables key on the name);
/// * `instance` and `boundary` are overridden only when the patch declares
///   them;
/// * channels, timers, globals, processes and properties are replaced by
///   name, with unmatched patch declarations appended in declaration
///   order (so a remedy can stretch one guard timer without restating
///   the rest);
/// * the message alphabet is the union, base first.
pub fn apply_overlay(base: &Spec, patch: &Spec) -> Spec {
    let mut out = base.clone();
    out.name = patch.name.clone();
    if patch.instance.is_some() {
        out.instance = patch.instance.clone();
    }
    if patch.boundary.is_some() {
        out.boundary = patch.boundary.clone();
    }
    for m in &patch.msgs {
        if !out.msgs.iter().any(|x| x.name == m.name) {
            out.msgs.push(m.clone());
        }
    }
    for c in &patch.chans {
        match out.chans.iter_mut().find(|x| x.name.name == c.name.name) {
            Some(slot) => *slot = c.clone(),
            None => out.chans.push(c.clone()),
        }
    }
    for t in &patch.timers {
        match out.timers.iter_mut().find(|x| x.name.name == t.name.name) {
            Some(slot) => *slot = t.clone(),
            None => out.timers.push(t.clone()),
        }
    }
    for g in &patch.globals {
        match out.globals.iter_mut().find(|x| x.name.name == g.name.name) {
            Some(slot) => *slot = g.clone(),
            None => out.globals.push(g.clone()),
        }
    }
    for p in &patch.procs {
        match out.procs.iter_mut().find(|x| x.name.name == p.name.name) {
            Some(slot) => *slot = p.clone(),
            None => out.procs.push(p.clone()),
        }
    }
    for p in &patch.props {
        match out.props.iter_mut().find(|x| x.name.name == p.name.name) {
            Some(slot) => *slot = p.clone(),
            None => out.props.push(p.clone()),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    const BASE: &str = "\
spec base;
instance S2;

msg Ping, Pong;

chan ul from a to b cap 4 lossy dup 1;
chan dl from b to a cap 4;

global retries: int 0..2 = 2;
global done: bool = false;

proc a {
    init { send ul Ping; }
    state Wait {
        recv dl Pong as \"a: pong\" { done = true; }
    }
}

proc b {
    state Idle {
        recv ul Ping as \"b: ping\" { send dl Pong; }
    }
}

never Stuck: false;
";

    #[test]
    fn named_declarations_are_replaced_untouched_ones_survive() {
        let base = parse(BASE).expect("base parses");
        let patch = parse(
            "spec base_reliable;\ninstance S2;\n\
             chan ul from a to b cap 4;\n\
             global retries: int 0..2 = 0;\n",
        )
        .expect("patch parses");
        let merged = apply_overlay(&base, &patch);

        assert_eq!(merged.name.name, "base_reliable");
        assert_eq!(merged.instance.as_ref().unwrap().name, "S2");
        // ul replaced: no longer lossy, no dup budget.
        let ul = merged.chans.iter().find(|c| c.name.name == "ul").unwrap();
        assert!(!ul.lossy);
        assert_eq!(ul.dup, None);
        // dl untouched.
        let dl = merged.chans.iter().find(|c| c.name.name == "dl").unwrap();
        assert_eq!(dl.cap, 4);
        assert!(!dl.lossy);
        // retries re-initialized, done untouched, procs and props intact.
        let retries = merged
            .globals
            .iter()
            .find(|g| g.name.name == "retries")
            .unwrap();
        assert_eq!(retries.init, crate::ast::Literal::Int(0));
        assert_eq!(merged.globals.len(), 2);
        assert_eq!(merged.procs.len(), 2);
        assert_eq!(merged.props.len(), 1);
    }

    #[test]
    fn unmatched_declarations_are_appended() {
        let base = parse(BASE).expect("base parses");
        let patch = parse(
            "spec base_plus;\n\
             msg Nack;\n\
             global recovered: bool = false;\n\
             never Recovered: recovered;\n",
        )
        .expect("patch parses");
        let merged = apply_overlay(&base, &patch);
        assert!(merged.msgs.iter().any(|m| m.name == "Nack"));
        assert_eq!(merged.msgs.len(), 3, "alphabet is a union");
        assert_eq!(merged.globals.len(), 3);
        assert_eq!(merged.props.len(), 2);
        // Instance survives when the patch omits it.
        assert_eq!(merged.instance.as_ref().unwrap().name, "S2");
    }

    #[test]
    fn replaced_proc_swaps_whole_body() {
        let base = parse(BASE).expect("base parses");
        let patch = parse(
            "spec base_b2;\n\
             proc b {\n    state Idle {\n        recv ul Ping as \"b: drop\" { }\n    }\n}\n",
        )
        .expect("patch parses");
        let merged = apply_overlay(&base, &patch);
        assert_eq!(merged.procs.len(), 2);
        let b = merged.procs.iter().find(|p| p.name.name == "b").unwrap();
        assert_eq!(b.states.len(), 1);
        assert_eq!(b.states[0].edges.len(), 1);
        // The merged spec still checks as a whole.
        crate::check(&merged).expect("merged spec is well-formed");
    }

    #[test]
    fn timers_are_replaced_by_name_and_appended() {
        let base = parse(
            "spec t;\ntimer retry = 10;\n\
             proc p { init { start retry; } state S { expire retry { } } }\n",
        )
        .expect("base parses");
        let patch =
            parse("spec t_slow;\ntimer retry = 40;\ndeadline guard = 99;\n").expect("patch parses");
        let merged = apply_overlay(&base, &patch);
        assert_eq!(merged.timers.len(), 2);
        assert_eq!(merged.timers[0].duration, 40, "retry replaced in place");
        assert!(!merged.timers[0].oneshot);
        assert!(merged.timers[1].oneshot, "guard appended");
        crate::check(&merged).expect("merged spec is well-formed");
    }

    #[test]
    fn merged_reliable_overlay_checks_and_lowers() {
        let base = parse(BASE).expect("base parses");
        let patch = parse(
            "spec base_reliable;\nchan ul from a to b cap 4;\nglobal retries: int 0..2 = 0;\n",
        )
        .expect("patch parses");
        let merged = apply_overlay(&base, &patch);
        crate::check(&merged).expect("merged spec is well-formed");
        let model = crate::lower(&merged);
        drop(model);
    }
}
