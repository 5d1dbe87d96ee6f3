//! specl — a Promela-flavoured protocol-spec language compiled to `mck` models.
//!
//! The paper's methodology is Promela/Spin: protocol participants become
//! communicating FSMs, the usage scenario becomes interleaved processes, and
//! properties become never-claims. The hand-written Rust models in the
//! `cnetverifier` crate encode that by hand; this crate closes the loop with
//! an actual spec *language*, so a protocol interaction can be stated the way
//! the paper states it:
//!
//! ```text
//! spec attach;
//! instance S2;
//!
//! msg AttachRequest, AttachAccept;
//! chan ul from dev to mme cap 4 lossy dup 1;
//! chan dl from mme to dev cap 4;
//! global ever_registered: bool = false;
//!
//! proc dev {
//!     var attempts: int 0..7 = 0;
//!     init { attempts = 1; send ul AttachRequest; goto RegisteredInitiated; }
//!     state Deregistered { }
//!     state RegisteredInitiated {
//!         recv dl AttachAccept as "attach accepted" {
//!             ever_registered = true;
//!             goto Registered;
//!         }
//!     }
//!     state Registered { }
//! }
//! // ... the mme process, properties, a boundary ...
//! never PacketService_OK: ever_registered && dev @ Deregistered;
//! ```
//!
//! The pipeline is classic and small: [`lexer`] → [`parser`] (recursive
//! descent over the grammar in the parser docs) → [`sema`] (names, types,
//! bounds; all errors at once) → [`compile::lower`] (index-addressed
//! [`compile::Program`] interpreted by [`compile::SpecModel`], an
//! [`mck::Model`]). Errors at every stage carry [`diag::Span`]s and render
//! as caret snippets via [`diag::Diagnostic::render`].
//!
//! The compiled interpreter mirrors `mck::Chan` semantics exactly
//! (loss, duplication budgets, overflow counting), which is what lets the
//! test suite demand *identical reachable-state counts* between a spec and
//! the hand-written Rust model of the same protocol — see
//! `specs/` and the `spec_agreement` integration test in the core crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod compile;
pub mod diag;
pub mod intern;
pub mod lexer;
pub mod overlay;
pub mod parser;
pub mod sema;

pub use compile::{compile, lower, PorInfo, Program, SpecAction, SpecModel, SpecState, TimerDef};
pub use diag::{Diagnostic, Span};
pub use overlay::apply_overlay;
pub use parser::parse;
pub use sema::check;

/// Render a batch of diagnostics with caret snippets, one after another.
///
/// `file` is the display name of the source (a path, `<inline>`, ...).
pub fn render_diagnostics(diags: &[Diagnostic], file: &str, source: &str) -> String {
    diags
        .iter()
        .map(|d| d.render(file, source))
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    #[test]
    fn compile_surfaces_rendered_diagnostics() {
        let src = "spec x;\nproc p { state S { when oops { } } }\n";
        let diags = crate::compile(src).expect_err("unknown variable");
        let rendered = crate::render_diagnostics(&diags, "bad.specl", src);
        assert!(rendered.contains("unknown variable `oops`"));
        assert!(rendered.contains("bad.specl:2:25"));
        assert!(
            rendered.contains("^^^^"),
            "caret run under `oops`:\n{rendered}"
        );
    }
}
