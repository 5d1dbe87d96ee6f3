//! Differential remedy verification — base vs remedied screening.
//!
//! §8 proposes remedies; §9 argues they work. This module makes that
//! argument *differential*: every screening scenario is checked twice —
//! once as the paper models it, once with a §8 remedy's typed edit
//! (`fn(M) -> M`, defined on the model) applied — under a matrix of fault
//! campaigns, which are typed edits too, and the two exhaustive runs are
//! diffed property by property. Each (scenario, campaign, remedy) cell
//! reports, per property:
//!
//! * **eliminated** — the base violation is gone under the remedy (the
//!   §9 success case);
//! * **persists** — the violation survives the remedy (a partial or
//!   misdeployed remedy, the Kairos-style regression probe);
//! * **introduced** — the remedy creates a violation the base model
//!   never had (e.g. the CSFB tag restores `MM_OK` *at the cost of
//!   disrupting the data session*, which [`props::DATA_SERVICE_OK`]
//!   catches);
//! * **clean** — neither side violates.
//!
//! plus the state-space diff: unique-state counts and BFS/DFS witness
//! lengths on both sides. All printed numbers come from the canonical
//! sequential engines (BFS; DFS where the witness is a lasso), so the
//! matrix is byte-identical across hosts. The parallel engine re-screens
//! each side of every BFS cell and must agree on the violated-property
//! set (lasso scenarios are excluded — only DFS detects cycles).
//!
//! Some remedies also exist at the spec level: where a
//! [`remedies::registry`] entry carries a `.specl` module overlay,
//! [`overlay_agreement`] merges it onto the base spec with
//! [`specl::apply_overlay`] and cross-checks the compiled result against
//! its reference (the hand-written remedied spec or Rust model).

use std::fs;
use std::path::Path;

use mck::{Checker, Model, SearchStrategy};
use remedies::{RemedyClass, RemedyOverlay};

use crate::models::attach::AttachModel;
use crate::models::crosssys_lu::CrossSysLuModel;
use crate::models::csfb_rrc::CsfbRrcModel;
use crate::models::holblock::HolBlockModel;
use crate::models::switchctx::SwitchContextModel;
use crate::props;
use crate::screening::{strategy_name, CROSS_CHECK};

/// A typed edit of a model: one §8 remedy or one fault campaign, defined
/// once on the model it edits (e.g. [`AttachModel::reliable_shim`]).
pub type Edit<M> = fn(M) -> M;

/// A named perturbation applied to the *base* model before the remedy:
/// the screening-side analogue of the fleet's fault campaigns. The
/// campaign's edit runs first, the remedy's second, so a remedy that
/// rewrites the same knob (the shim re-specifying the uplink) wins —
/// deploying the fix supersedes the fault.
#[derive(Clone, Debug)]
pub struct FaultCampaign<M> {
    /// Campaign name as printed in the matrix.
    pub name: &'static str,
    /// The perturbation.
    pub edit: Edit<M>,
}

impl<M> FaultCampaign<M> {
    /// The unperturbed baseline every scenario is screened under.
    pub fn nominal() -> Self {
        Self {
            name: "nominal",
            edit: std::convert::identity,
        }
    }
}

/// One property's base-vs-remedied comparison.
#[derive(Clone, Debug)]
pub struct PropDiff {
    /// Property name.
    pub property: String,
    /// Violated in the base (campaigned) model?
    pub base_violated: bool,
    /// Violated in the remedied model?
    pub rem_violated: bool,
    /// Base counterexample length, when violated.
    pub base_witness: Option<usize>,
    /// Remedied counterexample length, when violated.
    pub rem_witness: Option<usize>,
}

impl PropDiff {
    /// The differential classification of this property.
    pub fn status(&self) -> &'static str {
        match (self.base_violated, self.rem_violated) {
            (true, false) => "eliminated",
            (true, true) => "persists",
            (false, true) => "introduced",
            (false, false) => "clean",
        }
    }
}

/// One (scenario, campaign, remedy) cell of the differential matrix.
#[derive(Clone, Debug)]
pub struct DiffRow {
    /// Paper instance ("S1".."S6").
    pub scenario: &'static str,
    /// Screening-model family name.
    pub model_name: &'static str,
    /// Fault campaign the base model ran under.
    pub campaign: &'static str,
    /// Remedy overlay name.
    pub remedy: String,
    /// Which of the paper's solution modules the remedy belongs to.
    pub class: RemedyClass,
    /// Canonical engine that produced the numbers ("bfs" or "dfs").
    pub engine: &'static str,
    /// Unique states of the base (campaigned) model.
    pub base_states: u64,
    /// Unique states of the remedied model.
    pub rem_states: u64,
    /// Per-property comparison, in the model's property order.
    pub props: Vec<PropDiff>,
}

impl DiffRow {
    /// Violations the remedy eliminated.
    pub fn eliminated(&self) -> usize {
        self.props
            .iter()
            .filter(|p| p.status() == "eliminated")
            .count()
    }

    /// Violations that persist under the remedy.
    pub fn persists(&self) -> usize {
        self.props
            .iter()
            .filter(|p| p.status() == "persists")
            .count()
    }

    /// Violations the remedy introduced.
    pub fn introduced(&self) -> usize {
        self.props
            .iter()
            .filter(|p| p.status() == "introduced")
            .count()
    }

    /// Signed state-space delta (remedied minus base).
    pub fn state_delta(&self) -> i64 {
        self.rem_states as i64 - self.base_states as i64
    }
}

/// Exhaustive profile of one model: unique states plus every recorded
/// violation as (property, witness length).
pub(crate) struct Profile {
    pub(crate) states: u64,
    violations: Vec<(&'static str, usize)>,
}

impl Profile {
    /// `property`'s counterexample length, or `None` when it holds.
    pub(crate) fn witness(&self, property: &str) -> Option<usize> {
        self.violations
            .iter()
            .find(|(p, _)| *p == property)
            .map(|&(_, len)| len)
    }

    /// The violated properties, sorted.
    fn violated(&self) -> Vec<&'static str> {
        let mut v: Vec<_> = self.violations.iter().map(|&(p, _)| p).collect();
        v.sort_unstable();
        v
    }
}

/// Run `model` to exhaustion under `strategy` and read back its profile.
pub(crate) fn profile<M>(model: &M, strategy: SearchStrategy) -> Profile
where
    M: Model + Sync + Clone,
    M::State: Send + Sync,
    M::Action: Send + Sync,
{
    let result = Checker::new(model.clone()).strategy(strategy).run();
    assert!(result.complete, "profiles must be exhaustive");
    Profile {
        states: result.stats.unique_states,
        violations: result
            .violations
            .iter()
            .map(|v| (v.property, v.path.len()))
            .collect(),
    }
}

/// Screen one scenario differentially: every campaign × every remedy,
/// each remedy given as its registry entry and its typed edit. BFS cells
/// are re-screened with [`CROSS_CHECK`], which must find the same
/// violated-property sets.
fn diff_scenario<M>(
    scenario: &'static str,
    model_name: &'static str,
    base: &M,
    campaigns: &[FaultCampaign<M>],
    remedies_list: &[(RemedyOverlay, Edit<M>)],
    canonical: SearchStrategy,
    out: &mut Vec<DiffRow>,
) where
    M: Model + Clone + Sync,
    M::State: Send + Sync,
    M::Action: Send + Sync,
{
    let checked = |model: &M, cell: &str| {
        let p = profile(model, canonical);
        if canonical == SearchStrategy::Bfs {
            assert_eq!(
                profile(model, CROSS_CHECK).violated(),
                p.violated(),
                "{scenario}/{cell}: engines disagree on the violated set"
            );
        }
        p
    };
    let prop_names: Vec<&'static str> = base.properties().iter().map(|p| p.name).collect();
    for campaign in campaigns {
        let campaigned = (campaign.edit)(base.clone());
        let base_profile = checked(&campaigned, campaign.name);
        for (remedy, edit) in remedies_list {
            let remedied = edit(campaigned.clone());
            let rem_profile = checked(&remedied, &format!("{}/{}", campaign.name, remedy.name));
            let props = prop_names
                .iter()
                .map(|&name| {
                    let (b, r) = (base_profile.witness(name), rem_profile.witness(name));
                    PropDiff {
                        property: name.to_string(),
                        base_violated: b.is_some(),
                        rem_violated: r.is_some(),
                        base_witness: b,
                        rem_witness: r,
                    }
                })
                .collect();
            out.push(DiffRow {
                scenario,
                model_name,
                campaign: campaign.name,
                remedy: remedy.name.to_string(),
                class: remedy.class,
                engine: strategy_name(canonical),
                base_states: base_profile.states,
                rem_states: rem_profile.states,
                props,
            });
        }
    }
}

/// The §8 shim deployed with sequence numbers only: duplicates are
/// suppressed, but nothing retransmits — the Figure 5a loss race
/// survives. The matrix's persist-under-campaign probe (a remedy that
/// *looks* deployed but is not the full fix); its edit is
/// [`AttachModel::drop_only`].
pub fn partial_reliable_shim() -> RemedyOverlay {
    RemedyOverlay {
        name: "reliable_shim/no-retx",
        class: RemedyClass::LayerExtension,
        instance: "S2",
        paper_ref: "§8 shim with sequence numbers only (no retransmission)",
        spec_overlay: None,
    }
}

/// The [`remedies::registry`] entry named `name`.
fn registry_remedy(name: &str) -> RemedyOverlay {
    remedies::remedy(name).unwrap_or_else(|| panic!("registry is missing `{name}`"))
}

/// Run the full differential matrix: every screening scenario with a
/// hand-written model (S1–S4, S6), under its fault campaigns, against its
/// §8 remedies from [`remedies::registry`] (plus the partial-shim probe on
/// S2), each deployed by the model's typed edit.
///
/// Every non-lasso cell is re-screened with the parallel engine, which
/// must find the same violated-property sets; the printed numbers always
/// come from the canonical sequential engines.
pub fn diff_matrix() -> Vec<DiffRow> {
    let mut rows = Vec::new();

    // S1 — shared switch context. Campaign: extra deactivation pressure
    // (the fleet's restart campaigns at model scale).
    diff_scenario(
        "S1",
        "switch-context",
        &SwitchContextModel::paper(),
        &[
            FaultCampaign::nominal(),
            FaultCampaign {
                name: "deact-pressure",
                edit: SwitchContextModel::deact_pressure,
            },
        ],
        &[(
            registry_remedy("bearer_reactivation"),
            SwitchContextModel::bearer_reactivation,
        )],
        SearchStrategy::Bfs,
        &mut rows,
    );

    // S2 — attach over unreliable RRC. The drop-only campaign strips the
    // channel's duplication so loss is the sole hazard; the full shim
    // supersedes either channel, the no-retx probe only de-duplicates.
    diff_scenario(
        "S2",
        "attach/unreliable-RRC",
        &AttachModel::paper(),
        &[
            FaultCampaign::nominal(),
            FaultCampaign {
                name: "drop-only",
                edit: AttachModel::drop_only,
            },
        ],
        &[
            (registry_remedy("reliable_shim"), AttachModel::reliable_shim),
            (partial_reliable_shim(), AttachModel::drop_only),
        ],
        SearchStrategy::Bfs,
        &mut rows,
    );

    // S3 — CSFB return gated on RRC state. The witness is a lasso, so the
    // canonical engine is DFS and no cross-engine check applies. The
    // low-rate campaign is the paper's companion case (FACH instead of
    // DCH still blocks reselection).
    diff_scenario(
        "S3",
        "csfb-rrc",
        &CsfbRrcModel::op2_high_rate(),
        &[
            FaultCampaign::nominal(),
            FaultCampaign {
                name: "low-rate",
                edit: CsfbRrcModel::low_rate,
            },
        ],
        &[(registry_remedy("csfb_tag"), CsfbRrcModel::csfb_tag)],
        SearchStrategy::Dfs,
        &mut rows,
    );

    // S4 — HOL blocking behind location updates.
    diff_scenario(
        "S4",
        "mm-holblock",
        &HolBlockModel::paper(),
        &[FaultCampaign::nominal()],
        &[(registry_remedy("parallel_mm"), HolBlockModel::parallel_mm)],
        SearchStrategy::Bfs,
        &mut rows,
    );

    // S6 — 3G LU failure propagated cross-system.
    diff_scenario(
        "S6",
        "crosssys-lu",
        &CrossSysLuModel::paper(),
        &[FaultCampaign::nominal()],
        &[(
            registry_remedy("mme_lu_recovery"),
            CrossSysLuModel::mme_lu_recovery,
        )],
        SearchStrategy::Bfs,
        &mut rows,
    );

    rows
}

fn witness_cell(w: Option<usize>) -> String {
    w.map(|n| n.to_string()).unwrap_or_else(|| "-".into())
}

/// Render the matrix as the fixed-width table `repro --exp remedies`
/// prints (and the golden pins). One line per (cell, property).
pub fn render_matrix(rows: &[DiffRow]) -> String {
    let mut lines: Vec<[String; 8]> = vec![[
        "scenario".into(),
        "campaign".into(),
        "remedy".into(),
        "property".into(),
        "status".into(),
        "states base->rem".into(),
        "witness base->rem".into(),
        "engine".into(),
    ]];
    for row in rows {
        for p in &row.props {
            lines.push([
                format!("{}/{}", row.scenario, row.model_name),
                row.campaign.to_string(),
                row.remedy.clone(),
                p.property.clone(),
                p.status().to_string(),
                format!(
                    "{} -> {} ({:+})",
                    row.base_states,
                    row.rem_states,
                    row.state_delta()
                ),
                format!(
                    "{} -> {}",
                    witness_cell(p.base_witness),
                    witness_cell(p.rem_witness)
                ),
                row.engine.to_string(),
            ]);
        }
    }
    let mut widths = [0usize; 8];
    for line in &lines {
        for (w, cell) in widths.iter_mut().zip(line.iter()) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    for (i, line) in lines.iter().enumerate() {
        let rendered: Vec<String> = line
            .iter()
            .zip(widths.iter())
            .map(|(cell, w)| format!("{cell:<w$}"))
            .collect();
        out.push_str(rendered.join("  ").trim_end());
        out.push('\n');
        if i == 0 {
            let total = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
            out.push_str(&"-".repeat(total));
            out.push('\n');
        }
    }
    let eliminated: usize = rows.iter().map(DiffRow::eliminated).sum();
    let persists: usize = rows.iter().map(DiffRow::persists).sum();
    let introduced: usize = rows.iter().map(DiffRow::introduced).sum();
    out.push_str(&format!(
        "\ntotals: {eliminated} eliminated, {persists} persist, {introduced} introduced \
         across {} cells\n",
        rows.len()
    ));
    out
}

/// One spec-level overlay cross-check row.
#[derive(Clone, Debug)]
pub struct OverlayCheck {
    /// Registry remedy that carries the overlay.
    pub remedy: &'static str,
    /// Overlay source path, repo-relative.
    pub overlay_file: &'static str,
    /// Base spec name the overlay patched.
    pub base_spec: String,
    /// Merged spec name (the overlay's `spec` declaration).
    pub merged_spec: String,
    /// The property cross-checked.
    pub property: &'static str,
    /// Reachable unique states of the merged compiled spec.
    pub merged_states: u64,
    /// Did the merged spec violate the property?
    pub merged_violated: bool,
    /// Merged counterexample length, when violated.
    pub merged_witness: Option<usize>,
    /// What the merged spec is checked against.
    pub reference: &'static str,
    /// Reference unique states.
    pub reference_states: u64,
    /// Did the reference violate the property?
    pub reference_violated: bool,
    /// Reference counterexample length, when violated.
    pub reference_witness: Option<usize>,
    /// Whether exact state/witness equality is demanded (spec-vs-spec
    /// references) or only verdict agreement (spec-vs-Rust references,
    /// whose state encodings differ).
    pub exact: bool,
}

impl OverlayCheck {
    /// Does the merged spec agree with its reference?
    pub fn agree(&self) -> bool {
        self.merged_violated == self.reference_violated
            && (!self.exact
                || (self.merged_states == self.reference_states
                    && self.merged_witness == self.reference_witness))
    }
}

fn compile_spec_file(path: &Path) -> Result<specl::SpecModel, String> {
    let src = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    specl::compile(&src)
        .map_err(|diags| specl::render_diagnostics(&diags, &path.display().to_string(), &src))
}

fn parse_spec_file(path: &Path) -> Result<specl::ast::Spec, String> {
    let src = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    specl::parse(&src)
        .map_err(|d| specl::render_diagnostics(&[d], &path.display().to_string(), &src))
}

/// The registry name and spec-overlay path of the remedy named `name`.
fn spec_overlay(name: &str) -> (&'static str, &'static str) {
    let r = registry_remedy(name);
    let path = r
        .spec_overlay
        .unwrap_or_else(|| panic!("registry entry `{name}` carries no spec overlay"));
    (r.name, path)
}

/// Parse `base` and `patch`, merge them with `specl::apply_overlay`, and
/// check and lower the result. A parse error renders with its caret; a
/// check error of the merged spec names both files, since its span may
/// point into either.
fn merge_spec_files(
    base: &Path,
    patch: &Path,
) -> Result<(String, String, specl::SpecModel), String> {
    let base_spec = parse_spec_file(base)?;
    let patch_spec = parse_spec_file(patch)?;
    let merged = specl::apply_overlay(&base_spec, &patch_spec);
    specl::check(&merged).map_err(|ds| {
        format!(
            "{} + {}: merged spec invalid: {}",
            base.display(),
            patch.display(),
            ds.first().map(|d| d.message.as_str()).unwrap_or("?")
        )
    })?;
    Ok((
        base_spec.name.name.clone(),
        merged.name.name.clone(),
        specl::lower(&merged),
    ))
}

/// Cross-check every spec-backed remedy in the registry: merge its
/// `spec_overlay` onto its base spec and compare the compiled result
/// against its reference.
///
/// * `reliable_shim` merges onto `specs/attach_s2.specl` and must agree
///   with `specs/attach_reliable.specl` **exactly** — same verdict, same
///   reachable-state count, same witness (both sides compile through the
///   same front-end, so any daylight is an overlay bug).
/// * `mme_lu_recovery` merges onto `specs/crosssys_lu_s6.specl` and must
///   agree with `CrossSysLuModel::remedied()` on the verdict (`MM_OK`
///   holds); state counts are reported for the diff but not equated —
///   the encodings are different front-ends.
///
/// `repo_root` is the directory holding `specs/`.
pub fn overlay_agreement(repo_root: &Path) -> Result<Vec<OverlayCheck>, String> {
    let mut rows = Vec::new();

    // S2: spec-to-spec, exact.
    let (remedy, overlay_file) = spec_overlay("reliable_shim");
    let (base_name, merged_name, merged) = merge_spec_files(
        &repo_root.join("specs/attach_s2.specl"),
        &repo_root.join(overlay_file),
    )?;
    let m = profile(&merged, SearchStrategy::Bfs);
    let reference = compile_spec_file(&repo_root.join("specs/attach_reliable.specl"))?;
    let r = profile(&reference, SearchStrategy::Bfs);
    let (m_wit, r_wit) = (
        m.witness(props::PACKET_SERVICE_OK),
        r.witness(props::PACKET_SERVICE_OK),
    );
    rows.push(OverlayCheck {
        remedy,
        overlay_file,
        base_spec: base_name,
        merged_spec: merged_name,
        property: props::PACKET_SERVICE_OK,
        merged_states: m.states,
        merged_violated: m_wit.is_some(),
        merged_witness: m_wit,
        reference: "specs/attach_reliable.specl",
        reference_states: r.states,
        reference_violated: r_wit.is_some(),
        reference_witness: r_wit,
        exact: true,
    });

    // S6: spec-to-Rust, verdict-level.
    let (remedy, overlay_file) = spec_overlay("mme_lu_recovery");
    let (base_name, merged_name, merged) = merge_spec_files(
        &repo_root.join("specs/crosssys_lu_s6.specl"),
        &repo_root.join(overlay_file),
    )?;
    let m = profile(&merged, SearchStrategy::Bfs);
    let r = profile(&CrossSysLuModel::remedied(), SearchStrategy::Bfs);
    let (m_wit, r_wit) = (m.witness(props::MM_OK), r.witness(props::MM_OK));
    rows.push(OverlayCheck {
        remedy,
        overlay_file,
        base_spec: base_name,
        merged_spec: merged_name,
        property: props::MM_OK,
        merged_states: m.states,
        merged_violated: m_wit.is_some(),
        merged_witness: m_wit,
        reference: "CrossSysLuModel::remedied()",
        reference_states: r.states,
        reference_violated: r_wit.is_some(),
        reference_witness: r_wit,
        exact: false,
    });

    Ok(rows)
}

/// Render the overlay-agreement rows for `repro --exp remedies`.
pub fn render_overlay_agreement(rows: &[OverlayCheck]) -> String {
    let mut out = String::new();
    for r in rows {
        let verdict = |v: bool, w: Option<usize>| {
            if v {
                format!("VIOLATED (witness {})", witness_cell(w))
            } else {
                "holds".to_string()
            }
        };
        out.push_str(&format!(
            "{}: {} onto `{}` -> `{}`\n  merged:    {:>6} states, {} {}\n  \
             reference: {:>6} states, {} {}  [{}]\n  agreement: {} ({})\n",
            r.remedy,
            r.overlay_file,
            r.base_spec,
            r.merged_spec,
            r.merged_states,
            r.property,
            verdict(r.merged_violated, r.merged_witness),
            r.reference_states,
            r.property,
            verdict(r.reference_violated, r.reference_witness),
            r.reference,
            if r.agree() { "OK" } else { "MISMATCH" },
            if r.exact {
                "exact: verdict + states + witness"
            } else {
                "verdict"
            },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell<'a>(rows: &'a [DiffRow], scenario: &str, campaign: &str, remedy: &str) -> &'a DiffRow {
        rows.iter()
            .find(|r| r.scenario == scenario && r.campaign == campaign && r.remedy == remedy)
            .unwrap_or_else(|| panic!("no cell {scenario}/{campaign}/{remedy}"))
    }

    fn prop<'a>(row: &'a DiffRow, name: &str) -> &'a PropDiff {
        row.props
            .iter()
            .find(|p| p.property == name)
            .unwrap_or_else(|| panic!("no property {name}"))
    }

    #[test]
    fn full_remedies_eliminate_their_violations() {
        let rows = diff_matrix();
        // ISSUE acceptance: >= 2 of S1..S6 eliminated by their §8 remedy.
        for (scenario, remedy, property) in [
            ("S1", "bearer_reactivation", props::PACKET_SERVICE_OK),
            ("S2", "reliable_shim", props::PACKET_SERVICE_OK),
            ("S3", "csfb_tag", props::MM_OK),
            ("S4", "parallel_mm", props::CALL_SERVICE_OK),
            ("S6", "mme_lu_recovery", props::MM_OK),
        ] {
            let row = cell(&rows, scenario, "nominal", remedy);
            assert_eq!(
                prop(row, property).status(),
                "eliminated",
                "{scenario}: {remedy} must eliminate {property}"
            );
        }
    }

    #[test]
    fn partial_shim_persists_under_loss() {
        let rows = diff_matrix();
        for campaign in ["nominal", "drop-only"] {
            let row = cell(&rows, "S2", campaign, "reliable_shim/no-retx");
            assert_eq!(
                prop(row, props::PACKET_SERVICE_OK).status(),
                "persists",
                "sequence numbers without retransmission leave the \
                 Figure 5a loss race ({campaign})"
            );
        }
    }

    #[test]
    fn csfb_tag_introduces_data_disruption() {
        let rows = diff_matrix();
        let row = cell(&rows, "S3", "nominal", "csfb_tag");
        assert_eq!(prop(row, props::MM_OK).status(), "eliminated");
        assert_eq!(
            prop(row, props::DATA_SERVICE_OK).status(),
            "introduced",
            "the tag restores mobility at the cost of the data session"
        );
    }

    #[test]
    fn remedies_hold_under_campaign_pressure() {
        // The re-screen under fault campaigns: the full remedies stay
        // effective when the campaign turns the pressure up.
        let rows = diff_matrix();
        let s1 = cell(&rows, "S1", "deact-pressure", "bearer_reactivation");
        assert_eq!(prop(s1, props::PACKET_SERVICE_OK).status(), "eliminated");
        let s2 = cell(&rows, "S2", "drop-only", "reliable_shim");
        assert_eq!(prop(s2, props::PACKET_SERVICE_OK).status(), "eliminated");
        let s3 = cell(&rows, "S3", "low-rate", "csfb_tag");
        assert_eq!(prop(s3, props::MM_OK).status(), "eliminated");
    }

    #[test]
    fn matrix_reports_state_space_diffs() {
        let rows = diff_matrix();
        for row in &rows {
            assert!(row.base_states > 0 && row.rem_states > 0);
        }
        // The S2 full shim shrinks the space (no loss/dup interleavings).
        let s2 = cell(&rows, "S2", "nominal", "reliable_shim");
        assert!(s2.state_delta() < 0, "reliable transport prunes the space");
    }

    #[test]
    fn merge_renders_a_patch_parse_error_with_its_caret() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let patch =
            std::env::temp_dir().join(format!("remedydiff-bad-patch-{}.specl", std::process::id()));
        fs::write(&patch, "spec broken;\nchan ul from dev to mme cap;\n").expect("write the patch");
        let merged = merge_spec_files(&root.join("specs/attach_s2.specl"), &patch);
        let _ = fs::remove_file(&patch);
        let Err(err) = merged else {
            panic!("a patch that does not parse is rejected")
        };
        assert!(
            err.contains(&format!("--> {}:2:28", patch.display())),
            "{err}"
        );
        assert!(err.contains("2 | chan ul from dev to mme cap;"), "{err}");
        assert!(err.lines().any(|l| l.ends_with('^')), "{err}");
    }

    #[test]
    fn overlay_agreement_holds() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let rows = overlay_agreement(&root).expect("overlays load");
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.agree(), "{}: {:?}", r.remedy, r);
        }
        // The S2 overlay is exact by construction; the merged spec must
        // not violate (the shim fixes the attach defect).
        assert!(rows[0].exact && !rows[0].merged_violated);
        // The S6 overlay's merged spec satisfies MM_OK like the Rust
        // remedied model.
        assert!(!rows[1].merged_violated && !rows[1].reference_violated);
    }
}
