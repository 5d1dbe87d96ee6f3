//! `cnetverifier` — the diagnosis tool as a command-line program.
//!
//! ```text
//! cnetverifier screen   [--remedied] [--json]       # phase 1
//! cnetverifier validate [--seed N]   [--json]       # phase 2 (monitor verdicts)
//! cnetverifier diagnose [--seed N]   [--json]       # both phases + classification
//! cnetverifier sample   [--walks N] [--seed N]      # §3.2.1 random sampling
//! cnetverifier report                               # Tables 1/2/3/4 + insights
//! ```

use cnetverifier::scenario::UsageModel;
use cnetverifier::{props, validate_all};
use mck::RandomWalk;

const USAGE: &str = "usage: cnetverifier <screen [--remedied] [--json] | \
                     validate [--seed N] [--json] | diagnose [--seed N] [--json] | \
                     sample [--walks N] [--seed N] | report>";

/// Reject the command line: name what is wrong, print the usage line, exit 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args
        .first()
        .map(String::as_str)
        .unwrap_or_else(|| usage_error("missing command"));
    // The switches and numeric options each command accepts.
    let (switches, numeric): (&[&str], &[&str]) = match cmd {
        "screen" => (&["--remedied", "--json"], &[]),
        "validate" | "diagnose" => (&["--json"], &["--seed"]),
        "sample" => (&[], &["--walks", "--seed"]),
        "report" => (&[], &[]),
        other => usage_error(&format!("unknown command: {other}")),
    };
    let mut values: Vec<(&str, u64)> = Vec::new();
    let mut rest = args[1..].iter().map(String::as_str);
    while let Some(arg) = rest.next() {
        if numeric.contains(&arg) {
            let v = rest
                .next()
                .unwrap_or_else(|| usage_error(&format!("{arg} needs a value")));
            let n = v
                .parse()
                .unwrap_or_else(|_| usage_error(&format!("{arg} takes a number, not `{v}`")));
            values.push((arg, n));
        } else if !switches.contains(&arg) {
            usage_error(&format!("unknown argument: {arg}"));
        }
    }
    let flag = |name: &str| args.iter().any(|a| a == name);
    let value = |name: &str| values.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);

    match cmd {
        "screen" => screen(flag("--remedied"), flag("--json")),
        "validate" => validate(value("--seed").unwrap_or(2014), flag("--json")),
        "diagnose" => diagnose(value("--seed").unwrap_or(2014), flag("--json")),
        "sample" => sample(
            value("--walks").unwrap_or(2_000) as usize,
            value("--seed").unwrap_or(0xCE11),
        ),
        _ => report(),
    }
}

fn screen(remedied: bool, json: bool) {
    let report = if remedied {
        cnetverifier::run_screening_remedied()
    } else {
        cnetverifier::run_screening_deterministic()
    };
    if json {
        let findings: Vec<_> = report.findings().collect();
        println!(
            "{}",
            serde_json::to_string_pretty(&findings).expect("findings serialize")
        );
        return;
    }
    println!(
        "screening {} model families ({} states total):\n",
        report.runs.len(),
        report.total_states()
    );
    for run in &report.runs {
        println!("  {:<36} {}", run.model_name, run.stats);
        for f in &run.findings {
            println!("    -> {}: {}", f.instance, f.instance.problem());
            println!(
                "       violates {} ({} steps{})",
                f.property,
                f.steps,
                if f.lasso { ", lasso" } else { "" }
            );
            for (i, step) in f.witness.iter().enumerate() {
                println!("         {:>2}. {step}", i + 1);
            }
            let insight = cnetverifier::insight_for(f.instance);
            println!("       insight {}: {}", insight.number, insight.text);
        }
    }
    let n = report.findings().count();
    println!(
        "\n{n} finding(s).{}",
        if remedied && n == 0 {
            " The Section-8 remedies hold."
        } else {
            ""
        }
    );
    if !remedied && n == 0 {
        std::process::exit(1); // screening is expected to find S1-S4
    }
}

fn validate(seed: u64, json: bool) {
    let outcomes = validate_all(seed);
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&outcomes).expect("outcomes serialize")
        );
        return;
    }
    for v in &outcomes {
        println!(
            "{} on {:>5}: {:<12} {}",
            v.instance,
            v.operator,
            v.verdict.to_string(),
            v.evidence
        );
        for line in v.span_lines() {
            println!("      {line}");
        }
    }
    let observed = outcomes.iter().filter(|v| v.observed).count();
    println!(
        "\n{observed}/{} instance-carrier pairs confirmed.",
        outcomes.len()
    );
}

fn diagnose(seed: u64, json: bool) {
    let diagnoses = cnetverifier::diagnose(seed);
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&diagnoses).expect("diagnoses serialize")
        );
        return;
    }
    for d in &diagnoses {
        let witness = d
            .witness_verdict
            .map(|v| v.to_string())
            .unwrap_or_else(|| "-".into());
        println!(
            "{}: {} (screening prediction: {}, compiled witness: {witness})",
            d.instance,
            d.class,
            if d.predicted_by_screening {
                "yes"
            } else {
                "no"
            }
        );
        for o in &d.outcomes {
            println!(
                "  {:>5}: {:<12} {}",
                o.operator,
                o.verdict.to_string(),
                o.evidence
            );
        }
    }
}

fn sample(walks: usize, seed: u64) {
    println!("sampling {walks} usage scenarios (seed {seed})...");
    let report = RandomWalk::seeded(seed)
        .walks(walks)
        .max_steps(12)
        .run(&UsageModel::paper());
    for prop in props::ALL {
        println!(
            "  {:<18} violated in {} walks",
            prop,
            report.violations_of(prop)
        );
    }
    if let Some(witness) = report.witness(props::PACKET_SERVICE_OK) {
        use mck::Model;
        let model = UsageModel::paper();
        println!("\none witness for {}:", props::PACKET_SERVICE_OK);
        for (i, a) in witness.actions().enumerate() {
            println!("  {:>2}. {}", i + 1, model.format_action(a));
        }
    }
}

fn report() {
    println!("{}", cnetverifier::report::table1());
    println!("{}", cnetverifier::report::table2());
    println!("{}", cnetverifier::report::table3());
    println!("{}", cnetverifier::report::table4());
    for ins in cnetverifier::INSIGHTS {
        println!("Insight {} ({}): {}", ins.number, ins.instance, ins.text);
    }
    println!();
    for lesson in cnetverifier::LESSONS {
        println!("[{}] {}", lesson.dimension, lesson.text);
    }
}
