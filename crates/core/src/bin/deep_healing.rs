//! `deep-healing` — prints the paper's evaluation, each table or figure
//! followed by the paper's claims about it, checked against this
//! reproduction.
//!
//! ```text
//! deep-healing table1            # Table I comparison
//! deep-healing fig4 | fig5 | fig6 | fig7 | fig9 | fig10 | fig11
//! deep-healing fig12 [years]    # lifetime policy comparison
//! deep-healing all [years]      # everything, paper order
//! ```
//!
//! Exits 2 on a usage error and 0 on `--help`; both print the usage text
//! to stderr.

use std::env;
use std::process::ExitCode;

use deep_healing::experiments::{Section, DEFAULT_YEARS, SECTIONS};

fn usage() -> String {
    let mut s = String::from("usage: deep-healing <command> [years]\ncommands:\n");
    let mut line = |command: String, title: &str| s.push_str(&format!("  {command:<16}{title}\n"));
    for section in &SECTIONS {
        if section.takes_years {
            line(format!("{} [years]", section.name), section.title);
        } else {
            line(section.name.to_string(), section.title);
        }
    }
    line("all [years]".to_string(), "every experiment in paper order");
    s.push_str(&format!(
        "years: simulated lifetime for fig12, a positive number (default {DEFAULT_YEARS})\n"
    ));
    s
}

/// The sections a command line asks for and the lifetime to run them at;
/// `Err("")` asks for the usage text.
fn parse_args(args: &[String]) -> Result<(Vec<&'static Section>, f64), String> {
    let Some((command, rest)) = args.split_first() else {
        return Err("no command given".to_string());
    };
    let sections: Vec<&'static Section> = match command.as_str() {
        "-h" | "--help" | "help" => return Err(String::new()),
        "all" => SECTIONS.iter().collect(),
        name => vec![SECTIONS
            .iter()
            .find(|s| s.name == name)
            .ok_or_else(|| format!("unknown command {name:?}"))?],
    };
    let takes_years = sections.iter().any(|s| s.takes_years);
    let years = match rest {
        [] => DEFAULT_YEARS,
        [years] if takes_years => years
            .parse::<f64>()
            .ok()
            .filter(|y| *y > 0.0 && y.is_finite())
            .ok_or_else(|| format!("years must be a positive number, got {years:?}"))?,
        _ => {
            let stray = &rest[usize::from(takes_years)];
            return Err(format!("unexpected argument {stray:?} after {command}"));
        }
    };
    Ok((sections, years))
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let (sections, years) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(why) => {
            if !why.is_empty() {
                eprintln!("error: {why}\n");
            }
            eprint!("{}", usage());
            return ExitCode::from(u8::from(!why.is_empty()) * 2);
        }
    };
    for (i, section) in sections.iter().enumerate() {
        let result = match (section.run)(years) {
            Ok(result) => result,
            Err(e) => {
                eprintln!("error: {}: {e}", section.name);
                return ExitCode::FAILURE;
            }
        };
        if i > 0 {
            println!();
        }
        print!("{}", result.render());
        println!();
        for claim in result.claims() {
            println!("{claim}");
        }
    }
    ExitCode::SUCCESS
}
