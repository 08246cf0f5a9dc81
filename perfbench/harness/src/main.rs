//! `apex-perfbench` — the compiled half of the apex benchmark
//! (`perfbench/run.py` is the command that drives it).
//!
//! ```text
//! apex-perfbench gen   --workload W --seed S --out SUITE.json
//! apex-perfbench trace --suite SUITE.json --store DIR --threads N
//!                      [--engine tree|bytecode] --spans SPANS.jsonl
//! ```
//!
//! `gen` writes the seeded suite document of one workload. `trace` runs
//! that suite through each layer's public functions with spans around
//! every call, writes the spans when it ends, and prints the per-layer
//! metrics as one JSON object on its last line.

mod gen;
mod spans;
mod traced;

use std::path::Path;
use std::process::ExitCode;

use apex_scenario::ProgramEngine;

/// `--key value` pairs after the subcommand.
fn flag<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn required<'a>(args: &'a [String], key: &str) -> Result<&'a str, String> {
    flag(args, key).ok_or_else(|| format!("missing {key}"))
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn cmd_gen(args: &[String]) -> Result<(), String> {
    let workload = required(args, "--workload")?;
    let seed: u64 = required(args, "--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let out = required(args, "--out")?;
    let suite = gen::generate(workload, seed)?;
    suite
        .save(Path::new(out))
        .map_err(|e| format!("{out}: {e}"))
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    let threads: usize = required(args, "--threads")?
        .parse()
        .map_err(|e| format!("--threads: {e}"))?;
    let engine = match flag(args, "--engine") {
        None => None,
        Some(e) => Some(ProgramEngine::parse(e).ok_or_else(|| format!("--engine {e}?"))?),
    };
    let spans_path = required(args, "--spans")?;
    let opts = traced::TraceOpts {
        suite: Path::new(required(args, "--suite")?),
        store: Path::new(required(args, "--store")?),
        threads,
        engine,
    };
    let t = traced::trace(&opts)?;
    t.rec
        .write_jsonl(Path::new(spans_path))
        .map_err(|e| format!("{spans_path}: {e}"))?;
    let failed = t.run.outcomes.len() - t.run.ok_count() + t.run.output_mismatches.len();
    let metrics: Vec<String> = traced::metrics(&t)
        .into_iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"cells\": {}, \"failed\": {failed}, \"hits\": {}, \"misses\": {}, \"rejected\": {}, \
         \"metrics\": {{{}}}}}",
        t.cells.len(),
        t.hits,
        t.misses,
        t.rejected,
        metrics.join(", ")
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("gen") => cmd_gen(&argv[1..]),
        Some("trace") => cmd_trace(&argv[1..]),
        _ => Err("usage: apex-perfbench <gen|trace> … (see the crate docs)".into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("apex-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
