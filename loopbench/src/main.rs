//! `loopbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report (lines starting with `#`), then one
//! JSON result line: `{"correct", "attempted", "failed", "metrics"}`,
//! where each metric is `{"value", "unit"}`.  The run's spans, context and
//! metrics are also written to `.loopbench-out/`.

use loopbench::{result_json, run, Options, Outcome, Scale, Workload};
use netsmith::topo::json::Json;
use std::path::PathBuf;

const USAGE: &str = "usage: loopbench --workload <design-20|design-48|sweep-48|serve-20> \
--seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale: Scale::Full,
    })
}

/// Write the run's context, digest, metrics and spans to
/// `.loopbench-out/<workload>-seed<n>-trace<t>.json`.
fn write_output(options: &Options, outcome: &Outcome) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(".loopbench-out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        options.workload.name(),
        options.seed,
        u8::from(options.trace)
    ));
    let mut members = vec![
        ("workload".into(), Json::Str(options.workload.name().into())),
        ("seed".into(), Json::Str(options.seed.to_string())),
        ("context".into(), outcome.context.clone()),
        (
            "digest".into(),
            Json::Str(format!("{:016x}", outcome.digest)),
        ),
        ("result".into(), result_json(outcome)),
    ];
    if let Some(spans) = &outcome.spans {
        members.push(("spans".into(), spans.clone()));
    }
    std::fs::write(&path, format!("{}\n", Json::Obj(members)))?;
    Ok(path)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = parse(&args).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    let outcome = run(&options);
    for line in &outcome.lines {
        println!("# {line}");
    }
    println!("# context {}", outcome.context);
    println!("# digest {:016x}", outcome.digest);
    match write_output(&options, &outcome) {
        Ok(path) => println!("# wrote {}", path.display()),
        Err(e) => eprintln!("# could not write the run's output file: {e}"),
    }
    println!("{}", result_json(&outcome));
}
