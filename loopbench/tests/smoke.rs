//! Every workload at tiny sizes, untraced and traced: the result line
//! names exactly the metrics `BENCHMARK.json` lists, each with its unit,
//! and the run's output checks pass.

use loopbench::{result_json, run, Options, Scale, Workload, END_TO_END, PER_LAYER};
use netsmith::topo::json::Json;

fn listed(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    json.require(key)
        .and_then(Json::as_arr)
        .expect("a metric list")
        .iter()
        .map(|m| {
            let field = |f| m.require(f).and_then(Json::as_str).expect("a string field");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

fn table(entries: &[(&str, &str)]) -> Vec<(String, String)> {
    entries
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn metric_tables_match_benchmark_json() {
    assert_eq!(listed("end_to_end"), table(END_TO_END));
    assert_eq!(listed("per_layer"), table(PER_LAYER));
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let options = Options {
                workload,
                seed: 7,
                seconds: 0.01,
                trace,
                scale: Scale::Tiny,
            };
            let outcome = run(&options);
            let what = format!("{} trace={trace}", workload.name());
            assert!(outcome.correct, "{what}: {:#?}", outcome.lines);
            assert!(outcome.attempted >= 1, "{what}");
            let line = result_json(&outcome).to_string();
            let result = Json::parse(&line).expect("the result line parses");
            let Json::Obj(metrics) = result.require("metrics").expect("metrics") else {
                panic!("{what}: metrics is not an object");
            };
            let printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    let unit = m.require("unit").and_then(Json::as_str).expect("a unit");
                    let value = m.require("value").and_then(Json::as_f64).expect("a value");
                    assert!(value.is_finite(), "{what}: {name} = {value}");
                    (name.clone(), unit.to_string())
                })
                .collect();
            let mut expected = table(if trace { PER_LAYER } else { END_TO_END });
            expected.sort();
            assert_eq!(printed, expected, "{what}");
        }
    }
}
