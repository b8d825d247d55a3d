//! The repository's benchmark: four workloads, eight end-to-end metrics,
//! and a per-layer ladder. See `README.md` beside this package.
//!
//! ```text
//! ascylib-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ascylib-benchmark --selfcheck [N] [--seconds <s>] [--seed <n>]
//! ```
//!
//! The last line of standard output is the result, one JSON object;
//! everything for the human reader goes to standard error.

mod embed;
mod estimate;
mod hot;
mod json;
mod ladder;
mod lane;
mod metrics;
mod ops;
mod run;
mod selfcheck;
mod span;
mod stack;
mod value;
mod wire;

use std::process::ExitCode;

use ops::{Spec, WORKLOADS};
use run::Scale;

/// Timed phase when `--seconds` is not given; what BENCHMARK.json asks for.
const DEFAULT_SECONDS: u64 = 15;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    selfcheck: Option<usize>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        selfcheck: None,
    };
    let number = |flag: &str, text: Option<String>| -> Result<u64, String> {
        text.as_deref()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| format!("{flag} takes a whole number, got {text:?}"))
    };
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(argv.next().ok_or("--workload takes a name")?),
            "--seed" => args.seed = number("--seed", argv.next())?,
            "--seconds" => args.seconds = number("--seconds", argv.next())?.max(1),
            "--trace" => args.trace = number("--trace", argv.next())? != 0,
            // The count is optional: `--selfcheck` alone means 5.
            "--selfcheck" => args.selfcheck = Some(5),
            n if args.selfcheck.is_some() && n.parse::<usize>().is_ok() => {
                args.selfcheck = n.parse().ok();
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn usage() -> String {
    let mut text = String::from(
        "usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       --selfcheck [N] [--seconds <s>] [--seed <n>]\nworkloads:\n",
    );
    for w in WORKLOADS {
        text.push_str(&format!("  {:<12} {}\n", w.name, w.why));
    }
    text
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Some(n) = args.selfcheck {
        return match selfcheck::run(n.max(1), args.seconds, args.seed) {
            Ok(outcome) => {
                print!("{}", outcome.report);
                let dir = run::out_dir();
                let written = std::fs::create_dir_all(&dir)
                    .and_then(|()| std::fs::write(dir.join("selfcheck-runs.jsonl"), &outcome.runs))
                    .and_then(|()| {
                        std::fs::write(dir.join("selfcheck-report.txt"), &outcome.report)
                    });
                if let Err(e) = written {
                    eprintln!("could not write to {}: {e}", dir.display());
                }
                if outcome.passed {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("selfcheck: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(spec) = args.workload.as_deref().and_then(Spec::by_name) else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    match run::run(&spec, args.seed, args.seconds, args.trace, &Scale::FULL) {
        Ok(report) => {
            for note in &report.notes {
                eprintln!("{note}");
            }
            for (name, value) in &report.metrics {
                eprintln!(
                    "  {name:<28} {value:>16.4} {}",
                    metrics::unit_of(name).unwrap_or("")
                );
            }
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            // An invalid run prints no result: it is not a slow run.
            eprintln!("{}: {e}", spec.name);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::metrics::{END_TO_END, PER_LAYER};
    use crate::ops::Driver;
    use std::sync::Mutex;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
            .unwrap()
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_program_prints() {
        let doc = benchmark_json();
        let str_of = |j: &Json, k: &str| {
            j.get(k)
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string()
        };
        let declared: Vec<(String, String)> = doc
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .map(|w| (str_of(w, "name"), str_of(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(declared, ours);
        let declared: Vec<(String, String, String, f64)> = doc
            .get("end_to_end")
            .unwrap()
            .items()
            .iter()
            .map(|m| {
                (
                    str_of(m, "name"),
                    str_of(m, "unit"),
                    str_of(m, "better"),
                    m.get("bound").and_then(Json::as_f64).unwrap(),
                )
            })
            .collect();
        let ours: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into(), m.bound))
            .collect();
        assert_eq!(declared, ours);
        let declared: Vec<(String, String, String)> = doc
            .get("per_layer")
            .unwrap()
            .items()
            .iter()
            .map(|m| (str_of(m, "name"), str_of(m, "unit"), str_of(m, "better")))
            .collect();
        let ours: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.0.into(), m.1.into(), m.2.into()))
            .collect();
        assert_eq!(declared, ours);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS as f64)
        );
        assert_eq!(
            doc.get("paths").unwrap().items(),
            [Json::Str("benchmark".into())]
        );
    }

    #[test]
    fn arguments_parse_as_the_pipeline_passes_them() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload wire_open --seed 42 --seconds 15 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("wire_open"), 42, 15, true)
        );
        assert!(!parse("--workload x --trace 0").unwrap().trace);
        assert_eq!(parse("--selfcheck").unwrap().selfcheck, Some(5));
        assert_eq!(
            parse("--selfcheck 3 --seconds 2").unwrap().selfcheck,
            Some(3)
        );
        assert!(parse("--seed many").is_err());
        assert!(parse("--bogus").is_err());
        assert!(
            parse("7").is_err(),
            "a bare number belongs to --selfcheck only"
        );
    }

    /// One smoke run at a time: they time things, and the open loop is
    /// invalid when its generator is starved.
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

    /// A one-second run of a shrunken `name`, untraced and traced: asserts
    /// only that the names and units printed are the ones BENCHMARK.json
    /// declares (values from an unoptimised build mean nothing).
    fn smoke(name: &str) {
        let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
        let mut spec = Spec::by_name(name).unwrap().shrunk(20_000, 20_000);
        if let Driver::Open { .. } = spec.driver {
            // A rate an unoptimised server keeps up with.
            spec.driver = Driver::Open { rate: 1_000.0 };
        }
        let scale = Scale {
            setups: 2,
            rung_ops: 8192,
            codec_ops: 4096,
            loopback_ops: 500,
            micro_batches: 2,
        };
        let doc = benchmark_json();
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let report =
                run::run(&spec, 9, 1, trace, &scale).unwrap_or_else(|e| panic!("{name}: {e}"));
            let printed = Json::parse(&report.to_json()).unwrap();
            assert_eq!(printed.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(
                printed
                    .members()
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect::<Vec<_>>(),
                ["correct", "attempted", "failed", "metrics"]
            );
            let printed: Vec<(String, String)> = printed
                .get("metrics")
                .unwrap()
                .members()
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        v.get("unit").and_then(Json::as_str).unwrap().to_string(),
                    )
                })
                .collect();
            let declared: Vec<(String, String)> = doc
                .get(section)
                .unwrap()
                .items()
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect();
            assert_eq!(printed, declared, "{name} --trace {}", u8::from(trace));
        }
    }

    #[test]
    fn smoke_embed_read() {
        smoke("embed_read");
    }

    #[test]
    fn smoke_embed_write() {
        smoke("embed_write");
    }

    #[test]
    fn smoke_wire_pipe() {
        smoke("wire_pipe");
    }

    #[test]
    fn smoke_wire_open() {
        smoke("wire_open");
    }
}
