//! The repo benchmark: one workload per invocation, measured from outside.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! benchmark compare <set-A.jsonl> <set-B.jsonl> [--spec <BENCHMARK.json>]
//! ```
//!
//! The last line of standard output is the result object; everything meant
//! for people goes to standard error. See `README.md` for what each metric
//! means and how the layer metrics are expected to move the end-to-end ones.

mod adapter;
mod probes;
mod stats;
mod workloads;

use stats::{highest_supported_percentile, median, result_line, Metric};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use workloads::{Measured, ScratchDir, WORKLOADS};

/// Every end-to-end metric with its unit, in print order.
const END_TO_END: &[(&str, &str)] = &[
    ("throughput_msgs_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("cpu_us_per_msg", "us"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// A run that has not finished by now is stuck; the contract allows 180 s.
const WATCHDOG: Duration = Duration::from_secs(170);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn usage() -> String {
    format!(
        "usage: benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]\n       benchmark compare <A.jsonl> <B.jsonl> [--spec <BENCHMARK.json>]",
        WORKLOADS.join("|")
    )
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 42,
        seconds: 30.0,
        trace: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: '{value}' is not {what}");
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                out.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(out.seconds > 0.0 && out.seconds <= 60.0) {
                    return Err(bad("within (0, 60]"));
                }
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => out.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!("unknown workload '{}'", out.workload));
    }
    Ok(out)
}

fn describe(tag: &str, m: &Measured) {
    eprintln!(
        "[{tag}] attempted={} failed={} correct={} latency_samples={} (supports p{}) latency_p99_ms={:.3} offered_rate_frac={:.4}",
        m.attempted,
        m.failed,
        m.correct,
        m.latency_samples,
        highest_supported_percentile(m.latency_samples),
        m.latency_p99_ms,
        m.offered_frac,
    );
    if m.offered_frac < 0.97 {
        eprintln!(
            "[{tag}] WARNING: sustained only {:.1} % of the offered rate",
            m.offered_frac * 100.0
        );
    }
}

fn end_to_end(m: &Measured) -> Vec<Metric> {
    let value = |name: &str| match name {
        "throughput_msgs_s" => m.throughput_msgs_s,
        "latency_p50_ms" => m.latency_p50_ms,
        "latency_p95_ms" => m.latency_p95_ms,
        "cpu_us_per_msg" => m.cpu_us_per_msg,
        "peak_rss_mb" => workloads::proc_status("VmHWM") / 1024.0,
        "setup_s" => median(&mut m.setup_s.clone()),
        other => unreachable!("unlisted end-to-end metric {other}"),
    };
    END_TO_END
        .iter()
        .map(|(name, unit)| Metric::new(name, unit, value(name)))
        .collect()
}

fn run(args: &Args) -> Result<(bool, u64, u64, Vec<Metric>), String> {
    let w = workloads::workload(&args.workload).expect("workload name was validated");
    let scratch = ScratchDir::create(args.out.join(format!("run-{}", std::process::id())))?;
    // A stuck run must still exit, and must not leave its logs behind.
    let scratch_path = scratch.path().to_path_buf();
    std::thread::spawn(move || {
        std::thread::sleep(WATCHDOG);
        eprintln!("benchmark: no result after {WATCHDOG:?}, giving up");
        let _ = std::fs::remove_dir_all(&scratch_path);
        std::process::exit(3);
    });
    if !args.trace {
        let m = workloads::measure(&w, args.seed, args.seconds, false, scratch.path())?;
        describe("run", &m);
        return Ok((m.correct, m.attempted, m.failed, end_to_end(&m)));
    }
    // Traced run: the same configuration twice at reduced length — closures
    // only stamping, then closures timing their calls — and the isolated
    // probes. The difference between the two passes is the tracing overhead.
    let share = args.seconds * 0.3;
    let untraced = workloads::measure(&w, args.seed, share, false, &scratch.path().join("a"))?;
    describe("untraced", &untraced);
    let traced = workloads::measure(&w, args.seed, share, true, &scratch.path().join("b"))?;
    describe("traced", &traced);
    let metrics = probes::layer_metrics(&w, &untraced, &traced, args.seed, scratch.path())?;
    Ok((
        untraced.correct && traced.correct,
        untraced.attempted + traced.attempted,
        untraced.failed + traced.failed,
        metrics,
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let spec = match args.iter().position(|a| a == "--spec") {
            Some(i) => args.get(i + 1).cloned(),
            None => Some("BENCHMARK.json".to_string()),
        };
        let (Some(a), Some(b), Some(spec)) = (args.get(1), args.get(2), spec) else {
            eprintln!("{}", usage());
            return ExitCode::from(2);
        };
        return match stats::compare(&spec, a, b) {
            Ok((report, flagged)) => {
                print!("{report}");
                ExitCode::from(u8::from(flagged))
            }
            Err(e) => {
                eprintln!("benchmark compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let parsed = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("benchmark: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&parsed) {
        Ok((correct, attempted, failed, metrics)) => {
            for m in &metrics {
                eprintln!("{:<40} {:>16.4} {}", m.name, m.value, m.unit);
            }
            println!("{}", result_line(correct, attempted, failed, &metrics));
            if correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("benchmark: correctness check failed");
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stats::Json;

    fn flags(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn flags_are_checked_where_they_enter() {
        let ok = parse(&flags(
            "--workload federation-sat --seed 7 --seconds 5 --trace 1",
        ))
        .unwrap();
        assert_eq!((ok.seed, ok.seconds, ok.trace), (7, 5.0, true));
        assert!(parse(&flags("--workload nope")).is_err());
        assert!(parse(&flags("--workload federation-sat --seconds 0")).is_err());
        assert!(parse(&flags("--workload federation-sat --trace 2")).is_err());
        assert!(parse(&flags("--workload federation-sat --seed")).is_err());
    }

    /// `BENCHMARK.json` and the code agree on every name and unit, and the
    /// file stays inside the contract's limits.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let keys: Vec<&str> = spec.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let names = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .expect(key)
                .items()
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(Json::str).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let listed = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), listed(END_TO_END));
        assert_eq!(names("per_layer"), listed(probes::LAYER_METRICS));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
        assert!(
            workloads.len() <= 8 && END_TO_END.len() <= 16 && probes::LAYER_METRICS.len() <= 128
        );
        let legal = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        for (name, _) in names("end_to_end").iter().chain(&names("per_layer")) {
            assert!(legal(name), "{name}");
        }
        for m in spec.get("end_to_end").unwrap().items() {
            let bound = m.get("bound").and_then(Json::num).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }
}
