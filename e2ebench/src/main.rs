//! One-command benchmark of the ZipServ workspace.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones. The last line of standard output is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`; the exit code is
//! non-zero when any correctness check failed. `--tiny` shrinks every
//! workload so its checks run in seconds (self-tests only). See
//! `README.md` for the workloads, the metrics and what each one measures.

mod cpus;
mod real;
mod report;
mod sim;
mod wrap;

use real::{RealRun, RealSpec};
use report::Report;
use sim::{SimRun, SimSpec};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The workloads, by name.
const WORKLOADS: [&str; 3] = ["tinyllm_generate", "sim_replica_long", "sim_fleet_tenants"];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut tiny) =
        (None, None, None, None, false);
    while let Some(flag) = args.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad(&format!("one of {WORKLOADS:?}"))),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        tiny,
    })
}

/// One repeatable piece of a workload's measured work.
pub trait Unit {
    /// Does the next piece, recording its checks.
    fn step(&mut self, report: &mut Report);
    /// Whether enough pieces ran for the unit's statistics.
    fn enough(&self) -> bool;
}

/// Runs `main` until it has enough samples and its next step would end
/// past `budget`, giving `side` its `share` of the elapsed time between
/// `main`'s steps, then tops `side` up to enough samples. Interleaving
/// spreads both over the run, so a stall on the machine cannot land on one
/// of them alone.
fn interleave(
    budget: Duration,
    share: f64,
    main: &mut dyn Unit,
    side: &mut dyn Unit,
    report: &mut Report,
) {
    let start = Instant::now();
    let mut side_time = Duration::ZERO;
    // The longest step so far, with the side's steps that follow it.
    let mut longest = Duration::ZERO;
    while !main.enough() || start.elapsed() + longest < budget {
        let t = Instant::now();
        main.step(report);
        while side_time.as_secs_f64() < share * start.elapsed().as_secs_f64() {
            let t = Instant::now();
            side.step(report);
            side_time += t.elapsed();
        }
        longest = longest.max(t.elapsed());
    }
    while !side.enough() {
        side.step(report);
    }
}

/// Runs one workload and returns its report.
fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let (seed, tiny) = (args.seed, args.tiny);
    let budget = |share: f64| Duration::from_secs_f64(args.seconds * share);
    report.note(format!(
        "workload {} seed {seed} seconds {} trace {}{}",
        args.workload,
        args.seconds,
        u8::from(args.trace),
        if tiny { " (tiny)" } else { "" }
    ));
    // The simulator workloads run a small model alongside, and
    // `tinyllm_generate` a short simulation, so that every workload
    // reports every metric.
    let real_main = args.workload == "tinyllm_generate";
    let (real_spec, sim_spec) = match args.workload.as_str() {
        "tinyllm_generate" => (RealSpec::full(tiny), SimSpec::companion(tiny)),
        "sim_replica_long" => (RealSpec::companion(tiny), SimSpec::replica_long(tiny)),
        _ => (RealSpec::companion(tiny), SimSpec::fleet_tenants(tiny)),
    };
    if args.trace {
        let (real_share, sim_share) = if real_main { (0.8, 0.1) } else { (0.1, 0.8) };
        let min_sims = if tiny { 1 } else { 2 };
        real::layers(&real_spec, seed, budget(real_share), &mut report);
        sim::layers(&sim_spec, seed, budget(sim_share), min_sims, &mut report);
    } else {
        // The companion trace of `tinyllm_generate` takes ~20 ms a run.
        let min_sims = match (tiny, real_main) {
            (true, _) => 1,
            (false, true) => 10,
            (false, false) => 3,
        };
        let mut real = RealRun::new(real_spec, seed);
        let mut sim = SimRun::new(sim_spec, seed, min_sims);
        if real_main {
            interleave(budget(0.98), 0.05, &mut real, &mut sim, &mut report);
        } else {
            interleave(budget(0.98), 0.2, &mut sim, &mut real, &mut report);
        }
        let real = real.finish(&mut report);
        let (sim_setup_s, sim_us) = sim.finish(&mut report);
        report.put(
            "setup_s",
            if real_main { real.setup_s } else { sim_setup_s },
            "s",
        );
        report.put("peak_rss_mb", report::peak_rss_mb(), "MB");
        report.put("ttft_ms_p50", real.ttft_ms_p50, "ms");
        report.put("ttft_ms_p90", real.ttft_ms_p90, "ms");
        report.put("tpot_ms_p50", real.tpot_ms_p50, "ms");
        report.put("tok_s", real.tok_s, "tok/s");
        report.put("dense_tok_s", real.dense_tok_s, "tok/s");
        report.put("ztbe_size_ratio", real.ztbe_size_ratio, "ratio");
        report.put("sim_us_per_req", sim_us, "us");
    }

    report
}

fn main() -> ExitCode {
    report::steady_allocator();
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--tiny]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let report = run(&args);
    println!("{}", report.render());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload sim_replica_long --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace, a.tiny),
            ("sim_replica_long", 7, 10.0, true, false)
        );
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload tinyllm_generate --seed x --seconds 1").is_err());
        assert!(args("--workload tinyllm_generate --seed 1 --seconds 0").is_err());
        assert!(args("--seed 1 --seconds 1").is_err());
        assert!(args("--workload tinyllm_generate --seed 1 --seconds 1 --bogus 2").is_err());
        assert!(args("--workload tinyllm_generate --seed 1 --seconds 1 --trace 2").is_err());
    }
}
