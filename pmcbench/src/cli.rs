//! Strict command-line parsing: an unknown flag, a missing value or an
//! unparsable value is a usage error (exit status 2), never a silent
//! default.

use std::path::PathBuf;

use crate::workloads::{DEFAULT_SEED, HELD_OUT_SEED, NAMES};

pub const USAGE: &str = "\
usage:
  pmcbench run [--seed N] [--smoke] [--only WORKLOAD] [--out FILE]
      every workload in its own pinned child process, then the probes;
      prints every metric by name with its unit, writes the JSON report to FILE
  pmcbench probes
      only the per-call micro-probes
  pmcbench compare A.json B.json
      before/after table of two reports; exit 1 on a regression
  pmcbench --workload WORKLOAD --seed N --seconds S --trace 0|1
      one workload in this process, one JSON result line (the PR driver's protocol):
      --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
seeds are decimal, 0x-hex, `default` (0xC0FFEE) or `held-out` (0x5EED1E55, the seed a claim
made at the default must also hold on); workloads: enum_catalogue litmus_sweep fig8_splash
stream_dma_256t kvserve_open scale_1024t";

#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    Run {
        seed: u64,
        smoke: bool,
        only: Option<String>,
        out: Option<PathBuf>,
    },
    Probes,
    Compare {
        a: PathBuf,
        b: PathBuf,
    },
    Driver {
        workload: String,
        seed: u64,
        seconds: f64,
        trace: bool,
    },
    /// What `run` spawns: one workload (or `probes`) measured in this
    /// process, its JSON on the last line of standard output.
    Child {
        what: String,
        seed: u64,
        smoke: bool,
    },
}

/// Flag/value pairs and positionals, each consumed at most once.
struct Args {
    rest: Vec<String>,
}

impl Args {
    /// Remove `--name` if present.
    fn flag(&mut self, name: &str) -> bool {
        match self.rest.iter().position(|a| a == name) {
            Some(i) => {
                self.rest.remove(i);
                true
            }
            None => false,
        }
    }

    /// Remove `--name VALUE` if present.
    fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        let Some(i) = self.rest.iter().position(|a| a == name) else { return Ok(None) };
        if i + 1 >= self.rest.len() || self.rest[i + 1].starts_with("--") {
            return Err(format!("{name} needs a value"));
        }
        let v = self.rest.remove(i + 1);
        self.rest.remove(i);
        if self.rest.iter().any(|a| a == name) {
            return Err(format!("{name} given twice"));
        }
        Ok(Some(v))
    }

    fn required(&mut self, name: &str) -> Result<String, String> {
        self.value(name)?.ok_or_else(|| format!("{name} is required"))
    }

    /// Whatever is left must be exactly `n` positionals.
    fn positionals(self, n: usize) -> Result<Vec<String>, String> {
        if let Some(flag) = self.rest.iter().find(|a| a.starts_with('-')) {
            return Err(format!("unknown flag {flag}"));
        }
        if self.rest.len() != n {
            return Err(match self.rest.get(n) {
                Some(extra) => format!("unexpected argument {extra}"),
                None => format!("expected {n} file argument(s), got {}", self.rest.len()),
            });
        }
        Ok(self.rest)
    }
}

fn seed(text: &str) -> Result<u64, String> {
    match text {
        "default" => return Ok(DEFAULT_SEED),
        "held-out" => return Ok(HELD_OUT_SEED),
        _ => {}
    }
    let parsed = match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    };
    parsed.map_err(|_| format!("--seed {text}: not a 64-bit unsigned integer"))
}

fn workload(name: String) -> Result<String, String> {
    if NAMES.contains(&&*name) {
        Ok(name)
    } else {
        Err(format!("unknown workload `{name}`"))
    }
}

pub fn parse(args: &[String]) -> Result<Command, String> {
    let Some(first) = args.first() else { return Err("no command".into()) };
    let mut rest = Args { rest: args[1..].to_vec() };
    match first.as_str() {
        "run" => {
            let seed = rest.value("--seed")?.map_or(Ok(DEFAULT_SEED), |s| seed(&s))?;
            let smoke = rest.flag("--smoke");
            let only = rest.value("--only")?.map(workload).transpose()?;
            let out = rest.value("--out")?.map(PathBuf::from);
            rest.positionals(0)?;
            Ok(Command::Run { seed, smoke, only, out })
        }
        "probes" => {
            rest.positionals(0)?;
            Ok(Command::Probes)
        }
        "compare" => {
            let mut files = rest.positionals(2)?.into_iter().map(PathBuf::from);
            Ok(Command::Compare {
                a: files.next().expect("two positionals"),
                b: files.next().expect("two positionals"),
            })
        }
        "child" => {
            let what = rest.required("--workload")?;
            let what = if what == "probes" { what } else { workload(what)? };
            let seed = seed(&rest.required("--seed")?)?;
            let smoke = rest.flag("--smoke");
            rest.positionals(0)?;
            Ok(Command::Child { what, seed, smoke })
        }
        flag if flag.starts_with("--") => {
            let mut all = Args { rest: args.to_vec() };
            let workload = workload(all.required("--workload")?)?;
            let seed = seed(&all.required("--seed")?)?;
            let seconds = all.required("--seconds")?;
            let seconds: f64 = seconds
                .parse()
                .ok()
                .filter(|s: &f64| s.is_finite() && *s > 0.0)
                .ok_or_else(|| format!("--seconds {seconds}: not a positive number"))?;
            let trace = match all.required("--trace")?.as_str() {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace {other}: must be 0 or 1")),
            };
            all.positionals(0)?;
            Ok(Command::Driver { workload, seed, seconds, trace })
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_driver_protocol_parses_in_any_order() {
        let want = Command::Driver {
            workload: "kvserve_open".into(),
            seed: 7,
            seconds: 10.0,
            trace: true,
        };
        assert_eq!(
            parse(&args("--workload kvserve_open --seed 7 --seconds 10 --trace 1")),
            Ok(want.clone())
        );
        assert_eq!(
            parse(&args("--trace 1 --seconds 10 --seed 0x7 --workload kvserve_open")),
            Ok(want)
        );
    }

    #[test]
    fn run_defaults_to_the_pinned_seed() {
        assert_eq!(
            parse(&args("run")),
            Ok(Command::Run { seed: DEFAULT_SEED, smoke: false, only: None, out: None })
        );
        assert_eq!(
            parse(&args("run --smoke --only fig8_splash --seed 0xBEEF --out r.json")),
            Ok(Command::Run {
                seed: 0xBEEF,
                smoke: true,
                only: Some("fig8_splash".into()),
                out: Some("r.json".into())
            })
        );
        assert_eq!(
            parse(&args("compare a.json b.json")),
            Ok(Command::Compare { a: "a.json".into(), b: "b.json".into() })
        );
        assert_eq!(parse(&args("probes")), Ok(Command::Probes));
        assert_eq!(
            parse(&args("run --seed held-out")),
            Ok(Command::Run { seed: HELD_OUT_SEED, smoke: false, only: None, out: None })
        );
    }

    #[test]
    fn anything_unknown_or_unparsable_is_a_usage_error() {
        for bad in [
            "",
            "frobnicate",
            "run --sed 5",
            "run --seed",
            "run --seed banana",
            "run --seed -1",
            "run --seed 1 --seed 2",
            "run --only nosuch",
            "run extra",
            "run --out",
            "probes --fast",
            "compare a.json",
            "compare a.json b.json c.json",
            "compare --strict a.json b.json",
            "--workload fig8_splash --seed 1 --seconds 10",
            "--workload fig8_splash --seed 1 --seconds 10 --trace 2",
            "--workload fig8_splash --seed 1 --seconds 0 --trace 0",
            "--workload fig8_splash --seed 1 --seconds ten --trace 0",
            "--workload nosuch --seed 1 --seconds 10 --trace 0",
            "--workload fig8_splash --seed 1 --seconds 10 --trace 0 --verbose",
            "--workload fig8_splash --seed 1 --seconds 10 --trace 0 stray",
            "child --workload fig8_splash",
        ] {
            assert!(parse(&args(bad)).is_err(), "`{bad}` must be rejected");
        }
    }
}
