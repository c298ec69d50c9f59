//! # pmc-bench — harness utilities
//!
//! Shared formatting helpers for the figure/table binaries. Each binary
//! regenerates one artefact of the paper:
//!
//! | binary | paper artefact |
//! |---|---|
//! | `table1` | Table I (ordering rules) |
//! | `fig1_litmus` | Fig. 1 (message passing breaks on distributed memories) |
//! | `table2_portability` | Table II (one program, four architectures) |
//! | `fig8` | Fig. 8 (SPLASH-2 under no-CC vs SWCC, stall breakdown) |
//! | `fig9_fifo` | Fig. 9 (multi-reader/multi-writer FIFO) |
//! | `fig10_spm` | Fig. 10 (motion estimation on scratch-pads) |
//! | `fig_dma` | extension: DMA bursts vs word-copy, per-link NoC contention |
//! | `ablation_locks` | extension: SDRAM lock vs asymmetric distributed lock |

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

use pmc_apps::workload::Breakdown;
use pmc_soc_sim::telemetry::json;
use pmc_soc_sim::Topology;

/// Render a Fig. 8-style percentage bar row (the stall columns sum to
/// 100%: `dma-wait` is the time cores sleep in event-based DMA
/// completion waits).
pub fn breakdown_row(label: &str, b: &Breakdown) -> String {
    format!(
        "{label:<24} {:>7.1}% {:>9.1}% {:>9.1}% {:>7.1}% {:>8.1}% {:>7.1}% {:>8.1}% {:>12} {:>8.2}%",
        b.busy * 100.0,
        b.priv_read * 100.0,
        b.shared_read * 100.0,
        b.write * 100.0,
        b.icache * 100.0,
        b.noc * 100.0,
        b.dma_wait * 100.0,
        b.makespan,
        b.flush_overhead * 100.0,
    )
}

/// Header matching [`breakdown_row`].
pub fn breakdown_header() -> String {
    format!(
        "{:<24} {:>8} {:>10} {:>10} {:>8} {:>9} {:>8} {:>9} {:>12} {:>9}",
        "run",
        "busy",
        "priv-read",
        "shrd-read",
        "write",
        "icache",
        "noc",
        "dma-wait",
        "makespan",
        "flush"
    )
}

/// What a flag of a harness binary takes on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Takes {
    /// Nothing: present or absent (`--json`).
    Switch,
    /// One unsigned decimal integer (`--tiles 8`).
    U32,
    /// One string (`--topology mesh`).
    Str,
}

/// The checked command line of a harness binary: every argument is a
/// flag the binary declared, with the value it takes. An unknown flag,
/// a flag missing its value and an unparsable value are usage errors,
/// never silent defaults.
#[derive(Debug)]
pub struct Args {
    accepted: &'static [(&'static str, Takes)],
    given: Vec<(&'static str, String)>,
}

impl Args {
    /// Check `argv` (without the program name) against `accepted`.
    pub(crate) fn parse(
        argv: &[String],
        accepted: &'static [(&'static str, Takes)],
    ) -> Result<Args, String> {
        let mut given = Vec::new();
        let mut rest = argv.iter();
        while let Some(arg) = rest.next() {
            let Some(&(name, takes)) = accepted.iter().find(|(name, _)| name == arg) else {
                return Err(format!("unknown argument `{arg}`"));
            };
            let value = match takes {
                Takes::Switch => String::new(),
                Takes::U32 | Takes::Str => match rest.next() {
                    Some(v) if !v.starts_with("--") => v.clone(),
                    _ => return Err(format!("{name} needs a value")),
                },
            };
            if takes == Takes::U32 && value.parse::<u32>().is_err() {
                return Err(format!("{name} {value}: not an unsigned 32-bit integer"));
            }
            given.push((name, value));
        }
        Ok(Args { accepted, given })
    }

    /// Check the process's own command line against `accepted`; a usage
    /// error goes to stderr with the accepted flags and exits with
    /// status 2.
    pub fn from_env(accepted: &'static [(&'static str, Takes)]) -> Args {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        Args::parse(&argv, accepted).unwrap_or_else(|e| usage_error(&e, accepted))
    }

    /// Reject a value only the binary can judge (an unknown back-end
    /// name, say) the way [`Args::from_env`] rejects a bad flag.
    pub fn fail(&self, error: &str) -> ! {
        usage_error(error, self.accepted)
    }

    fn get(&self, name: &str, takes: Takes) -> Option<&str> {
        assert!(self.accepted.contains(&(name, takes)), "{name} is not declared as {takes:?}");
        self.given.iter().find(|(n, _)| *n == name).map(|(_, v)| v.as_str())
    }

    pub fn flag(&self, name: &str) -> bool {
        self.get(name, Takes::Switch).is_some()
    }

    pub fn u32(&self, name: &str, default: u32) -> u32 {
        self.get(name, Takes::U32).map_or(default, |v| v.parse().expect("checked by Args::parse"))
    }

    pub fn str(&self, name: &str, default: &str) -> String {
        self.get(name, Takes::Str).unwrap_or(default).to_string()
    }

    /// The `--topology` flag as a topology for `n_tiles` tiles
    /// ([`topology_named`]).
    pub fn topology(&self, n_tiles: usize) -> Topology {
        let name = self.str("--topology", "ring");
        topology_named(&name, n_tiles).unwrap_or_else(|| {
            self.fail(&format!("--topology must be `ring`, `mesh` or `torus`, got `{name}`"))
        })
    }
}

/// Report a bad command line — the error, then the accepted flags — on
/// stderr and exit with status 2.
fn usage_error(error: &str, accepted: &[(&str, Takes)]) -> ! {
    let flags: Vec<String> = accepted
        .iter()
        .map(|&(name, takes)| match takes {
            Takes::Switch => format!("[{name}]"),
            Takes::U32 => format!("[{name} N]"),
            Takes::Str => format!("[{name} STR]"),
        })
        .collect();
    eprintln!("error: {error}\naccepted flags: {}", flags.join(" "));
    std::process::exit(2)
}

/// `k` memory-controller tiles spread evenly over `n_tiles` (`k = 1` →
/// tile 0, the single-controller default). The spread keeps the average
/// tile-to-controller distance flat as controllers are added, so
/// controller-scaling tables measure port parallelism, not placement.
pub fn spread_controllers(n_tiles: usize, k: usize) -> Vec<usize> {
    (0..k.max(1)).map(|i| i * n_tiles / k.max(1)).collect()
}

/// The topology called `name` (`ring` | `mesh` | `torus`) for `n_tiles`
/// tiles, or `None` for any other name. Meshes and tori use the most
/// nearly square factorisation of the tile count (8 → 2×4, 16 → 4×4;
/// primes degenerate to a 1×n line).
pub fn topology_named(name: &str, n_tiles: usize) -> Option<Topology> {
    let (cols, rows) = mesh_dims(n_tiles);
    match name {
        "ring" => Some(Topology::Ring),
        "mesh" => Some(Topology::Mesh { cols, rows }),
        "torus" => Some(Topology::Torus { cols, rows }),
        _ => None,
    }
}

/// The most nearly square `cols × rows` factorisation of `n`.
pub fn mesh_dims(n: usize) -> (usize, usize) {
    let mut cols = (n as f64).sqrt() as usize;
    while cols > 1 && !n.is_multiple_of(cols) {
        cols -= 1;
    }
    let cols = cols.max(1);
    (cols, n / cols)
}

/// The `n` busiest links of a report (non-idle only, descending busy) —
/// the shared selection behind every contention table.
pub fn top_links(links: &[pmc_soc_sim::LinkReport], n: usize) -> Vec<&pmc_soc_sim::LinkReport> {
    let mut busiest: Vec<_> = links.iter().filter(|l| l.busy > 0).collect();
    busiest.sort_by_key(|l| std::cmp::Reverse(l.busy));
    busiest.truncate(n);
    busiest
}

/// A [`Breakdown`] as a JSON object. Stall categories are fractions of
/// total time (not percentages), exactly as the struct stores them.
pub fn breakdown_json(b: &Breakdown) -> String {
    json::obj(&[
        ("busy", json::num(b.busy)),
        ("priv_read", json::num(b.priv_read)),
        ("shared_read", json::num(b.shared_read)),
        ("write", json::num(b.write)),
        ("icache", json::num(b.icache)),
        ("noc", json::num(b.noc)),
        ("dma_wait", json::num(b.dma_wait)),
        ("utilization", json::num(b.utilization)),
        ("flush_overhead", json::num(b.flush_overhead)),
        ("makespan", b.makespan.to_string()),
    ])
}

/// The `n` busiest links as a JSON array of
/// `{link, from, to, busy, bursts}` objects (same selection and order as
/// [`top_links`]).
pub fn top_links_json(links: &[pmc_soc_sim::LinkReport], n: usize) -> String {
    let items: Vec<String> = top_links(links, n)
        .iter()
        .map(|l| {
            json::obj(&[
                ("link", l.link.to_string()),
                ("from", l.from.to_string()),
                ("to", l.to.to_string()),
                ("busy", l.busy.to_string()),
                ("bursts", l.bursts.to_string()),
            ])
        })
        .collect();
    json::arr(&items)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: &[(&str, Takes)] =
        &[("--tiles", Takes::U32), ("--topology", Takes::Str), ("--json", Takes::Switch)];

    fn parse(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        Args::parse(&argv, FLAGS)
    }

    #[test]
    fn a_valid_line_parses_and_absent_flags_take_their_defaults() {
        let args = parse("--json --tiles 16 --topology mesh").unwrap();
        assert!(args.flag("--json"));
        assert_eq!(args.u32("--tiles", 8), 16);
        assert_eq!(args.topology(16), Topology::Mesh { cols: 4, rows: 4 });
        let none = parse("").unwrap();
        assert!(!none.flag("--json"));
        assert_eq!(none.u32("--tiles", 8), 8);
        assert_eq!(none.str("--topology", "ring"), "ring");
    }

    #[test]
    fn topologies_are_named_on_the_squarest_grid() {
        assert_eq!(topology_named("ring", 8), Some(Topology::Ring));
        assert_eq!(topology_named("torus", 8), Some(Topology::Torus { cols: 2, rows: 4 }));
        assert_eq!(topology_named("mesh", 7), Some(Topology::Mesh { cols: 1, rows: 7 }));
        assert_eq!(topology_named("hex", 8), None);
    }

    #[test]
    fn bad_lines_are_usage_errors() {
        assert_eq!(parse("--engine threaded").unwrap_err(), "unknown argument `--engine`");
        assert_eq!(parse("--tiles x").unwrap_err(), "--tiles x: not an unsigned 32-bit integer");
        assert_eq!(parse("--json --tiles").unwrap_err(), "--tiles needs a value");
        assert_eq!(parse("--tiles --json").unwrap_err(), "--tiles needs a value");
        assert_eq!(parse("8").unwrap_err(), "unknown argument `8`");
    }

    #[test]
    #[should_panic(expected = "--tiles is not declared as Switch")]
    fn asking_for_an_undeclared_flag_is_a_bug() {
        parse("").unwrap().flag("--tiles");
    }
}
