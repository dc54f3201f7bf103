//! Shared CLI for the campaign runners.
//!
//! Both `cargo run -p fleet` and `cargo run -p bench --bin campaign`
//! parse and execute through this module, so their outputs are
//! byte-identical by construction: same defaults (seed 8, serial, single
//! seed — the pre-fleet campaign behaviour), same report text for any
//! `--jobs`.

use neat_repro::campaign::{render, render_forensics, render_sweep};

/// Parsed options for a campaign run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Opts {
    /// Base seed (`--seed`, default 8 — the historical campaign seed).
    pub seed: u64,
    /// Sweep width (`--seeds N`): run seeds `seed..seed+N` and report the
    /// multi-seed sweep instead of the single-seed campaign table.
    pub seeds: Option<usize>,
    /// Worker count (`--jobs`, default 1 = serial).
    pub jobs: usize,
    /// Forensics mode (`--trace`): run every flawed arm with trace
    /// recording on and print the failure-timeline report instead of the
    /// campaign table.
    pub trace: bool,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            seed: 8,
            seeds: None,
            jobs: 1,
            trace: false,
        }
    }
}

/// The widest sweep `--seeds` accepts. A million campaigns is already
/// days of work; a wider one would not even fit its seed list in memory.
const MAX_SEEDS: usize = 1_000_000;

pub fn usage() -> &'static str {
    "usage: [--seed <n>] [--seeds <count>] [--jobs <k>] [--trace]\n\
     \n\
     Default: the full campaign at seed 8, serially — byte-identical to\n\
     the historical `campaign` output. --jobs K fans scenarios across K\n\
     workers (output unchanged for any K). --seeds N runs the campaign at\n\
     N consecutive seeds and reports per-scenario detection rates, the\n\
     live Table 11 deterministic/nondeterministic split, and the\n\
     detection-probability curve. --trace records every flawed arm and\n\
     prints the failure-forensics timelines instead of the table."
}

/// Parses CLI arguments (exclusive of the binary name). An empty error
/// string means `--help` was requested.
pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Opts, String> {
    let mut opts = Opts::default();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                let n = args.next().ok_or("--seed requires a number")?;
                opts.seed = n.parse().map_err(|_| format!("invalid seed `{n}`"))?;
            }
            "--seeds" => {
                let n = args.next().ok_or("--seeds requires a count")?;
                let count: usize = n.parse().map_err(|_| format!("invalid seed count `{n}`"))?;
                if !(1..=MAX_SEEDS).contains(&count) {
                    return Err(format!("--seeds must be between 1 and {MAX_SEEDS}"));
                }
                opts.seeds = Some(count);
            }
            "--jobs" => {
                let n = args.next().ok_or("--jobs requires a worker count")?;
                let jobs: usize = n.parse().map_err(|_| format!("invalid job count `{n}`"))?;
                if jobs == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
                opts.jobs = jobs;
            }
            "--trace" => opts.trace = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    // `sweep_seeds` covers `seed..seed+N`; the end must be representable.
    if opts.seeds.is_some_and(|count| opts.seed.checked_add(count as u64).is_none()) {
        return Err("--seed + --seeds overflows u64".to_string());
    }
    Ok(opts)
}

/// The seeds a sweep covers: `seed..seed+N`.
pub fn sweep_seeds(opts: &Opts) -> Vec<u64> {
    let n = opts.seeds.unwrap_or(1) as u64;
    (0..n).map(|i| opts.seed + i).collect()
}

/// Executes the campaign described by `opts` and renders the report —
/// the exact stdout (minus the trailing newline `println!` adds) of both
/// campaign binaries.
pub fn report(opts: &Opts) -> String {
    if opts.trace {
        let reports = crate::campaign::forensics(opts.seed, opts.jobs);
        return render_forensics(opts.seed, &reports);
    }
    match opts.seeds {
        None => render(&crate::campaign::run_all(opts.seed, opts.jobs)),
        Some(_) => render_sweep(&crate::campaign::sweep(&sweep_seeds(opts), opts.jobs)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn defaults_preserve_the_historical_campaign() {
        let opts = parse(args(&[])).expect("no args parse");
        assert_eq!(opts, Opts::default());
        assert!(!opts.trace);
    }

    #[test]
    fn all_flags_parse() {
        let opts = parse(args(&["--seed", "3", "--seeds", "5", "--jobs", "4", "--trace"]))
            .expect("parse");
        assert_eq!(opts.seed, 3);
        assert_eq!(opts.seeds, Some(5));
        assert_eq!(opts.jobs, 4);
        assert!(opts.trace);
        assert_eq!(sweep_seeds(&opts), vec![3, 4, 5, 6, 7]);
    }

    #[test]
    fn zero_jobs_and_zero_seeds_are_rejected() {
        assert!(parse(args(&["--jobs", "0"])).is_err());
        assert!(parse(args(&["--seeds", "0"])).is_err());
        assert!(parse(args(&["--frobnicate"])).is_err());
        assert_eq!(
            parse(args(&["--seeds", "2", "--seed", "18446744073709551615"])),
            Err("--seed + --seeds overflows u64".to_string())
        );
    }

    #[test]
    fn sweeps_are_bounded_and_reach_the_last_seed() {
        // An unbounded count parsed, then failed to allocate its seed list.
        let huge = parse(args(&["--seed", "0", "--seeds", "18446744073709551615"]));
        assert_eq!(huge, Err("--seeds must be between 1 and 1000000".to_string()));
        let last = parse(args(&["--seed", "18446744073709551615"])).expect("the last seed");
        assert_eq!(sweep_seeds(&last), vec![u64::MAX]);
    }

    #[test]
    fn help_is_the_empty_error() {
        assert_eq!(parse(args(&["--help"])), Err(String::new()));
    }

    use proptest::prelude::*;

    /// Flags, numbers at and past the `u64` / `usize` edges, and junk.
    fn arg() -> impl Strategy<Value = String> {
        const WORDS: &[&str] = &[
            "--seed", "--seeds", "--jobs", "--trace", "--help", "-h", "0", "1", "8",
            "18446744073709551615", "18446744073709551616", "-1", "+3", "", " ", "x", "--",
            "--seed=3", "\u{e9}",
        ];
        prop_oneof![
            4 => (0..WORDS.len()).prop_map(|i| WORDS[i].to_string()),
            1 => proptest::collection::vec(0u32..0x11_0000, 0..8).prop_map(|cs| {
                cs.into_iter().map(|c| char::from_u32(c).unwrap_or('\u{fffd}')).collect()
            }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn parse_never_panics_and_accepts_only_runnable_options(
            argv in proptest::collection::vec(arg(), 0..8),
        ) {
            if let Ok(opts) = parse(argv) {
                prop_assert!(opts.jobs >= 1);
                prop_assert_eq!(sweep_seeds(&opts).len(), opts.seeds.unwrap_or(1));
            }
        }
    }
}
