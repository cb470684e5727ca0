//! The standard experiment suite: the paper's campaign matrix and shared
//! CLI handling for the experiment binaries.

use crate::campaign::{Campaign, DispatchMode};
use crate::oracle_cache::{OracleCache, DATASET_CODE_VERSION};
use crate::runner::{AttackerSpec, OracleSpec};
use crate::train_sh::SweepConfig;
use av_neural::gemm::UnknownGemmMode;
use av_simkit::scenario::ScenarioId;
use av_suite::api::{EvalRequest, Priority};
use av_suite::fnv::Fnv1a;
use av_suite::ArtifactStore;
use robotack::vector::AttackVector;
use std::path::PathBuf;
use std::sync::Arc;

/// The six 〈scenario, vector〉 RoboTack arms of Table II, in paper row order.
pub const ARMS: [(ScenarioId, AttackVector, &str); 6] = [
    (ScenarioId::Ds1, AttackVector::Disappear, "DS-1-Disappear-R"),
    (ScenarioId::Ds2, AttackVector::Disappear, "DS-2-Disappear-R"),
    (ScenarioId::Ds1, AttackVector::MoveOut, "DS-1-Move_Out-R"),
    (ScenarioId::Ds2, AttackVector::MoveOut, "DS-2-Move_Out-R"),
    (ScenarioId::Ds3, AttackVector::MoveIn, "DS-3-Move_In-R"),
    (ScenarioId::Ds4, AttackVector::MoveIn, "DS-4-Move_In-R"),
];

/// Command-line options shared by the experiment binaries.
#[derive(Debug, Clone)]
pub struct Args {
    /// Runs per campaign.
    pub runs: u64,
    /// Quick mode: small sweeps and few runs (CI smoke).
    pub quick: bool,
    /// Base seed.
    pub seed: u64,
    /// Oracle-cache root (`--cache-dir`); `None` means the default
    /// `target/oracle-cache/`.
    pub cache_dir: Option<PathBuf>,
    /// Disable the oracle cache entirely (`--no-cache`).
    pub no_cache: bool,
    /// Campaign dispatch mode: `--batch N` makes workers claim blocks of N
    /// run indices (the boundary search's sweep block size too); the
    /// default claims one at a time. Outputs are identical either way.
    pub dispatch: DispatchMode,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            runs: 120,
            quick: false,
            seed: 2020,
            cache_dir: None,
            no_cache: false,
            dispatch: DispatchMode::WorkStealing,
        }
    }
}

/// A command-line value that is missing or does not parse, or an
/// `AV_GEMM_MODE` that names no kernel. Every experiment binary reports it
/// and exits with status 2 instead of falling back to a default (a typo
/// like `--runs 2O` must not silently run 120 runs, nor
/// `AV_GEMM_MODE=naiv` silently run the blocked kernels).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// The flag was the last argument, with no value after it.
    MissingValue {
        /// The flag, e.g. `--runs`.
        flag: &'static str,
    },
    /// The value after the flag is not what the flag takes.
    BadValue {
        /// The flag, e.g. `--runs`.
        flag: &'static str,
        /// The value as given.
        value: String,
        /// What the flag takes, e.g. "a non-negative integer".
        expected: &'static str,
    },
    /// The `AV_GEMM_MODE` environment variable names no GEMM mode.
    GemmMode(UnknownGemmMode),
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingValue { flag } => write!(f, "{flag} needs a value"),
            ArgError::BadValue {
                flag,
                value,
                expected,
            } => write!(f, "{flag} takes {expected}, not {value:?}"),
            ArgError::GemmMode(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ArgError {}

impl ArgError {
    /// Reports the error on stderr and exits with status 2 — the usage-error
    /// path every experiment binary shares.
    pub fn exit(&self) -> ! {
        eprintln!("error: {self}");
        std::process::exit(2)
    }
}

/// The raw value after `flag`, or [`ArgError::MissingValue`].
pub fn value<'a>(
    iter: &mut impl Iterator<Item = &'a String>,
    flag: &'static str,
) -> Result<&'a str, ArgError> {
    iter.next()
        .map(String::as_str)
        .ok_or(ArgError::MissingValue { flag })
}

/// The value after `flag` parsed as `T`, or a typed error naming the flag.
pub fn parsed<'a, T: std::str::FromStr>(
    iter: &mut impl Iterator<Item = &'a String>,
    flag: &'static str,
    expected: &'static str,
) -> Result<T, ArgError> {
    let raw = value(iter, flag)?;
    raw.parse().map_err(|_| ArgError::BadValue {
        flag,
        value: raw.to_string(),
        expected,
    })
}

/// The value after `flag` as a count of at least 1.
fn positive<'a>(
    iter: &mut impl Iterator<Item = &'a String>,
    flag: &'static str,
) -> Result<usize, ArgError> {
    let raw = value(iter, flag)?;
    match raw.parse() {
        Ok(v) if v > 0 => Ok(v),
        _ => Err(ArgError::BadValue {
            flag,
            value: raw.to_string(),
            expected: "a positive integer",
        }),
    }
}

impl Args {
    /// Parses `--runs N`, `--quick`, `--seed S`, `--cache-dir DIR`,
    /// `--no-cache`, `--batch N` from `std::env::args`, warning about
    /// anything else. A missing or unparseable value exits with status 2.
    pub fn parse() -> Args {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let (args, unknown) = Args::parse_known(&argv).unwrap_or_else(|e| e.exit());
        for other in unknown {
            eprintln!("ignoring unknown argument {other:?}");
        }
        args
    }

    /// Parses the shared options out of `argv`, returning the arguments it
    /// did not understand (so wrapper CLIs like `suite` can layer their own
    /// flags on top without re-implementing the shared ones).
    ///
    /// # Errors
    ///
    /// A shared flag with a missing or unparseable value, or an
    /// `AV_GEMM_MODE` other than `blocked` or `naive`, is an [`ArgError`];
    /// unknown flags are not errors.
    pub fn parse_known(argv: &[String]) -> Result<(Args, Vec<String>), ArgError> {
        const COUNT: &str = "a non-negative integer";
        av_neural::gemm::mode_from_env().map_err(ArgError::GemmMode)?;
        let mut args = Args::default();
        let mut unknown = Vec::new();
        let mut iter = argv.iter();
        while let Some(a) = iter.next() {
            match a.as_str() {
                "--quick" => {
                    args.quick = true;
                    args.runs = args.runs.min(12);
                }
                "--runs" => args.runs = parsed(&mut iter, "--runs", COUNT)?,
                "--seed" => args.seed = parsed(&mut iter, "--seed", COUNT)?,
                "--cache-dir" => {
                    args.cache_dir = Some(PathBuf::from(value(&mut iter, "--cache-dir")?));
                }
                "--no-cache" => args.no_cache = true,
                "--batch" => {
                    args.dispatch = DispatchMode::Batched {
                        batch_size: positive(&mut iter, "--batch")?,
                    };
                }
                other => unknown.push(other.to_string()),
            }
        }
        Ok((args, unknown))
    }

    /// The artifact store these options select: disabled under
    /// `--no-cache`, otherwise rooted at `--cache-dir` or the default
    /// directory.
    pub fn artifact_store(&self) -> ArtifactStore {
        if self.no_cache {
            ArtifactStore::disabled()
        } else {
            ArtifactStore::at(
                self.cache_dir
                    .clone()
                    .unwrap_or_else(OracleCache::default_dir),
            )
        }
    }

    /// The oracle cache these options select: a view over
    /// [`Args::artifact_store`].
    pub fn oracle_cache(&self) -> OracleCache {
        OracleCache::over(Arc::new(self.artifact_store()))
    }

    /// A digest of everything that determines job outputs for this
    /// configuration — the run manifest's compatibility key. Two
    /// invocations with the same config key may resume each other's
    /// manifests; anything else starts fresh.
    ///
    /// [`Args::dispatch`] is deliberately **excluded**: every run is a pure
    /// function of its session, so job outputs are bit-identical at any
    /// block size and invocations with and without `--batch` share
    /// manifests and caches (CI byte-diffs their stdout).
    pub fn config_key(&self) -> u64 {
        let sweep = self.sweep();
        let mut h = Fnv1a::new();
        h.write_u64(u64::from(DATASET_CODE_VERSION));
        h.write_u64(self.runs);
        h.write_u64(u64::from(self.quick));
        h.write_u64(self.seed);
        h.write_u64(sweep.delta_injects.len() as u64);
        for &d in &sweep.delta_injects {
            h.write_f64(d);
        }
        h.write_u64(sweep.ks.len() as u64);
        for &k in &sweep.ks {
            h.write_u64(u64::from(k));
        }
        h.write_u64(sweep.seeds_per_cell);
        h.write_u64(sweep.base_seed);
        h.finish()
    }

    /// The training sweep matching this mode.
    pub fn sweep(&self) -> SweepConfig {
        if self.quick {
            SweepConfig {
                delta_injects: vec![8.0, 16.0, 24.0, 32.0],
                ks: vec![10, 30, 50, 70],
                seeds_per_cell: 1,
                ..SweepConfig::default()
            }
        } else {
            SweepConfig::default()
        }
    }
}

/// Command-line options of the `suite` orchestrator binary: the shared
/// [`Args`] plus scheduling flags.
#[derive(Debug, Clone)]
pub struct SuiteArgs {
    /// The shared experiment options (forwarded to every job).
    pub base: Args,
    /// Worker threads for the job pool (`--jobs N`).
    pub jobs: usize,
    /// Restrict the run to these jobs plus their transitive dependencies
    /// (`--only JOB`, repeatable).
    pub only: Vec<String>,
    /// Print the job DAG and exit (`--list`).
    pub list: bool,
    /// Run-manifest path (`--manifest FILE`); `None` means
    /// `target/suite-manifest.jsonl`.
    pub manifest: Option<PathBuf>,
    /// Ignore any existing manifest and re-run every job (`--no-resume`).
    pub no_resume: bool,
    /// Unix-socket path for `suite serve` / `suite request`
    /// (`--socket PATH`); `None` means `target/suite.sock`.
    pub socket: Option<PathBuf>,
    /// Concurrent requests the daemon admits at once
    /// (`--request-slots N`, serve mode).
    pub request_slots: usize,
    /// Admission class of this request (`--priority interactive|batch`,
    /// request mode).
    pub priority: Priority,
    /// Correlation id for this request (`--id NAME`, request mode); the
    /// daemon assigns one when empty.
    pub id: String,
    /// Send the shutdown sentinel instead of a request
    /// (`request --shutdown`).
    pub shutdown: bool,
}

impl Default for SuiteArgs {
    fn default() -> Self {
        SuiteArgs {
            base: Args::default(),
            jobs: 2,
            only: Vec::new(),
            list: false,
            manifest: None,
            no_resume: false,
            socket: None,
            request_slots: 2,
            priority: Priority::Interactive,
            id: String::new(),
            shutdown: false,
        }
    }
}

impl SuiteArgs {
    /// Parses suite flags plus the shared [`Args`] from `std::env::args`.
    /// A missing or unparseable value exits with status 2.
    pub fn parse() -> SuiteArgs {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        SuiteArgs::parse_from(&argv).unwrap_or_else(|e| e.exit())
    }

    /// Parses suite flags plus the shared [`Args`] from `argv`, warning
    /// about unknown flags.
    ///
    /// # Errors
    ///
    /// A flag with a missing or unparseable value, `--jobs 0`, or
    /// `--request-slots 0` is an [`ArgError`].
    pub fn parse_from(argv: &[String]) -> Result<SuiteArgs, ArgError> {
        let (base, rest) = Args::parse_known(argv)?;
        let mut args = SuiteArgs {
            base,
            ..SuiteArgs::default()
        };
        let mut iter = rest.iter();
        while let Some(a) = iter.next() {
            match a.as_str() {
                "--jobs" => args.jobs = positive(&mut iter, "--jobs")?,
                "--only" => args.only.push(value(&mut iter, "--only")?.to_string()),
                "--list" => args.list = true,
                "--manifest" => {
                    args.manifest = Some(PathBuf::from(value(&mut iter, "--manifest")?));
                }
                "--no-resume" => args.no_resume = true,
                "--socket" => args.socket = Some(PathBuf::from(value(&mut iter, "--socket")?)),
                "--request-slots" => args.request_slots = positive(&mut iter, "--request-slots")?,
                "--priority" => {
                    let raw = value(&mut iter, "--priority")?;
                    args.priority = Priority::parse(raw).ok_or_else(|| ArgError::BadValue {
                        flag: "--priority",
                        value: raw.to_string(),
                        expected: "interactive or batch",
                    })?;
                }
                "--id" => args.id = value(&mut iter, "--id")?.to_string(),
                "--shutdown" => args.shutdown = true,
                other => eprintln!("ignoring unknown argument {other:?}"),
            }
        }
        Ok(args)
    }

    /// The manifest path this run appends to.
    pub fn manifest_path(&self) -> PathBuf {
        self.manifest
            .clone()
            .unwrap_or_else(|| PathBuf::from("target").join("suite-manifest.jsonl"))
    }

    /// The Unix-socket path serve/request mode binds or connects to.
    pub fn socket_path(&self) -> PathBuf {
        self.socket
            .clone()
            .unwrap_or_else(|| PathBuf::from("target").join("suite.sock"))
    }

    /// The typed [`EvalRequest`] these flags describe — the single request
    /// type both the one-shot CLI and the daemon execute, so
    /// `suite --only table2` and `suite request --only table2` are
    /// *literally* the same evaluation (see [`crate::jobs::request_args`]
    /// for the inverse mapping).
    pub fn to_request(&self) -> EvalRequest {
        EvalRequest {
            id: self.id.clone(),
            only: self.only.clone(),
            runs: self.base.runs,
            quick: self.base.quick,
            seed: self.base.seed,
            batch: match self.base.dispatch {
                DispatchMode::Batched { batch_size } => Some(batch_size),
                DispatchMode::WorkStealing => None,
            },
            jobs: self.jobs,
            priority: self.priority,
        }
    }
}

/// Trains (or loads from `cache`, or falls back for) the safety-hijacker
/// oracle for one arm.
///
/// A cache hit returns the exact oracle a fresh training run would produce,
/// so the description — and everything downstream — is byte-identical
/// whether the cache was warm or cold. Falls back to the closed-form
/// kinematic oracle when training data is too scarce — the binaries print
/// which oracle each arm ended up with.
pub fn oracle_for(
    scenario: ScenarioId,
    vector: AttackVector,
    sweep: &SweepConfig,
    cache: &OracleCache,
) -> (OracleSpec, String) {
    match cache.oracle_for(scenario, vector, sweep) {
        Some(trained) => {
            let desc = format!(
                "NN oracle ({} examples, val mse {:.2} m²)",
                trained.examples, trained.val_mse
            );
            (OracleSpec::Nn(trained.oracle), desc)
        }
        None => (
            OracleSpec::Kinematic,
            "kinematic fallback (insufficient data)".into(),
        ),
    }
}

/// Prints the cache scorecard to stderr (stdout stays byte-identical across
/// warm and cold runs — CI diffs it): oracle, dataset, campaign and figure
/// lookups. A report calls it after its last campaign or figure fold, so
/// the campaign and figure lines say whether those came from the store.
pub fn report_cache(cache: &OracleCache) {
    if cache.is_enabled() {
        eprintln!(
            "[oracle-cache] hits={} misses={}",
            cache.hits(),
            cache.misses()
        );
        eprintln!(
            "[artifact] dataset hits={} misses={}",
            cache.dataset_hits(),
            cache.dataset_misses()
        );
        eprintln!(
            "[artifact] campaign hits={} misses={}",
            cache.campaign_hits(),
            cache.campaign_misses()
        );
        eprintln!(
            "[artifact] figure hits={} misses={}",
            cache.figure_hits(),
            cache.figure_misses()
        );
    } else {
        eprintln!("[oracle-cache] disabled");
        eprintln!("[artifact] dataset cache disabled");
        eprintln!("[artifact] campaign cache disabled");
        eprintln!("[artifact] figure cache disabled");
    }
}

/// The full-RoboTack campaign of one arm.
pub fn r_campaign(
    name: &str,
    scenario: ScenarioId,
    vector: AttackVector,
    oracle: OracleSpec,
    runs: u64,
    seed: u64,
) -> Campaign {
    Campaign::new(
        name,
        scenario,
        AttackerSpec::RoboTack {
            vector: Some(vector),
            oracle,
        },
        runs,
        seed,
    )
}

/// The "R w/o SH" campaign of one arm.
pub fn nosh_campaign(
    name: &str,
    scenario: ScenarioId,
    vector: AttackVector,
    runs: u64,
    seed: u64,
) -> Campaign {
    Campaign::new(
        name,
        scenario,
        AttackerSpec::RoboTackNoSh {
            vector: Some(vector),
        },
        runs,
        seed,
    )
}

/// The DS-5 random baseline campaign.
pub fn baseline_campaign(runs: u64, seed: u64) -> Campaign {
    Campaign::new(
        "DS-5-Baseline-Random",
        ScenarioId::Ds5,
        AttackerSpec::Random,
        runs,
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arms_cover_the_paper_matrix() {
        assert_eq!(ARMS.len(), 6);
        let disappear = ARMS
            .iter()
            .filter(|(_, v, _)| *v == AttackVector::Disappear)
            .count();
        let move_in = ARMS
            .iter()
            .filter(|(_, v, _)| *v == AttackVector::MoveIn)
            .count();
        assert_eq!(disappear, 2);
        assert_eq!(move_in, 2);
        assert!(ARMS.iter().all(|(_, _, n)| n.ends_with("-R")));
    }

    #[test]
    fn quick_sweep_is_small() {
        let quick = Args {
            runs: 5,
            quick: true,
            ..Args::default()
        }
        .sweep();
        let full = Args {
            runs: 100,
            quick: false,
            ..Args::default()
        }
        .sweep();
        assert!(quick.delta_injects.len() < full.delta_injects.len());
        assert!(quick.ks.len() < full.ks.len());
    }

    #[test]
    fn parse_known_splits_shared_and_unknown_flags() {
        let argv: Vec<String> = ["--quick", "--jobs", "4", "--seed", "7", "--only", "table2"]
            .iter()
            .map(ToString::to_string)
            .collect();
        let (args, unknown) = Args::parse_known(&argv).expect("valid flags");
        assert!(args.quick);
        assert_eq!(args.seed, 7);
        assert_eq!(unknown, ["--jobs", "4", "--only", "table2"]);

        let suite = SuiteArgs::parse_from(&argv).expect("valid flags");
        assert!(suite.base.quick);
        assert_eq!(suite.base.seed, 7);
        assert_eq!(suite.jobs, 4);
        assert_eq!(suite.only, ["table2"]);
        assert!(!suite.list);
        assert!(suite.manifest_path().ends_with("suite-manifest.jsonl"));
    }

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn shared_flags_parse_their_values() {
        let (args, unknown) =
            Args::parse_known(&argv(&["--runs", "7", "--seed", "9", "--batch", "16"]))
                .expect("valid flags");
        assert_eq!((args.runs, args.seed), (7, 9));
        assert_eq!(args.dispatch, DispatchMode::Batched { batch_size: 16 });
        assert!(unknown.is_empty());
    }

    #[test]
    fn bad_or_missing_shared_values_name_their_flag() {
        for (flag, expected) in [
            ("--runs", "a non-negative integer"),
            ("--seed", "a non-negative integer"),
            ("--batch", "a positive integer"),
        ] {
            let err = Args::parse_known(&argv(&[flag, "2O"])).expect_err("unparseable value");
            assert_eq!(
                err,
                ArgError::BadValue {
                    flag,
                    value: "2O".into(),
                    expected,
                }
            );
            assert!(err.to_string().contains(flag), "{err}");
            let err = Args::parse_known(&argv(&["--quick", flag])).expect_err("missing value");
            assert_eq!(err, ArgError::MissingValue { flag });
        }
        for flag in ["--runs", "--seed", "--batch"] {
            assert!(
                Args::parse_known(&argv(&[flag, "-1"])).is_err(),
                "{flag} -1"
            );
        }
        // A zero block size is rejected, not clamped to 1.
        assert_eq!(
            Args::parse_known(&argv(&["--batch", "0"])).expect_err("zero batch"),
            ArgError::BadValue {
                flag: "--batch",
                value: "0".into(),
                expected: "a positive integer",
            }
        );
        let err = Args::parse_known(&argv(&["--cache-dir"])).expect_err("missing dir");
        assert_eq!(
            err,
            ArgError::MissingValue {
                flag: "--cache-dir"
            }
        );
    }

    #[test]
    fn bad_or_missing_suite_values_name_their_flag() {
        for flag in ["--jobs", "--request-slots"] {
            for bad in ["x", "0", "-2"] {
                let err = SuiteArgs::parse_from(&argv(&[flag, bad])).expect_err(bad);
                assert_eq!(
                    err,
                    ArgError::BadValue {
                        flag,
                        value: bad.into(),
                        expected: "a positive integer",
                    }
                );
            }
            let err = SuiteArgs::parse_from(&argv(&[flag])).expect_err("missing value");
            assert_eq!(err, ArgError::MissingValue { flag });
        }
        let err = SuiteArgs::parse_from(&argv(&["--priority", "urgent"])).expect_err("bad class");
        assert_eq!(
            err,
            ArgError::BadValue {
                flag: "--priority",
                value: "urgent".into(),
                expected: "interactive or batch",
            }
        );
        for flag in ["--priority", "--only", "--manifest", "--socket", "--id"] {
            let err = SuiteArgs::parse_from(&argv(&[flag])).expect_err("missing value");
            assert_eq!(err, ArgError::MissingValue { flag });
        }
        // The shared flags fail the same way through the suite parser.
        assert_eq!(
            SuiteArgs::parse_from(&argv(&["--runs"])).expect_err("missing"),
            ArgError::MissingValue { flag: "--runs" }
        );
        let ok = SuiteArgs::parse_from(&argv(&[
            "--jobs",
            "3",
            "--request-slots",
            "4",
            "--priority",
            "batch",
            "--bogus",
        ]))
        .expect("unknown flags only warn");
        assert_eq!((ok.jobs, ok.request_slots), (3, 4));
        assert_eq!(ok.priority, Priority::Batch);
    }

    #[test]
    fn config_key_tracks_every_input() {
        let base = Args::default();
        let k0 = base.config_key();
        assert_eq!(k0, Args::default().config_key(), "stable");
        assert_ne!(
            k0,
            Args {
                runs: base.runs + 1,
                ..base.clone()
            }
            .config_key()
        );
        assert_ne!(
            k0,
            Args {
                seed: base.seed ^ 1,
                ..base.clone()
            }
            .config_key()
        );
        assert_ne!(
            k0,
            Args {
                quick: true,
                ..base.clone()
            }
            .config_key(),
            "quick changes the sweep, so it changes the key"
        );
    }

    #[test]
    fn args_select_the_right_cache() {
        let default = Args::default().oracle_cache();
        assert!(default.is_enabled());

        let disabled = Args {
            no_cache: true,
            cache_dir: Some(PathBuf::from("/tmp/ignored")),
            ..Args::default()
        }
        .oracle_cache();
        assert!(!disabled.is_enabled(), "--no-cache wins over --cache-dir");
    }
}
