//! The full experiment suite as a library: every paper artifact, run with
//! a configurable worker count and profile, timed, and rendered into the
//! `results/experiments_report.md` paper-vs-measured report.
//!
//! The suite is one ordered table, [`EXPERIMENTS`]. Each entry names an
//! experiment, runs it with its seed and profile parameters, writes the
//! artifacts it declares, and contributes its rows to the report.
//! `run_all` runs the whole table through [`run_suite`];
//! `run_all --only a,b` runs just the named entries through
//! [`run_selected`], which writes their artifacts and nothing else.
//!
//! The workspace determinism test runs the [`Profile::Smoke`] suite at 1
//! and 8 threads and asserts byte-identical artifacts. Wall-clock timings
//! appear only in the Markdown report, `BENCH_runtime.json`, and the
//! quarantined `obs_timings.json` / `service_timings.json`, never in the
//! experiment artifacts, so the determinism guarantee covers every other
//! `*.json` and `*.csv` file (including `obs_report.json`).

use std::fmt::{Display, Write as _};
use std::fs;
use std::io;
use std::iter::once;
use std::path::PathBuf;
use std::time::Instant;

use flashmark_core::{CoreError, ReplicaLayout, SweepSpec};
use flashmark_par::TrialRunner;
use flashmark_physics::{Micros, PhysicsParams};
use flashmark_supply::{ScenarioConfig, SupplyChainScenario};

use crate::experiments::{
    detector_comparison, ecc_ablation, family_consistency, fig04, fig05, fig09, fig10, fig11,
    nand_demo, npe_sweep, read_majority_ablation, recycled_probe, table1, temperature_sweep,
    BerSeries, Fig11Data,
};
use crate::fault_campaign::{fault_campaign, fault_campaign_trials, CAMPAIGN_SEED};
use crate::microbench::kernel_suite;
use crate::observability::{obs_campaign, obs_campaign_trials};
use crate::output::{write_json_in, Table};
use crate::paper;
use crate::service_campaign::ServiceCampaignData;
use crate::trend::{append_and_report, suite_record};
use flashmark_registry::impl_to_json;
use flashmark_registry::json::{Json, ToJson};

/// How much work the suite does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Paper-scale parameters — regenerates the committed `results/`.
    Full,
    /// Reduced trials/sweeps for CI and the determinism test.
    Smoke,
}

/// Suite configuration.
#[derive(Debug, Clone)]
pub struct SuiteOptions {
    /// Worker threads for the trial runner (1 = exact legacy serial path).
    pub threads: usize,
    /// Work profile.
    pub profile: Profile,
    /// Directory all artifacts are written into.
    pub results_dir: PathBuf,
}

/// One experiment's execution record.
#[derive(Debug, Clone)]
pub struct ExperimentOutcome {
    /// The experiment's table entry name.
    pub name: &'static str,
    /// Independent trials the experiment fanned out.
    pub trials: usize,
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// The error message, if the experiment failed.
    pub error: Option<String>,
}

/// The suite's result: per-experiment outcomes plus the rendered report.
#[derive(Debug, Clone)]
pub struct SuiteReport {
    /// One outcome per experiment, in execution order.
    pub outcomes: Vec<ExperimentOutcome>,
    /// The full Markdown report (also written to `experiments_report.md`).
    pub markdown: String,
}

impl SuiteReport {
    /// The experiments that failed.
    #[must_use]
    pub fn failures(&self) -> Vec<&ExperimentOutcome> {
        self.outcomes.iter().filter(|o| o.error.is_some()).collect()
    }
}

/// The `obs_timings.json` artifact: the observability step's wall clock,
/// quarantined away from the deterministic `obs_report.json` so the latter
/// stays byte-identical across machines and thread counts.
#[derive(Debug)]
struct ObsTimings {
    wall_s: f64,
    threads: usize,
    trials: u64,
}
impl_to_json!(ObsTimings {
    wall_s,
    threads,
    trials
});

/// One profile's row in the `physics_params.json` artifact: the scalar
/// knobs that define simulation semantics, committed so parameter drift
/// (including the erase-distribution quantization grid, which changes every
/// erase-time draw) shows up in review as a diff on a versioned artifact.
fn params_entry(profile: &str, p: &PhysicsParams) -> Json {
    let knobs = [
        ("vref_v", p.vref.get()),
        ("vth_erased_mean_v", p.vth_erased.mean),
        ("vth_erased_sigma_v", p.vth_erased.sigma),
        ("vth_programmed_mean_v", p.vth_programmed.mean),
        ("vth_programmed_sigma_v", p.vth_programmed.sigma),
        ("read_noise_sigma_v", p.read_noise_sigma),
        ("op_jitter_sigma", p.op_jitter_sigma),
        ("common_jitter_sigma", p.common_jitter_sigma),
        ("erased_vth_shift_per_kcycle", p.erased_vth_shift_per_kcycle),
        (
            "programmed_vth_shift_per_kcycle",
            p.programmed_vth_shift_per_kcycle,
        ),
        ("wear_program", p.wear.program),
        ("wear_erase", p.wear.erase),
        ("wear_erase_only", p.wear.erase_only),
        ("erase_activation_energy_ev", p.erase_activation_energy_ev),
        ("ref_temp_c", p.ref_temp_c),
        ("endurance_kcycles", p.endurance_kcycles),
        ("erase_dist_grid_kcycles", p.erase_dist_grid_kcycles),
        ("prog_full_time_median_us", p.prog_full_time_us.median),
        ("prog_full_time_sigma", p.prog_full_time_us.sigma),
        ("prog_speedup_per_kcycle", p.prog_speedup_per_kcycle),
    ];
    Json::Obj(
        once(("profile".to_string(), profile.to_json()))
            .chain(knobs.iter().map(|&(k, v)| (k.to_string(), v.to_json())))
            .collect(),
    )
}

/// One entry of the experiment table.
#[derive(Debug)]
pub struct Experiment {
    /// The experiment's name: its `run_all --only` key and its row in the
    /// report's Runtime section.
    pub name: &'static str,
    /// Every file the entry writes into the results directory. The suite
    /// fails the entry if it writes anything else or misses one.
    pub artifacts: &'static [&'static str],
    run: fn(&mut Step<'_>) -> StepResult,
}

const fn entry(
    name: &'static str,
    artifacts: &'static [&'static str],
    run: fn(&mut Step<'_>) -> StepResult,
) -> Experiment {
    Experiment {
        name,
        artifacts,
        run,
    }
}

/// The suite, in execution (and report) order.
pub const EXPERIMENTS: &[Experiment] = &[
    entry("fig04", &["fig04.json", "fig04.csv"], run_fig04),
    entry("fig05", &["fig05.json"], run_fig05),
    entry("fig09", &["fig09.json", "fig09.csv"], run_fig09),
    entry("fig10", &["fig10.json"], run_fig10),
    entry(
        "fig11",
        &[
            "fig11.json",
            "fig11_40k.csv",
            "fig11_50k.csv",
            "fig11_60k.csv",
            "fig11_70k.csv",
        ],
        run_fig11,
    ),
    entry(
        "fig11_interleaved",
        &["fig11_interleaved.json"],
        run_fig11_interleaved,
    ),
    entry("table1", &["table1.json"], run_table1),
    entry("ecc_ablation", &["ecc_ablation.json"], run_ecc_ablation),
    entry("read_majority", &["read_majority.json"], run_read_majority),
    entry(
        "recycled_probe",
        &["recycled_probe.json"],
        run_recycled_probe,
    ),
    entry(
        "detector_comparison",
        &["detector_comparison.json"],
        run_detector_comparison,
    ),
    entry(
        "family_consistency",
        &["family_consistency.json"],
        run_family_consistency,
    ),
    entry(
        "temperature_sweep",
        &["temperature_sweep.json"],
        run_temperature_sweep,
    ),
    entry("npe_sweep", &["npe_sweep.json"], run_npe_sweep),
    entry("nand_demo", &["nand_demo.json"], run_nand_demo),
    entry(
        "fault_campaign",
        &["fault_campaign.json"],
        run_fault_campaign,
    ),
    entry(
        "obs_report",
        &["obs_report.json", "obs_timings.json"],
        run_obs_report,
    ),
    entry(
        "service_campaign_smoke",
        &[
            "service_campaign_smoke.json",
            "service_metrics_smoke.prom",
            "service_timings.json",
        ],
        run_service_campaign_smoke,
    ),
    entry(
        "backend_campaign_smoke",
        &["backend_campaign_smoke.json"],
        run_backend_campaign_smoke,
    ),
    entry("scenario", &[], run_scenario),
    entry(
        "physics_params",
        &["physics_params.json"],
        run_physics_params,
    ),
];

/// Resolves a comma-separated `run_all --only` list against
/// [`EXPERIMENTS`]: the named entries, each once, in table order.
///
/// # Errors
///
/// An empty or unknown name; the message lists every valid name.
pub fn select(list: &str) -> Result<Vec<&'static Experiment>, String> {
    let names: Vec<&str> = list.split(',').map(str::trim).collect();
    if let Some(bad) = names
        .iter()
        .find(|&&n| !EXPERIMENTS.iter().any(|e| e.name == n))
    {
        let valid: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        return Err(format!(
            "unknown experiment {bad:?}; valid names: {}",
            valid.join(", ")
        ));
    }
    Ok(EXPERIMENTS
        .iter()
        .filter(|e| names.contains(&e.name))
        .collect())
}

/// An entry's result: the number of independent trials it fanned out.
type StepResult = Result<usize, Box<dyn std::error::Error>>;

/// The inputs of the suite's trend record, captured by the entries that
/// compute them.
#[derive(Default)]
struct TrendInputs {
    fault_flips: Option<u64>,
    obs_ops: Option<u64>,
    service: Option<ServiceCampaignData>,
}

/// What an entry runs against: the suite options, the report it adds rows
/// to, the artifacts it has written so far, and the trend inputs.
struct Step<'a> {
    opts: &'a SuiteOptions,
    md: &'a mut String,
    written: Vec<String>,
    trend: &'a mut TrendInputs,
}

impl Step<'_> {
    fn smoke(&self) -> bool {
        self.opts.profile == Profile::Smoke
    }

    fn runner(&self, seed: u64) -> TrialRunner {
        TrialRunner::with_threads(seed, self.opts.threads)
    }

    fn json<T: ToJson>(&mut self, stem: &str, value: &T) -> io::Result<()> {
        write_json_in(&self.opts.results_dir, stem, value)?;
        self.written.push(format!("{stem}.json"));
        Ok(())
    }

    fn csv(&mut self, stem: &str, table: &Table) -> io::Result<()> {
        let name = format!("{stem}.csv");
        table.write_csv(&self.opts.results_dir.join(&name))?;
        self.written.push(name);
        Ok(())
    }

    fn file(&mut self, name: &str, contents: &str) -> io::Result<()> {
        fs::write(self.opts.results_dir.join(name), contents)?;
        self.written.push(name.to_string());
        Ok(())
    }

    fn row(
        &mut self,
        artifact: &str,
        metric: impl Display,
        paper: impl Display,
        measured: impl Display,
    ) {
        let _ = writeln!(self.md, "| {artifact} | {metric} | {paper} | {measured} |");
    }
}

/// Exact f64 identity for sweep keys that are carried through unchanged
/// (stress levels in `kcycles`), where bit equality is the correct match.
fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

/// A CSV table of a `tPE` sweep: a `tPE (us)` column, then one
/// `(header, cells)` column per series.
fn sweep_table(times: &[f64], columns: &[(String, Vec<String>)]) -> Table {
    let mut table =
        Table::new(once("tPE (us)".to_string()).chain(columns.iter().map(|c| c.0.clone())));
    for (i, t) in times.iter().enumerate() {
        table.row(once(format!("{t:.0}")).chain(columns.iter().map(|c| c.1[i].clone())));
    }
    table
}

/// A BER sweep's CSV column, in percent with `decimals` places.
fn ber_column(header: String, series: &BerSeries, decimals: usize) -> (String, Vec<String>) {
    let cells = series
        .points
        .iter()
        .map(|&(_, ber)| format!("{:.*}", decimals, ber * 100.0))
        .collect();
    (header, cells)
}

fn run_fig04(s: &mut Step<'_>) -> StepResult {
    let (levels, sweep, reads): (Vec<f64>, _, _) = if s.smoke() {
        (
            vec![0.0, 20.0],
            SweepSpec::new(Micros::new(0.0), Micros::new(60.0), Micros::new(12.0))?,
            1,
        )
    } else {
        (
            paper::FIG4_ALL_ERASED_US.iter().map(|&(k, _)| k).collect(),
            SweepSpec::fig4(),
            3,
        )
    };
    let f4 = fig04(&s.runner(0xF1604), &levels, &sweep, reads)?;
    s.json("fig04", &f4)?;
    let times: Vec<f64> = f4.curves[0].points.iter().map(|p| p.0).collect();
    let columns: Vec<_> = f4
        .curves
        .iter()
        .map(|c| {
            let cells = c.points.iter().map(|p| p.1.to_string()).collect();
            (format!("cells_0 @{}K", c.kcycles), cells)
        })
        .collect();
    s.csv("fig04", &sweep_table(&times, &columns))?;
    for (c, &(k, p)) in f4.curves.iter().zip(paper::FIG4_ALL_ERASED_US) {
        s.row(
            "Fig. 4",
            format!("all cells erased @{k}K (µs)"),
            format!("{p:.0}"),
            format!("{:.0}", c.all_erased_us),
        );
    }
    if let Some(onset) = f4.curves[0].onset_us {
        s.row(
            "Fig. 4",
            "fresh erase onset (µs)",
            format!("{:.0}", paper::FIG4_FRESH_ONSET_US),
            format!("{onset:.0}"),
        );
    }
    Ok(levels.len())
}

fn run_fig05(s: &mut Step<'_>) -> StepResult {
    let f5 = fig05(&s.runner(0xF1605), 50.0, Micros::new(paper::FIG5_T_PEW_US))?;
    s.json("fig05", &f5)?;
    s.row(
        "Fig. 5",
        "bits distinguishing 0K vs 50K @23 µs",
        format!("{}/4096", paper::FIG5_DISTINGUISHABLE),
        format!(
            "{}/{} (optimum {} @{:.0} µs)",
            f5.distinguishable, f5.total, f5.best_distinguishable, f5.best_t_pew_us
        ),
    );
    Ok(1)
}

fn run_fig09(s: &mut Step<'_>) -> StepResult {
    let (levels, sweep) = if s.smoke() {
        (
            vec![0.0, 40.0],
            SweepSpec::new(Micros::new(20.0), Micros::new(44.0), Micros::new(6.0))?,
        )
    } else {
        (
            vec![0.0, 20.0, 40.0, 60.0, 80.0, 100.0],
            SweepSpec::new(Micros::new(2.0), Micros::new(80.0), Micros::new(2.0))?,
        )
    };
    let f9 = fig09(&s.runner(0xF1609), &levels, &sweep)?;
    s.json("fig09", &f9)?;
    let times: Vec<f64> = f9.series[0].points.iter().map(|p| p.0).collect();
    let columns: Vec<_> = f9
        .series
        .iter()
        .map(|series| ber_column(format!("BER% @{}K", series.kcycles), series, 1))
        .collect();
    s.csv("fig09", &sweep_table(&times, &columns))?;
    for series in &f9.series {
        let m = series.minimum().map_or(f64::NAN, |(_, b)| b * 100.0);
        let p = paper::FIG9_MIN_BER_PCT
            .iter()
            .find(|&&(k, _)| same(k, series.kcycles))
            .map_or_else(|| "—".to_string(), |&(_, b)| format!("{b}"));
        s.row(
            "Fig. 9",
            format!("min single-copy BER @{}K (%)", series.kcycles),
            p,
            format!("{m:.1}"),
        );
    }
    Ok(levels.len())
}

fn run_fig10(s: &mut Step<'_>) -> StepResult {
    let f10 = fig10(
        &s.runner(0xF1610),
        paper::FIG10_BITS,
        paper::FIG10_REPLICAS,
        paper::FIG10_STRESS_KCYCLES,
        Micros::new(paper::FIG10_T_PEW_US),
    )?;
    s.json("fig10", &f10)?;
    s.row(
        "Fig. 10",
        "majority-voted errors (30 bits, 7 replicas, 50K)",
        "0",
        f10.recovered_errors,
    );
    s.row(
        "Fig. 10",
        "error direction (bad→good : good→bad)",
        "bad→good dominates",
        format!("{} : {}", f10.bad_to_good, f10.good_to_bad),
    );
    Ok(1)
}

/// Fig. 11's replication sweep, shared by both replica layouts.
fn fig11_sweep(s: &Step<'_>, layout: ReplicaLayout) -> Result<Fig11Data, CoreError> {
    let levels = [40.0, 50.0, 60.0, 70.0];
    let (reps, sweep) = if s.smoke() {
        (
            vec![3],
            SweepSpec::new(Micros::new(24.0), Micros::new(36.0), Micros::new(6.0))?,
        )
    } else {
        (
            vec![3, 5, 7],
            SweepSpec::new(Micros::new(20.0), Micros::new(56.0), Micros::new(2.0))?,
        )
    };
    fig11(&s.runner(0xF1611), &levels, &reps, &sweep, layout)
}

/// The Fig. 11 series at `kcycles` and `replicas`, if swept.
fn fig11_series(f11: &Fig11Data, kcycles: f64, replicas: usize) -> Option<&BerSeries> {
    f11.series
        .iter()
        .find(|s| same(s.kcycles, kcycles) && s.replicas == replicas)
}

fn run_fig11(s: &mut Step<'_>) -> StepResult {
    let f11 = fig11_sweep(s, ReplicaLayout::Contiguous)?;
    s.json("fig11", &f11)?;
    // Series run replica-fastest within each stress level: one CSV per
    // level, one column per replica count.
    for level in f11.series.chunk_by(|a, b| same(a.kcycles, b.kcycles)) {
        let times: Vec<f64> = level[0].points.iter().map(|p| p.0).collect();
        let columns: Vec<_> = level
            .iter()
            .map(|series| ber_column(format!("BER% {} replicas", series.replicas), series, 2))
            .collect();
        s.csv(
            &format!("fig11_{}k", level[0].kcycles),
            &sweep_table(&times, &columns),
        )?;
    }
    for &(r, p) in paper::FIG11_40K_MIN_BER_PCT {
        if let Some((_, b)) = fig11_series(&f11, 40.0, r).and_then(BerSeries::minimum) {
            s.row(
                "Fig. 11",
                format!("min BER @40K, {r} replicas (%)"),
                p,
                format!("{:.2}", b * 100.0),
            );
        }
    }
    let r70 = paper::FIG11_70K_ZERO_BER_REPLICAS;
    if let Some((_, b)) = fig11_series(&f11, 70.0, r70).and_then(BerSeries::minimum) {
        s.row(
            "Fig. 11",
            format!("min BER @70K, {r70} replicas (%)"),
            "0 (full recovery)",
            format!("{:.2}", b * 100.0),
        );
    }
    Ok(f11.series.len())
}

fn run_fig11_interleaved(s: &mut Step<'_>) -> StepResult {
    let f11 = fig11_sweep(s, ReplicaLayout::Interleaved)?;
    s.json("fig11_interleaved", &f11)?;
    for &(r, _) in paper::FIG11_40K_MIN_BER_PCT {
        if let Some((_, b)) = fig11_series(&f11, 40.0, r).and_then(BerSeries::minimum) {
            s.row(
                "ablation",
                format!("interleaved layout: min BER @40K, {r} replicas (%)"),
                "—",
                format!("{:.2}", b * 100.0),
            );
        }
    }
    Ok(f11.series.len())
}

fn run_table1(s: &mut Step<'_>) -> StepResult {
    let cycles: Vec<u64> = if s.smoke() {
        vec![1_000]
    } else {
        vec![40_000, 70_000]
    };
    let t1 = table1(&s.runner(0xF1671), &cycles)?;
    s.json("table1", &t1)?;
    for &(n, base, accel, _) in &t1.imprint {
        let (pb, pa) = match n {
            40_000 => (
                Some(paper::IMPRINT_BASELINE_40K_S),
                Some(paper::IMPRINT_ACCEL_40K_S),
            ),
            70_000 => (
                Some(paper::IMPRINT_BASELINE_70K_S),
                Some(paper::IMPRINT_ACCEL_70K_S),
            ),
            _ => (None, None),
        };
        let k = n / 1000;
        s.row(
            "§V timing",
            format!("baseline imprint @{k}K (s)"),
            pb.map_or_else(|| "—".into(), |p| format!("{p}")),
            format!("{base:.0}"),
        );
        s.row(
            "§V timing",
            format!("accelerated imprint @{k}K (s)"),
            pa.map_or_else(|| "—".into(), |p| format!("{p}")),
            format!("{accel:.0}"),
        );
    }
    s.row(
        "§V timing",
        "extract with replicas (ms)",
        format!("{} (incl. host I/O)", paper::EXTRACT_MS),
        format!("{:.0} (on-chip only)", t1.extract_s * 1000.0),
    );
    Ok(cycles.len() * 2 + 1)
}

fn run_ecc_ablation(s: &mut Step<'_>) -> StepResult {
    let ecc = ecc_ablation(&s.runner(0xECC), 50.0, Micros::new(30.0))?;
    s.json("ecc_ablation", &ecc)?;
    for (name, bits, ber, _) in &ecc.rows {
        s.row(
            "ablation",
            format!("{name} post-decode BER ({bits} cells) (%)"),
            "—",
            format!("{:.2}", ber * 100.0),
        );
    }
    Ok(ecc.rows.len())
}

fn run_read_majority(s: &mut Step<'_>) -> StepResult {
    let (read_counts, sweep) = if s.smoke() {
        (
            vec![1, 3],
            SweepSpec::new(Micros::new(24.0), Micros::new(44.0), Micros::new(10.0))?,
        )
    } else {
        (
            vec![1, 3, 5],
            SweepSpec::new(Micros::new(24.0), Micros::new(44.0), Micros::new(2.0))?,
        )
    };
    let rm = read_majority_ablation(&s.runner(0xECC2), 40.0, &sweep, &read_counts)?;
    s.json("read_majority", &rm)?;
    for &(n, ber) in &rm.rows {
        s.row(
            "ablation",
            format!("min BER @40K with N={n} reads (%)"),
            "—",
            format!("{:.2}", ber * 100.0),
        );
    }
    Ok(read_counts.len())
}

fn run_recycled_probe(s: &mut Step<'_>) -> StepResult {
    let prior: Vec<f64> = if s.smoke() {
        vec![0.0, 30.0]
    } else {
        vec![0.0, 10.0, 20.0, 50.0, 100.0]
    };
    let rp = recycled_probe(&s.runner(0xF1612), &prior)?;
    s.json("recycled_probe", &rp)?;
    for &(k, frac) in &rp.rows {
        s.row(
            "recycling",
            format!("programmed fraction after probe @{k}K prior use"),
            "—",
            format!("{frac:.2}"),
        );
    }
    Ok(prior.len())
}

fn run_detector_comparison(s: &mut Step<'_>) -> StepResult {
    let d = detector_comparison(0xDE7E, &[0.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0])?;
    s.json("detector_comparison", &d)?;
    let first_flagged = |flags: fn(&(f64, f64, bool, f64, bool)) -> bool| {
        d.rows
            .iter()
            .find(|r| flags(r))
            .map_or_else(|| "none".to_string(), |r| format!("{:.0}", r.0))
    };
    s.row(
        "recycling",
        "first prior wear flagged: partial-erase / partial-program (K)",
        "—",
        format!("{} / {}", first_flagged(|r| r.2), first_flagged(|r| r.4)),
    );
    Ok(1)
}

fn run_family_consistency(s: &mut Step<'_>) -> StepResult {
    let (chips, step_us, reads) = if s.smoke() { (2, 4.0, 1) } else { (4, 2.0, 3) };
    let sweep = SweepSpec::new(Micros::new(14.0), Micros::new(50.0), Micros::new(step_us))?;
    let fam = family_consistency(&s.runner(0xFB01), chips, &sweep, reads)?;
    s.json("family_consistency", &fam)?;
    s.row(
        "family",
        "per-chip optimum spread (µs)",
        "consistent across samples",
        format!(
            "{:.0} (recipe tPEW {:.0} µs)",
            fam.optimum_spread_us, fam.recipe_t_pew_us
        ),
    );
    Ok(fam.per_chip.len())
}

fn run_temperature_sweep(s: &mut Step<'_>) -> StepResult {
    let (temps, step_us) = if s.smoke() {
        (vec![-20.0, 25.0, 85.0], 6.0)
    } else {
        (vec![-20.0, 0.0, 25.0, 55.0, 85.0], 2.0)
    };
    let sweep = SweepSpec::new(Micros::new(10.0), Micros::new(60.0), Micros::new(step_us))?;
    // The recipe's tPEW, calibrated at 25 °C.
    let fixed_t_pew = Micros::new(28.0);
    let ts = temperature_sweep(&s.runner(0x7E3), &temps, &sweep, fixed_t_pew)?;
    s.json("temperature_sweep", &ts)?;
    for (&(temp, t, ber), &(_, fixed)) in ts.rows.iter().zip(&ts.fixed_t_pew_rows) {
        s.row(
            "temperature",
            format!(
                "optimum tPE / min BER / BER @{:.0} µs, at {temp:.0} °C",
                fixed_t_pew.get()
            ),
            "—",
            format!("{t:.0} µs / {:.1} % / {:.1} %", ber * 100.0, fixed * 100.0),
        );
    }
    Ok(temps.len())
}

fn run_npe_sweep(s: &mut Step<'_>) -> StepResult {
    let (levels, chips): (Vec<u64>, _) = if s.smoke() {
        (vec![20_000, 70_000], 2)
    } else {
        ((2..=8).map(|k| k * 10_000).collect(), 6)
    };
    let sweep = npe_sweep(&s.runner(0x59EE9), &levels, chips)?;
    s.json("npe_sweep", &sweep)?;
    for &(n, chips, passed, imprint_s) in &sweep.rows {
        s.row(
            "imprint effort",
            format!("chips verified / accelerated imprint @{}K", n / 1000),
            "—",
            format!("{passed}/{chips} / {imprint_s:.0} s"),
        );
    }
    Ok(levels.len() * chips)
}

fn run_nand_demo(s: &mut Step<'_>) -> StepResult {
    let demo = nand_demo(0x0A0, 0x0A1, &[40_000, 70_000])?;
    s.json("nand_demo", &demo)?;
    if let Some((_, _, imprint_s, ber)) = demo
        .rows
        .iter()
        .find(|r| r.0 == "SLC NAND" && r.1 == 70_000)
    {
        s.row(
            "NAND",
            "imprint @70K (s) / post-vote BER (%)",
            "applicable to NAND (conclusion)",
            format!("{imprint_s:.0} s / {:.2} %", ber * 100.0),
        );
    }
    Ok(1)
}

fn run_fault_campaign(s: &mut Step<'_>) -> StepResult {
    let fc = fault_campaign(&s.runner(CAMPAIGN_SEED), s.opts.profile)?;
    s.trend.fault_flips = Some(fc.reject_to_accept_total as u64);
    s.json("fault_campaign", &fc)?;
    s.row(
        "fault injection",
        "reject→accept flips across fault grid",
        "0 (invariant)",
        fc.reject_to_accept_total,
    );
    s.row(
        "fault injection",
        "wear decreases under injected faults",
        "0 (invariant)",
        fc.wear_decrease_total,
    );
    if !fc.invariants_hold() {
        return Err("fault campaign invariant violated".into());
    }
    Ok(fault_campaign_trials(s.opts.profile))
}

/// The same fault grid as `fault_campaign`, instrumented. The deterministic
/// aggregate goes to `obs_report.json`; the wall clock is quarantined into
/// `obs_timings.json`, which the determinism test skips.
fn run_obs_report(s: &mut Step<'_>) -> StepResult {
    let t0 = Instant::now();
    let data = obs_campaign(&s.runner(CAMPAIGN_SEED), s.opts.profile)?;
    let wall_s = t0.elapsed().as_secs_f64();
    s.trend.obs_ops = Some(data.total_ops);
    s.json("obs_report", &data)?;
    let timings = ObsTimings {
        wall_s,
        threads: s.opts.threads,
        trials: data.trials,
    };
    s.json("obs_timings", &timings)?;
    s.row(
        "observability",
        "events traced across fault campaign",
        "—",
        format!("{} ({} trials)", data.total_ops, data.trials),
    );
    s.row(
        "observability",
        "fault firings / sanitizer violations",
        "—",
        format!(
            "{} / {}",
            data.group_total("fault"),
            data.group_total("sanitizer")
        ),
    );
    s.row(
        "observability",
        "verdicts genuine : counterfeit : inconclusive",
        "—",
        format!(
            "{} : {} : {}",
            data.counter("verdict", "genuine"),
            data.counter("verdict", "counterfeit"),
            data.counter("verdict", "inconclusive"),
        ),
    );
    s.row(
        "observability",
        "events dropped by trial ring buffers",
        "0",
        data.events_dropped,
    );
    Ok(obs_campaign_trials(s.opts.profile))
}

/// The verification-service campaign. The deterministic summary goes to
/// `service_campaign_smoke.json` (the CI `service-smoke` diff target: the
/// Full profile writes the same 10 k-request shape the
/// `service_campaign --smoke` bin produces); wall clock is quarantined into
/// `service_timings.json`. The committed million-request
/// `service_campaign.json` comes from the bin's default run, not the suite.
fn run_service_campaign_smoke(s: &mut Step<'_>) -> StepResult {
    use crate::service_campaign::{run_service_campaign, ServiceCampaignOptions, ServiceTimings};
    let svc_opts = if s.smoke() {
        ServiceCampaignOptions::tiny(s.opts.threads)
    } else {
        ServiceCampaignOptions::smoke(s.opts.threads)
    };
    let t0 = Instant::now();
    let run = run_service_campaign(&svc_opts, |_| {})?;
    let wall_s = t0.elapsed().as_secs_f64();
    let data = run.data;
    s.json("service_campaign_smoke", &data)?;
    s.file("service_metrics_smoke.prom", &run.exposition)?;
    let timings = ServiceTimings {
        threads: s.opts.threads,
        requests: data.requests,
        wall_s,
        requests_per_s: data.requests as f64 / wall_s.max(1e-9),
    };
    s.json("service_timings", &timings)?;
    let accepts: u64 = data
        .verdict_mix
        .iter()
        .filter(|r| r.verdict == "accept")
        .map(|r| r.count)
        .sum();
    s.row(
        "service",
        "requests verified / accepted",
        "—",
        format!("{} / {accepts}", data.requests),
    );
    s.row(
        "service",
        "registry root (records / seals)",
        "—",
        format!(
            "{} ({} / {})",
            data.registry_root, data.registry_records, data.registry_seals
        ),
    );
    if data.duplicates != 0 {
        return Err("service campaign saw duplicate request ids".into());
    }
    s.trend.service = Some(data);
    Ok(svc_opts.requests as usize)
}

/// The differential backend campaign: the same scenario grid through every
/// `WatermarkScheme` backend (NOR tPEW / NAND PUF / ReRAM forming). The
/// deterministic summary goes to `backend_campaign_smoke.json` (the CI
/// `backend-smoke` diff target: the Full profile writes the same shape the
/// `backend_campaign --smoke` bin produces); the committed full-size
/// `backend_campaign.json` and the per-scheme trend records come from the
/// bin's default run, not the suite.
fn run_backend_campaign_smoke(s: &mut Step<'_>) -> StepResult {
    use crate::backend_campaign::{
        run_backend_campaign, BackendCampaignOptions, Scenario, BACKEND_SCHEMES,
    };
    let be_opts = if s.smoke() {
        BackendCampaignOptions::tiny(s.opts.threads)
    } else {
        BackendCampaignOptions::smoke(s.opts.threads)
    };
    let data = run_backend_campaign(&be_opts)?;
    s.json("backend_campaign_smoke", &data)?;
    for sc in &data.schemes {
        s.row(
            "backends",
            format!("{} ground-truth verdicts", sc.scheme),
            "all scenarios",
            format!("{}/{}", sc.expected_matches, sc.trials),
        );
        s.row(
            "backends",
            format!("{} forgery margin (mismatch)", sc.scheme),
            "counterfeit ≫ genuine",
            format!(
                "{:.3} − {:.3} = {:.3}",
                sc.mean_counterfeit_mismatch, sc.mean_genuine_mismatch, sc.forgery_margin
            ),
        );
        s.row(
            "backends",
            format!("{} imprint cost", sc.scheme),
            if sc.imprints {
                "wear-based"
            } else {
                "free (intrinsic)"
            },
            format!("{} cycles / {:.0} s", sc.imprint_cycles, sc.imprint_sim_s),
        );
    }
    if let Some(nor) = data.schemes.iter().find(|sc| sc.scheme == "nor_tpew") {
        s.row(
            "backends",
            "NOR scheme facade vs legacy pipeline agreement",
            "identical verdicts",
            format!("{}/{}", nor.legacy_matches.unwrap_or(0), nor.trials),
        );
    }
    if let Some(sc) = data
        .schemes
        .iter()
        .find(|sc| sc.expected_matches != sc.trials)
    {
        return Err(format!("{}: a scenario missed its ground-truth verdict", sc.scheme).into());
    }
    Ok(be_opts.trials * Scenario::ALL.len() * BACKEND_SCHEMES.len())
}

fn run_scenario(s: &mut Step<'_>) -> StepResult {
    let stats = SupplyChainScenario::new(ScenarioConfig::small(0x5CA1E)).run()?;
    s.row(
        "scenario",
        "counterfeit detection rate (%)",
        "100 (design goal)",
        format!("{:.0}", stats.detection_rate() * 100.0),
    );
    s.row(
        "scenario",
        "genuine false-positive rate (%)",
        "0 (design goal)",
        format!("{:.0}", stats.false_positive_rate() * 100.0),
    );
    Ok(1)
}

/// The committed parameter record, written on every profile so the
/// artifact can never go stale against the code.
fn run_physics_params(s: &mut Step<'_>) -> StepResult {
    let profiles = vec![
        params_entry("msp430_like", &PhysicsParams::msp430_like()),
        params_entry("generic_nor", &PhysicsParams::generic_nor()),
        params_entry("fast_standalone_nor", &PhysicsParams::fast_standalone_nor()),
    ];
    let report = Json::Obj(vec![("profiles".to_string(), Json::Arr(profiles))]);
    s.file("physics_params.json", &report.pretty())?;
    Ok(1)
}

/// Runs `entries` in order, appending their rows to `md`. Per-entry errors
/// (including an entry whose written files differ from its declared
/// artifacts) are captured in the outcomes, not propagated, so one failing
/// experiment does not mask the rest.
fn run_entries<'e>(
    opts: &SuiteOptions,
    entries: impl IntoIterator<Item = &'e Experiment>,
    md: &mut String,
    trend: &mut TrendInputs,
) -> Vec<ExperimentOutcome> {
    let mut outcomes = Vec::new();
    for entry in entries {
        // flashmark-lint: allow(print-discipline) -- suite progress ticker on stderr; artifacts stay deterministic on stdout/disk
        eprintln!("[{:>2}] {} ...", outcomes.len() + 1, entry.name);
        let t0 = Instant::now();
        let mut step = Step {
            opts,
            md: &mut *md,
            written: Vec::new(),
            trend: &mut *trend,
        };
        let result = (entry.run)(&mut step);
        let wall_s = t0.elapsed().as_secs_f64();
        let mut written = step.written;
        written.sort_unstable();
        let mut declared = entry.artifacts.to_vec();
        declared.sort_unstable();
        let (trials, error) = match result {
            Ok(_) if written != declared => (
                0,
                Some(format!(
                    "wrote {written:?} but the table declares {declared:?}"
                )),
            ),
            Ok(trials) => (trials, None),
            Err(e) => (0, Some(e.to_string())),
        };
        if let Some(e) = &error {
            // flashmark-lint: allow(print-discipline) -- failure surfaced live on stderr as well as in the outcome record
            eprintln!("     {} FAILED: {e}", entry.name);
        }
        outcomes.push(ExperimentOutcome {
            name: entry.name,
            trials,
            wall_s,
            error,
        });
    }
    outcomes
}

const REPORT_TABLE_HEADER: &str = "| artifact | metric | paper | measured |\n|---|---|---|---|\n";

/// Runs the whole [`EXPERIMENTS`] table and writes every artifact plus
/// `experiments_report.md`, a record appended to the trend log with its
/// drift report, and — for [`Profile::Full`] — `BENCH_runtime.json`, all
/// into the results directory.
///
/// # Errors
///
/// I/O errors writing the report files.
pub fn run_suite(opts: &SuiteOptions) -> io::Result<SuiteReport> {
    let dir = &opts.results_dir;
    fs::create_dir_all(dir)?;
    let mut md = format!(
        "# Flashmark reproduction — paper vs measured\n\n\
         Generated by `cargo run --release -p flashmark-bench --bin run_all`.\n\n\
         {REPORT_TABLE_HEADER}"
    );
    // The runtime baseline's kernel micro-benchmarks run first, so they see
    // the same fresh-process heap as `perf_smoke`, which gates against
    // them. A kernel that allocates (the segment copy of
    // `clone_and_erase`) runs at a speed set by the allocator's heap state,
    // and the experiments change that state. Smoke runs skip the baseline
    // so reduced-profile artifacts never overwrite the committed one.
    let kernels = (opts.profile == Profile::Full).then(|| {
        // flashmark-lint: allow(print-discipline) -- progress ticker on stderr; artifacts stay deterministic on stdout/disk
        eprintln!("[  ] kernel micro-benchmarks ...");
        kernel_suite()
    });
    let mut trend = TrendInputs::default();
    let outcomes = run_entries(opts, EXPERIMENTS, &mut md, &mut trend);

    // Per-experiment wall times. These are environment-dependent and
    // deliberately confined to the Markdown report — the JSON artifacts
    // stay bit-identical across thread counts and machines.
    md.push_str("\n## Runtime\n\n");
    let _ = writeln!(
        md,
        "{} worker thread(s), {:?} profile.\n",
        opts.threads, opts.profile
    );
    md.push_str("| experiment | trials | wall (s) | status |\n|---|---|---|---|\n");
    for o in &outcomes {
        let _ = writeln!(
            md,
            "| {} | {} | {:.2} | {} |",
            o.name,
            o.trials,
            o.wall_s,
            o.error.as_deref().unwrap_or("ok"),
        );
    }

    // Append this run to the cross-run trend log and regenerate the drift
    // report. Deterministic inputs only (verdict mix, flips, op counts),
    // so the appended line — and the report — are byte-identical at any
    // thread count. Skipped when the service step failed: a partial
    // record would start a non-comparable trend group.
    if let Some(svc) = &trend.service {
        let report = append_and_report(dir, suite_record(svc, trend.fault_flips, trend.obs_ops))?;
        let _ = writeln!(
            md,
            "\n## Trend\n\n{} run(s) on record; drift gates {} \
             ({} failure(s), {} warning(s)).",
            report.records,
            if report.passed() { "passed" } else { "FAILED" },
            report.failures.len(),
            report.warnings.len()
        );
    }

    // The runtime baseline: kernel micro-benchmarks plus per-experiment
    // wall times.
    if let Some(mut rt) = kernels {
        for o in &outcomes {
            rt.push(&format!("experiment/{}", o.name), o.wall_s, o.trials.max(1));
        }
        rt.write(&dir.join("BENCH_runtime.json"))?;
    }

    fs::write(dir.join("experiments_report.md"), &md)?;
    Ok(SuiteReport {
        outcomes,
        markdown: md,
    })
}

/// Runs just `entries` (see [`select`]) and writes just their artifacts:
/// no `experiments_report.md`, no trend record, no `BENCH_runtime.json`.
/// The returned Markdown holds the entries' report rows.
///
/// # Errors
///
/// I/O errors creating the results directory.
pub fn run_selected(opts: &SuiteOptions, entries: &[&Experiment]) -> io::Result<SuiteReport> {
    fs::create_dir_all(&opts.results_dir)?;
    let mut md = REPORT_TABLE_HEADER.to_string();
    let outcomes = run_entries(
        opts,
        entries.iter().copied(),
        &mut md,
        &mut TrendInputs::default(),
    );
    Ok(SuiteReport {
        outcomes,
        markdown: md,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_names_are_unique() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert!(
                EXPERIMENTS[..i].iter().all(|p| p.name != e.name),
                "duplicate entry {}",
                e.name
            );
        }
    }

    #[test]
    fn select_returns_named_entries_once_in_table_order() {
        let picked = select("nand_demo, fig04,nand_demo").unwrap();
        let names: Vec<&str> = picked.iter().map(|e| e.name).collect();
        assert_eq!(names, ["fig04", "nand_demo"]);
    }

    #[test]
    fn select_rejects_unknown_names_and_lists_the_valid_ones() {
        for list in ["fig04,fig99", "", "fig04,"] {
            let err = select(list).unwrap_err();
            assert!(err.contains("unknown experiment"), "{err}");
            for e in EXPERIMENTS {
                assert!(err.contains(e.name), "{err} does not list {}", e.name);
            }
        }
    }
}
