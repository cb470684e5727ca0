//! Plain-text renderers for the paper's tables and figures.
//!
//! Every renderer prints the *measured* values next to the paper's reference
//! numbers so `EXPERIMENTS.md` can be regenerated by running the binaries.

use crate::campaign::{CampaignResult, CampaignSummary};
use crate::characterize::{Fig5Fold, StreakFold, STREAK_BIN_FRAMES};
use crate::stats::BoxSummary;
use robotack::scenario_matcher::ScenarioMatcher;

/// Renders Table I (the scenario-matching map).
pub fn render_table1() -> String {
    let mut out = String::from("Table I: Scenario Matching Map (TO: target object)\n\n");
    out.push_str(&ScenarioMatcher::default().table());
    out
}

/// Paper reference values for one Table II row.
#[derive(Debug, Clone, Copy)]
pub struct Table2Reference {
    /// Median K reported by the paper.
    pub k: &'static str,
    /// EB percentage reported by the paper.
    pub eb_pct: &'static str,
    /// Crash percentage reported by the paper ("—" for Move_In rows).
    pub crash_pct: &'static str,
}

/// Renders one measured Table II row next to its paper reference. The
/// median K of a campaign with no launched run is `n/a`.
fn table2_row(
    result: &CampaignSummary,
    reference: &Table2Reference,
    crashes_apply: bool,
) -> String {
    let median_k = if result.n_launched() == 0 {
        "n/a".to_string()
    } else {
        format!("{:.0}", result.median_k())
    };
    let (eb_n, eb_pct) = result.eb();
    let crash_cell = if crashes_apply {
        let (n, pct) = result.crashes();
        format!("{n} ({pct:.1}%)")
    } else {
        "—".to_string()
    };
    format!(
        "{:<22} | {:>5} | {:>5} | {:>4} ({:>5.1}%) | {:<12} || paper: K={} EB={} crash={}\n",
        result.name,
        median_k,
        result.n_launched(),
        eb_n,
        eb_pct,
        crash_cell,
        reference.k,
        reference.eb_pct,
        reference.crash_pct,
    )
}

/// Renders the full Table II given the six RoboTack campaigns (in paper row
/// order) and the DS-5 random baseline.
pub fn render_table2(
    robotack_rows: &[(CampaignSummary, Table2Reference, bool)],
    baseline: &CampaignSummary,
) -> String {
    let mut out = String::from(
        "Table II: Smart malware attack summary vs random baseline\n\
         ID                     |   K   | #runs | #EB (   %)   | #crashes     || paper reference\n\
         -----------------------+-------+-------+--------------+--------------++----------------\n",
    );
    for (result, reference, crashes_apply) in robotack_rows {
        out.push_str(&table2_row(result, reference, *crashes_apply));
    }
    let (eb_n, eb_pct) = baseline.eb();
    let (crash_n, crash_pct) = baseline.crashes();
    out.push_str(&format!(
        "{:<22} | {:>5} | {:>5} | {:>4} ({:>5.1}%) | {:>4} ({:>4.1}%) || paper: K=K* EB=2.3% crash=0%\n",
        baseline.name,
        "K*",
        baseline.n_launched(),
        eb_n,
        eb_pct,
        crash_n,
        crash_pct,
    ));

    // The §I / §VI-C headline aggregates.
    let all_r: Vec<&CampaignSummary> = robotack_rows.iter().map(|(r, _, _)| r).collect();
    let total: usize = all_r.iter().map(|r| r.n_launched()).sum();
    let eb_total: usize = all_r.iter().map(|r| r.eb().0).sum();
    let crash_rows: Vec<&&CampaignSummary> = all_r
        .iter()
        .filter(|r| !r.name.contains("Move_In"))
        .collect();
    let crash_total: usize = crash_rows.iter().map(|r| r.crashes().0).sum();
    let crash_n_runs: usize = crash_rows.iter().map(|r| r.n_launched()).sum();
    let ped: Vec<&&CampaignSummary> = all_r
        .iter()
        .filter(|r| r.name.contains("DS-2") || r.name.contains("DS-4"))
        .collect();
    let veh: Vec<&&CampaignSummary> = all_r
        .iter()
        .filter(|r| r.name.contains("DS-1") || r.name.contains("DS-3"))
        .collect();
    let success = |rs: &[&&CampaignSummary]| -> f64 {
        let n: usize = rs.iter().map(|r| r.n_launched()).sum();
        let s: usize = rs
            .iter()
            .map(|r| {
                if r.name.contains("Move_In") {
                    r.eb().0
                } else {
                    r.crashes().0
                }
            })
            .sum();
        if n == 0 {
            0.0
        } else {
            100.0 * s as f64 / n as f64
        }
    };
    out.push_str(&format!(
        "\nSummary: EB {eb_total}/{total} ({:.1}%) [paper 75.2%] | crashes {crash_total}/{crash_n_runs} ({:.1}%) \
         [paper 52.6%] | pedestrian success {:.1}% [paper 84.1%] | vehicle success {:.1}% [paper 31.7%]\n",
        if total == 0 { 0.0 } else { 100.0 * eb_total as f64 / total as f64 },
        if crash_n_runs == 0 { 0.0 } else { 100.0 * crash_total as f64 / crash_n_runs as f64 },
        success(&ped),
        success(&veh),
    ));
    out
}

/// Renders Fig. 5: detector noise characterization vs the paper's fits.
pub fn render_fig5(fold: &Fig5Fold) -> String {
    let mut out = format!(
        "Fig. 5: YOLOv3-substitute characterization over {} frames\n\n",
        fold.frames
    );
    for (label, streaks, paper) in [
        (
            "(a) pedestrian misdetection streaks",
            &fold.streaks[0],
            "Exp(loc=1, λ=0.717), p99=31.0",
        ),
        (
            "(b) vehicle misdetection streaks",
            &fold.streaks[1],
            "Exp(loc=1, λ=0.327), p99=59.4",
        ),
    ] {
        match streaks {
            Some(StreakFold { fit, counts }) => {
                out.push_str(&format!(
                    "{label}: Exp(loc={:.1}, λ={:.3}), p99={:.1}, n={}  [paper: {paper}]\n",
                    fit.loc, fit.lambda, fit.p99, fit.n
                ));
                let top = counts.iter().rposition(|&n| n > 0).map_or(0, |i| i + 1);
                for (i, count) in counts[..top].iter().enumerate() {
                    let x = fit.loc + STREAK_BIN_FRAMES * i as f64;
                    let bar = "#".repeat(((*count as f64 + 1.0).log2().ceil() as usize).min(40));
                    out.push_str(&format!("  {:>5.0}+ | {:<40} {}\n", x, bar, count));
                }
            }
            None => out.push_str(&format!("{label}: insufficient data\n")),
        }
    }
    out.push('\n');
    for (label, error, paper) in [
        (
            "(c) vehicle Δx/width",
            &fold.errors[0],
            "Normal(0.023, 0.464)",
        ),
        (
            "(d) vehicle Δy/height",
            &fold.errors[1],
            "Normal(0.094, 0.586)",
        ),
        (
            "(e) pedestrian Δx/width",
            &fold.errors[2],
            "Normal(0.254, 2.010)",
        ),
        (
            "(f) pedestrian Δy/height",
            &fold.errors[3],
            "Normal(0.186, 0.409)",
        ),
    ] {
        match error {
            Some(fit) => out.push_str(&format!(
                "{label}: Normal(µ={:.3}, σ={:.3}), n={}  [paper: {paper}]\n",
                fit.mean, fit.std_dev, fit.n
            )),
            None => out.push_str(&format!("{label}: insufficient data\n")),
        }
    }
    out
}

/// Renders one Fig. 6 panel: min safety potential, R w/o SH vs R.
pub fn render_fig6_panel(
    label: &str,
    without_sh: &CampaignSummary,
    with_sh: &CampaignSummary,
    paper_medians: (f64, f64),
) -> String {
    let a = BoxSummary::of(&without_sh.min_deltas());
    let b = BoxSummary::of(&with_sh.min_deltas());
    let median = |s: &BoxSummary| {
        if s.n == 0 {
            "n/a".to_string()
        } else {
            format!("{:.0}", s.median)
        }
    };
    format!(
        "{label}\n  R w/o SH: {a}\n  R       : {b}\n  medians {} → {}  [paper: {:.0} → {:.0}; accident line δ = 4 m]\n",
        median(&a), median(&b), paper_medians.0, paper_medians.1
    )
}

/// Renders one Fig. 6 panel's EB and crash rates, R vs R w/o SH, with
/// their ratio — `n/a` when the w/o-SH rate is 0.
pub fn render_fig6_rates(without_sh: &CampaignSummary, with_sh: &CampaignSummary) -> String {
    let (eb_n, eb_w) = (with_sh.eb().1, without_sh.eb().1);
    let (cr_n, cr_w) = (with_sh.crashes().1, without_sh.crashes().1);
    let ratio = |n: f64, w: f64| {
        if w > 0.0 {
            format!("{:.1}", n / w)
        } else {
            "n/a".to_string()
        }
    };
    format!(
        "  EB: {eb_n:.1}% vs {eb_w:.1}% (×{}) | crashes: {cr_n:.1}% vs {cr_w:.1}% (×{})",
        ratio(eb_n, eb_w),
        ratio(cr_n, cr_w),
    )
}

/// Renders one Fig. 7 panel: K′ distributions per attack vector.
pub fn render_fig7_panel(label: &str, rows: &[(&str, Vec<f64>, f64)]) -> String {
    let mut out = format!("{label}\n");
    for (vector, values, paper_median) in rows {
        let summary = BoxSummary::of(values);
        out.push_str(&format!(
            "  {:<10}: {summary}  [paper median {paper_median:.0}]\n",
            vector
        ));
    }
    out
}

/// Renders Fig. 8 (a): success probability vs binned NN prediction error.
pub fn render_fig8a(bins: &[(f64, f64, usize)]) -> String {
    let mut out = String::from(
        "Fig. 8(a): attack success probability vs NN prediction error (binned)\n\
         err bin ≤ | success prob | n\n",
    );
    for (upper, prob, n) in bins {
        let bar = "#".repeat((prob * 30.0) as usize);
        out.push_str(&format!(
            "  {:>6.2} m | {:>6.2} {:<30} | {}\n",
            upper, prob, bar, n
        ));
    }
    out.push_str("[paper: success probability decreases as prediction error grows]\n");
    out
}

/// Renders Fig. 8 (b): predicted vs ground-truth δ after k attack frames.
pub fn render_fig8b(rows: &[(u32, f64, f64)], delta0: f64) -> String {
    let mut out = format!(
        "Fig. 8(b): DS-1 Move_Out — NN-predicted (•) vs ground-truth (×) δ after k frames (δ0 ≈ {delta0:.0} m)\n\
         k    | predicted δ | ground-truth δ\n"
    );
    for (k, predicted, actual) in rows {
        out.push_str(&format!(
            "  {:>3} | {:>10.1} | {:>10.1}\n",
            k, predicted, actual
        ));
    }
    out.push_str(
        "[paper: prediction within ~5 m (vehicles) / ~1.5 m (pedestrians) of ground truth]\n",
    );
    out
}

/// Renders the merged per-stage latency table of a metrics-collecting
/// campaign — `None` when the campaign was run without
/// [`crate::campaign::Campaign::with_metrics`]. The counters come from every
/// worker thread's registry folded together, so the table covers the whole
/// campaign regardless of how the runs were sharded.
pub fn render_stage_latency(result: &CampaignResult) -> Option<String> {
    result.metrics.as_ref().map(|m| m.render_latency_table())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Campaign;
    use crate::runner::AttackerSpec;
    use av_simkit::scenario::ScenarioId;

    fn empty_result(name: &str) -> CampaignResult {
        let campaign = Campaign::new(name, ScenarioId::Ds1, AttackerSpec::None, 0, 0);
        crate::campaign::run_campaign_with_threads(&campaign, 1).expect("one thread is valid")
    }

    fn empty_summary(name: &str) -> CampaignSummary {
        empty_result(name).summary()
    }

    #[test]
    fn stage_latency_requires_metrics_collection() {
        assert!(render_stage_latency(&empty_result("plain")).is_none());
        let campaign =
            Campaign::new("timed", ScenarioId::Ds1, AttackerSpec::None, 1, 0).with_metrics();
        let result = crate::campaign::run_campaign_with_threads(&campaign, 1).unwrap();
        let table = render_stage_latency(&result).expect("metrics collected");
        assert!(table.contains("scheduler_advance"));
        assert!(table.contains("planner_tick"));
    }

    #[test]
    fn table1_renders() {
        let t = render_table1();
        assert!(t.contains("Move_In"));
        assert!(t.contains("Moving In"));
    }

    #[test]
    fn table2_renders_with_empty_campaigns() {
        let row = (
            empty_summary("DS-1-Move_Out-R"),
            Table2Reference {
                k: "65",
                eb_pct: "37.3%",
                crash_pct: "17.3%",
            },
            true,
        );
        let baseline = empty_summary("DS-5-Baseline-Random");
        let t = render_table2(&[row], &baseline);
        assert!(t.contains("DS-1-Move_Out-R"));
        assert!(t.contains("paper 75.2%"));
    }

    #[test]
    fn empty_data_renders_n_a_not_nan() {
        let reference = Table2Reference {
            k: "24",
            eb_pct: "78.5%",
            crash_pct: "—",
        };
        let row = table2_row(&empty_summary("DS-4-Move_In-R"), &reference, false);
        assert!(
            row.starts_with("DS-4-Move_In-R         |   n/a |     0 |"),
            "{row}"
        );
        let a = empty_summary("a");
        let b = empty_summary("b");
        let panel = render_fig6_panel("(a)", &a, &b, (19.0, 9.0));
        assert!(panel.contains("R w/o SH: min n/a | q1 n/a"), "{panel}");
        assert!(panel.contains("medians n/a → n/a"), "{panel}");
        assert_eq!(
            render_fig6_rates(&a, &b),
            "  EB: 0.0% vs 0.0% (×n/a) | crashes: 0.0% vs 0.0% (×n/a)"
        );
        let f7 = render_fig7_panel("(b)", &[("Move_In", vec![], 3.0)]);
        assert!(f7.contains("max n/a (n=0)"), "{f7}");
        for text in [row, panel, f7] {
            assert!(!text.contains("NaN"), "{text}");
        }
    }

    #[test]
    fn fig6_rates_divide_by_the_without_sh_rate() {
        let mut with_sh = empty_summary("R");
        let mut without_sh = empty_summary("R w/o SH");
        let run = |eb, accident| crate::campaign::RunSummary {
            launched: true,
            k: 30,
            predicted_delta: None,
            eb,
            accident,
            min_delta_post_attack: None,
            min_delta_attack_window: None,
            k_prime_ads: None,
            replica_divergence: None,
            frames_lost: 0,
            stale_frames: 0,
            alarms: crate::campaign::AlarmCounts::default(),
            alarms_in_attack: crate::campaign::AlarmCounts::default(),
        };
        with_sh.runs = vec![run(true, true), run(true, false)];
        without_sh.runs = vec![run(true, false), run(false, false)];
        assert_eq!(
            render_fig6_rates(&without_sh, &with_sh),
            "  EB: 100.0% vs 50.0% (×2.0) | crashes: 50.0% vs 0.0% (×n/a)"
        );
    }

    #[test]
    fn fig_renderers_handle_empty_data() {
        let c = crate::characterize::DetectorCharacterization::default();
        assert!(render_fig5(&Fig5Fold::of(&c)).contains("insufficient data"));
        let a = empty_summary("a");
        let b = empty_summary("b");
        let panel = render_fig6_panel("DS-1-Disappear", &a, &b, (19.0, 9.0));
        assert!(panel.contains("R w/o SH"));
        let f7 = render_fig7_panel("on Vehicle", &[("Move_Out", vec![], 6.0)]);
        assert!(f7.contains("Move_Out"));
        assert!(render_fig8a(&[(1.0, 0.5, 10)]).contains("success"));
        assert!(render_fig8b(&[(10, 30.0, 29.0)], 41.0).contains("ground-truth"));
    }
}
