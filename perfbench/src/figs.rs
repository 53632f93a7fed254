//! The `figs` mode: every figure of the paper's evaluation, computed the
//! way `figs_all --store DIR` computes it, with the figure text written
//! to `--out` byte-for-byte as `figs_all` prints it.

use crate::{Args, Report, Tracer};
use restore_bench::{arch_table, coverage_summary, uarch_table, FIG2_LATENCIES, FIG46_INTERVALS};
use restore_core::fit::{figure8_sizes, FitScaling, MTBF_GOAL_FIT};
use restore_inject::{
    arch_campaign_digest, run_arch_campaign_io, run_uarch_campaign_io, uarch_campaign_digest,
    ArchCampaignConfig, CampaignStats, CfvMode, InjectionTarget, PruneMode, Shard, TrialCache,
    UarchCampaignConfig,
};
use restore_perf::{profile_all, PerfModel, Policy, FIGURE7_INTERVALS};
use restore_uarch::UarchConfig;
use std::fmt::Write as _;
use std::path::Path;

/// Paper values beside the headline percentages `figs_all` prints
/// (`~7-8%` is taken at its midpoint).
const PAPER_PCT: [(&str, f64); 6] = [
    ("latch_coverage", 75.0),
    ("failure_fraction", 7.5),
    ("perfect_cfv_coverage", 50.0),
    ("restore_residual", 3.5),
    ("lhf_failure_fraction", 3.0),
    ("lhf_restore_residual", 1.0),
];

fn record(report: &mut Report, name: &str, s: &CampaignStats, per_unit: u64) {
    let planned = s.cycles_simulated + s.cycles_saved + s.cycles_pruned + s.cycles_cached;
    let p = |field: &str| format!("inject.{name}.{field}");
    report.value(p("wall_s"), s.wall_secs);
    report.value(p("golden_s"), s.golden_secs);
    report.value(p("trial_s"), s.trial_secs);
    report.value(p("produce_s"), s.produce_secs);
    report.value(p("sweep_s"), s.sweep_secs);
    report.value(p("sim_frac"), s.cycles_simulated as f64 / planned.max(1) as f64);
    report.value(p("trials"), s.trials as f64);
    report.value(p("trials_planned"), (s.units * per_unit) as f64);
    report.value(p("trials_cut"), s.trials_cut as f64);
    report.value(p("trials_pruned"), s.trials_pruned as f64);
    report.value(p("shadow_runs"), s.shadow_runs as f64);
    report.value(p("trials_cached"), s.trials_cached as f64);
    report.value(p("cycles_simulated"), s.cycles_simulated as f64);
}

fn check_store_state(dir: &Path, expect: &str, report: &mut Report) -> Result<(), String> {
    let entries = crate::dir_entries(dir)?;
    let (name, ok) = match expect {
        "empty" => ("store_empty_at_start", entries == 0),
        "filled" => ("store_filled_at_start", entries > 0),
        other => return Err(format!("--expect: `{other}` is not empty|filled")),
    };
    report.check(name, ok, format!("{entries} entries"));
    Ok(())
}

pub fn run(args: &Args, tr: &mut Tracer, report: &mut Report) -> Result<(), String> {
    // Cold means cold: no golden checkpoint library may exist before the
    // first campaign of this process.
    let libs = restore_snapshot::cached_libraries();
    report.check("memos_empty_at_start", libs == 0, format!("{libs} cached libraries"));
    let store = args.path("store")?;
    check_store_state(&store, args.str("expect").unwrap_or("empty"), report)?;

    let seed = args.num("seed", 0)?;
    let threads = args.num("threads", 0)? as usize;
    let prune = match args.str("prune").unwrap_or("off") {
        "off" => PruneMode::Off,
        "on" => PruneMode::On,
        other => return Err(format!("--prune: `{other}` is not off|on")),
    };
    let ucfg = UarchCampaignConfig {
        points_per_workload: args.num("points", 10)? as usize,
        trials_per_point: args.num("trials", 16)? as usize,
        seed,
        threads,
        prune,
        map_dir: Some(store.clone()),
        ..UarchCampaignConfig::default()
    };

    if args.switch("--fig4-only") {
        let cache = tr
            .span("store.open", |_| TrialCache::open(&store, "all", uarch_campaign_digest(&ucfg)));
        let cache = cache.map_err(|e| format!("store: {e}"))?;
        let (_, s) =
            tr.span("inject.fig4", |_| run_uarch_campaign_io(&ucfg, Some(&cache), Shard::ALL));
        record(report, "fig4", &s, ucfg.trials_per_point as u64);
        return Ok(());
    }

    let acfg = ArchCampaignConfig {
        trials_per_workload: args.num("arch-trials", 200)? as usize,
        seed,
        threads,
        prune,
        map_dir: Some(store.clone()),
        low32: false,
        ..ArchCampaignConfig::default()
    };
    let text = tr.span("bench.figs_all", |tr| figures(&acfg, &ucfg, &store, tr, report))?;
    tr.span("bench.write", |_| {
        std::fs::write(args.path("out")?, &text).map_err(|e| e.to_string())
    })?;
    Ok(())
}

/// Campaigns, figure text and headline numbers, in `figs_all`'s order.
fn figures(
    acfg: &ArchCampaignConfig,
    ucfg: &UarchCampaignConfig,
    store: &Path,
    tr: &mut Tracer,
    report: &mut Report,
) -> Result<String, String> {
    let mut out = String::new();
    let arch = |cfg: &ArchCampaignConfig, name: &'static str, tr: &mut Tracer| {
        let cache =
            tr.span("store.open", |_| TrialCache::open(store, "all", arch_campaign_digest(cfg)));
        let cache = cache.map_err(|e| format!("store: {e}"))?;
        Ok::<_, String>(tr.span(name, |_| run_arch_campaign_io(cfg, Some(&cache), Shard::ALL)))
    };
    let uarch = |cfg: &UarchCampaignConfig, name: &'static str, tr: &mut Tracer| {
        let cache =
            tr.span("store.open", |_| TrialCache::open(store, "all", uarch_campaign_digest(cfg)));
        let cache = cache.map_err(|e| format!("store: {e}"))?;
        Ok::<_, String>(tr.span(name, |_| run_uarch_campaign_io(cfg, Some(&cache), Shard::ALL)))
    };

    // ---------------- Figure 2 ----------------
    let (arch_trials, s) = arch(acfg, "inject.fig2", tr)?;
    record(report, "fig2", &s, 1);
    let mut trials = s.trials;
    tr.span("bench.render", |_| {
        let _ = writeln!(
            out,
            "==== Figure 2 — virtual machine fault injection ({} trials) ====",
            arch_trials.len()
        );
        let _ = writeln!(out, "{}", arch_table(&arch_trials, &FIG2_LATENCIES));
    });

    let low32 = ArchCampaignConfig { low32: true, ..acfg.clone() };
    let (low32_trials, s) = arch(&low32, "inject.fig2_low32", tr)?;
    record(report, "fig2_low32", &s, 1);
    trials += s.trials;
    tr.span("bench.render", |_| {
        let _ = writeln!(out, "==== Figure 2 variant — low-32-bit flips (§3.1) ====");
        let _ = writeln!(out, "{}", arch_table(&low32_trials, &FIG2_LATENCIES));
    });

    // ---------------- Shared µarch campaign ----------------
    let (utrials, s) = uarch(ucfg, "inject.fig4", tr)?;
    record(report, "fig4", &s, ucfg.trials_per_point as u64);
    trials += s.trials;
    let latch_cfg = UarchCampaignConfig { target: InjectionTarget::LatchesOnly, ..ucfg.clone() };
    let (latch_trials, s) = uarch(&latch_cfg, "inject.latch", tr)?;
    record(report, "latch", &s, ucfg.trials_per_point as u64);
    trials += s.trials;
    report.value("bench.trials", trials as f64);

    let headline = tr.span("bench.render", |_| {
        let _ = writeln!(
            out,
            "==== Figure 4 — µarch injection, all state, perfect cfv ({} trials) ====",
            utrials.len()
        );
        let _ =
            writeln!(out, "{}", uarch_table(&utrials, &FIG46_INTERVALS, CfvMode::Perfect, false));
        let _ = writeln!(
            out,
            "==== §5.1.2 — latches only, perfect cfv ({} trials) ====",
            latch_trials.len()
        );
        let _ = writeln!(
            out,
            "{}",
            uarch_table(&latch_trials, &FIG46_INTERVALS, CfvMode::Perfect, false)
        );
        let l = coverage_summary(&latch_trials, 100, CfvMode::Perfect, false);
        let _ = writeln!(
            out,
            "latch-only coverage of failures @100: {:.1}%  (paper: ~75%)\n",
            100.0 * l.coverage_of_failures
        );
        let _ = writeln!(out, "==== Figure 5 — ReStore (JRS-confidence cfv) ====");
        let _ = writeln!(
            out,
            "{}",
            uarch_table(&utrials, &FIG46_INTERVALS, CfvMode::HighConfidence, false)
        );
        let _ = writeln!(out, "==== Figure 6 — hardened pipeline + ReStore ====");
        let _ = writeln!(
            out,
            "{}",
            uarch_table(&utrials, &FIG46_INTERVALS, CfvMode::HighConfidence, true)
        );

        let base100 = coverage_summary(&utrials, 100, CfvMode::Perfect, false);
        let jrs100 = coverage_summary(&utrials, 100, CfvMode::HighConfidence, false);
        let hard100 = coverage_summary(&utrials, 100, CfvMode::HighConfidence, true);
        let _ = writeln!(out, "headline @100-instruction interval:");
        let _ = writeln!(
            out,
            "  failure fraction          {:.2}% ±{:.2}%  (paper ~7-8%)",
            100.0 * base100.failure_fraction,
            100.0 * base100.ci95
        );
        let _ = writeln!(
            out,
            "  perfect-cfv coverage      {:.1}%  (paper ~50%)",
            100.0 * base100.coverage_of_failures
        );
        let _ = writeln!(
            out,
            "  ReStore residual          {:.2}%  (paper ~3.5%)",
            100.0 * jrs100.residual_failure_fraction
        );
        let _ = writeln!(
            out,
            "  lhf failure fraction      {:.2}%  (paper ~3%)",
            100.0 * hard100.failure_fraction
        );
        let _ = writeln!(
            out,
            "  lhf+ReStore residual      {:.2}%  (paper ~1%)",
            100.0 * hard100.residual_failure_fraction
        );
        let _ = writeln!(
            out,
            "  MTBF improvement          {:.1}x  (paper ~7x)\n",
            base100.failure_fraction / hard100.residual_failure_fraction.max(1e-9)
        );
        let measured = [
            l.coverage_of_failures,
            base100.failure_fraction,
            base100.coverage_of_failures,
            jrs100.residual_failure_fraction,
            hard100.failure_fraction,
            hard100.residual_failure_fraction,
        ];
        (measured, base100, jrs100, hard100)
    });
    let (measured, base100, jrs100, hard100) = headline;
    let gap: f64 =
        measured.iter().zip(PAPER_PCT).map(|(m, (_, paper))| (100.0 * m - paper).abs()).sum();
    report.value("bench.paper_err_pp", gap / PAPER_PCT.len() as f64);

    // ---------------- Figure 7 ----------------
    let profiles =
        tr.span("perf.profile_all", |_| profile_all(ucfg.scale, &UarchConfig::default(), 150_000));
    tr.span("bench.render", |_| {
        let model = PerfModel::default();
        let _ = writeln!(out, "==== Figure 7 — performance impact of false positives ====");
        let _ = writeln!(out, "{:<10}{:>10}{:>10}", "interval", "imm", "delayed");
        for &i in &FIGURE7_INTERVALS {
            let _ = writeln!(
                out,
                "{i:<10}{:>10.3}{:>10.3}",
                model.mean_speedup(&profiles, i, Policy::Immediate),
                model.mean_speedup(&profiles, i, Policy::Delayed)
            );
        }
        let _ = writeln!(out);

        // ---------------- Figure 8 ----------------
        let scaling = FitScaling::new(
            base100.failure_fraction.max(1e-4),
            jrs100.residual_failure_fraction.max(1e-4),
            hard100.failure_fraction.max(1e-4),
            hard100.residual_failure_fraction.max(1e-4),
        );
        let _ = writeln!(
            out,
            "==== Figure 8 — FIT vs design size (measured fractions; goal {MTBF_GOAL_FIT:.0} FIT) ===="
        );
        let _ = writeln!(
            out,
            "{:<12}{:>12}{:>12}{:>12}{:>14}",
            "bits", "baseline", "ReStore", "lhf", "lhf+ReStore"
        );
        for (bits, base, restore, lhf, both) in scaling.series(&figure8_sizes()) {
            let _ =
                writeln!(out, "{:<12.0}{:>12.1}{:>12.1}{:>12.1}{:>14.1}", bits, base, restore, lhf, both);
        }
        let _ = writeln!(out, "MTBF improvement: {:.1}x  (paper ~7x)", scaling.mtbf_improvement());
    });
    Ok(out)
}
