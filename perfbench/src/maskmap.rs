//! The `maskmap` mode: masking-interval maps for the seven programs and
//! their AVF report — the `restore-maskmap --avf --map-dir DIR` path.
//!
//! `--phase build` starts from an empty map directory, builds every
//! map, persists it, and counts the (domain, program) map files that
//! did not land. `--phase load` runs in a fresh process against the filled
//! directory. Both phases write the AVF report to `--out` and answer
//! the same seeded `proves` queries, so the caller can compare them.
//!
//! Untraced, maps come from the registry loaders (`uarch_map`,
//! `arch_map`), exactly as the CLI gets them. Traced, the same work is
//! spelled out through the public pieces (`build`, `to_json`,
//! `from_json`) so build, persist and load each get their own span.

use crate::{Args, Report, Rng, Tracer};
use restore_isa::Program;
use restore_maskmap::{
    arch_map, arch_map_digest, map_path, uarch_map, uarch_map_digest, ArchMaskMap, AvfRow,
    UarchMaskMap,
};
use restore_store::Json;
use restore_uarch::{Pipeline, UarchConfig};
use restore_workloads::{Scale, WorkloadId};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

struct Geometry {
    scale: Scale,
    uarch: UarchConfig,
    warmup: u64,
    window: u64,
}

impl Geometry {
    /// Mirrors the campaigns and the CLI: plans span warmup + 4x
    /// window, plus one observation window past the last point.
    fn horizon(&self) -> u64 {
        self.warmup + 5 * self.window
    }
}

fn persist(path: &Path, v: &Json) -> Result<(), String> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, v.render()).map_err(|e| format!("{}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("{}: {e}", path.display()))
}

fn read(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One program's maps, traced: each public piece in its own span.
fn traced_maps(
    g: &Geometry,
    id: WorkloadId,
    program: &Program,
    dir: &Path,
    load: bool,
    tr: &mut Tracer,
) -> Result<(Arc<UarchMaskMap>, Arc<ArchMaskMap>), String> {
    let udigest = uarch_map_digest(g.scale, &g.uarch, g.horizon());
    let adigest = arch_map_digest(g.scale);
    let upath = map_path(dir, "uarch", id, udigest);
    let apath = map_path(dir, "arch", id, adigest);
    if load {
        let u = tr.span("maskmap.load", |_| {
            UarchMaskMap::from_json(&read(&upath)?, &g.uarch, program, udigest)
                .ok_or_else(|| format!("{}: not a map for this digest", upath.display()))
        })?;
        let a = tr.span("maskmap.load", |_| {
            ArchMaskMap::from_json(&read(&apath)?, adigest)
                .ok_or_else(|| format!("{}: not a map for this digest", apath.display()))
        })?;
        return Ok((Arc::new(u), Arc::new(a)));
    }
    let u = tr.span("maskmap.uarch_build", |_| {
        UarchMaskMap::build(&g.uarch, program, g.horizon(), udigest)
    });
    tr.span("maskmap.persist", |_| persist(&upath, &u.to_json()))?;
    let a = tr.span("maskmap.arch_build", |_| ArchMaskMap::build(program, adigest));
    tr.span("maskmap.persist", |_| persist(&apath, &a.to_json()))?;
    Ok((Arc::new(u), Arc::new(a)))
}

fn render_rows(out: &mut String, id: WorkloadId, span: u64, rows: &[AvfRow]) {
    let _ = writeln!(out, "{} (span {} cycles)", id.name(), span);
    let _ = writeln!(
        out,
        "  {:<16} {:>8} {:>14} {:>14} {:>7}",
        "region", "bits", "dead bc", "masked bc", "AVF"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "  {:<16} {:>8} {:>14} {:>14} {:>6.1}%",
            r.name,
            r.bits,
            r.dead_bitcycles,
            r.masked_bitcycles,
            r.avf() * 100.0
        );
    }
}

pub fn run(args: &Args, tr: &mut Tracer, report: &mut Report) -> Result<(), String> {
    let g = Geometry {
        scale: Scale::campaign(),
        uarch: UarchConfig::default(),
        warmup: args.num("warmup", 2_000)?,
        window: args.num("window", 2_000)?,
    };
    let dir = args.path("map-dir")?;
    let load = match args.str("phase")? {
        "build" => false,
        "load" => true,
        other => return Err(format!("--phase: `{other}` is not build|load")),
    };
    let entries = crate::dir_entries(&dir)?;
    if load {
        report.check("map_dir_filled_at_start", entries > 0, format!("{entries} entries"));
    } else {
        report.check("map_dir_empty_at_start", entries == 0, format!("{entries} entries"));
    }

    let seed = args.num("seed", 0)?;
    let queries = args.num("queries", 20_000)?;
    let out = args.path("out")?;
    let text =
        tr.span("maskmap.avf_report", |tr| report_maps(&g, &dir, load, seed, queries, tr, report))?;
    std::fs::write(out, text).map_err(|e| e.to_string())
}

fn report_maps(
    g: &Geometry,
    dir: &Path,
    load: bool,
    seed: u64,
    queries: u64,
    tr: &mut Tracer,
    report: &mut Report,
) -> Result<String, String> {
    let mut rng = Rng::new(seed);
    let (mut answered, mut mapped) = (0u64, 0u64);
    let mut verdicts: u64 = 0xcbf2_9ce4_8422_2325;
    let mut proves_secs = 0.0;
    let mut text = String::new();
    for &id in &WorkloadId::ALL {
        let program = id.build(g.scale);
        let (umap, amap) = if tr.enabled() {
            traced_maps(g, id, &program, dir, load, tr)?
        } else {
            let u = uarch_map(id, g.scale, &g.uarch, g.horizon(), Some(dir));
            (u, arch_map(id, g.scale, Some(dir)))
        };
        mapped += umap.last_cycle();
        let (rows, total_bits) = tr.span("maskmap.avf", |_| {
            let catalog = Pipeline::new(g.uarch.clone(), &program).catalog();
            let mut rows = umap.avf(&catalog);
            rows.extend(amap.avf());
            (rows, catalog.total_bits)
        });
        render_rows(&mut text, id, umap.last_cycle(), &rows);

        // Seeded queries over the campaign's injection range, each with
        // the campaign's deadline (injection cycle + one window).
        let span = (4 * g.window).min(umap.last_cycle().saturating_sub(g.warmup + g.window)).max(1);
        let asks: Vec<(u64, u64)> =
            (0..queries).map(|_| (rng.below(total_bits), g.warmup + rng.below(span))).collect();
        let t0 = std::time::Instant::now();
        tr.span("maskmap.proves", |_| {
            for &(bit, cycle) in &asks {
                let v = umap.proves(bit, cycle, cycle + g.window);
                let code = match v {
                    None => 0,
                    Some(p) => 1 + u64::from(p.dead_at_injection) + 2 * u64::from(p.written),
                };
                answered += u64::from(v.is_some());
                verdicts = (verdicts ^ code).wrapping_mul(0x100_0000_01b3);
            }
        });
        proves_secs += t0.elapsed().as_secs_f64();
    }
    if !load {
        // One persisted file per (domain, program), named as the loaders
        // look them up.
        let udigest = uarch_map_digest(g.scale, &g.uarch, g.horizon());
        let adigest = arch_map_digest(g.scale);
        let missing = WorkloadId::ALL
            .iter()
            .flat_map(|&id| {
                [map_path(dir, "uarch", id, udigest), map_path(dir, "arch", id, adigest)]
            })
            .filter(|p| !p.is_file())
            .count();
        report.value("maskmap.files_missing", missing as f64);
    }
    report.value("maskmap.mapped_cycles", mapped as f64);
    report.value("maskmap.proves_ns", 1e9 * proves_secs / (queries * 7).max(1) as f64);
    report.value("maskmap.proves_answered", answered as f64);
    report.value("maskmap.proves_digest", (verdicts >> 12) as f64);
    Ok(text)
}
