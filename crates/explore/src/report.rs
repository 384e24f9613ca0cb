//! Reports: the `matic-explore-v1` JSON document, the terminal rendering,
//! and a structural validator for both (used by CI and the repro binary
//! to check emitted documents without trusting the emitter).

use crate::pareto::pareto_frontier;
use crate::runner::{BenchExploration, CandidatePoint, Exploration, SuitePoint};
use crate::util::render_table;
use matic_isa::json::{parse, Json};

/// Schema identifier stamped into every exploration document.
pub const EXPLORE_SCHEMA: &str = "matic-explore-v1";

fn point_json(p: &CandidatePoint) -> Json {
    Json::Obj(vec![
        ("name".into(), Json::Str(p.name.clone())),
        ("width".into(), Json::Num(p.width as f64)),
        ("simd".into(), Json::Bool(p.features.simd)),
        ("complex".into(), Json::Bool(p.features.complex)),
        ("mac".into(), Json::Bool(p.features.mac)),
        ("cost_scale".into(), Json::Num(p.cost_scale)),
        ("area".into(), Json::Num(p.area)),
        ("cycles".into(), Json::Num(p.cycles as f64)),
        ("instructions".into(), Json::Num(p.instructions as f64)),
        ("vector_cycles".into(), Json::Num(p.vector_cycles as f64)),
        ("complex_cycles".into(), Json::Num(p.complex_cycles as f64)),
        ("on_frontier".into(), Json::Bool(p.on_frontier)),
    ])
}

fn bench_json(b: &BenchExploration) -> Json {
    let best = b.points.iter().find(|p| p.name == b.best);
    let mut best_fields = vec![("name".into(), Json::Str(b.best.clone()))];
    if let Some(p) = best {
        best_fields.push(("cycles".into(), Json::Num(p.cycles as f64)));
        best_fields.push(("area".into(), Json::Num(p.area)));
    }
    if let Some(s) = b.best_speedup {
        best_fields.push(("speedup_vs_scalar".into(), Json::Num(s)));
    }
    let mut fields = vec![
        ("bench".into(), Json::Str(b.bench.clone())),
        ("entry".into(), Json::Str(b.entry.clone())),
        ("n".into(), Json::Num(b.n as f64)),
    ];
    if let Some(s) = b.scalar_cycles {
        fields.push(("scalar_cycles".into(), Json::Num(s as f64)));
    }
    fields.push(("best".into(), Json::Obj(best_fields)));
    if let Some(why) = &b.why {
        let mut why_fields = vec![
            ("line".into(), Json::Num(why.line as f64)),
            ("source".into(), Json::Str(why.source.clone())),
            ("fraction".into(), Json::Num(why.fraction)),
            ("top_class".into(), Json::Str(why.top_class.clone())),
        ];
        if let Some(u) = why.lane_utilization {
            why_fields.push(("lane_utilization".into(), Json::Num(u)));
        }
        fields.push(("why".into(), Json::Obj(why_fields)));
    }
    fields.push((
        "frontier".into(),
        Json::Arr(b.frontier.iter().map(|n| Json::Str(n.clone())).collect()),
    ));
    fields.push((
        "candidates".into(),
        Json::Arr(b.points.iter().map(point_json).collect()),
    ));
    Json::Obj(fields)
}

fn suite_json(suite: &[SuitePoint], frontier: &[String]) -> Json {
    Json::Obj(vec![
        (
            "frontier".into(),
            Json::Arr(frontier.iter().map(|n| Json::Str(n.clone())).collect()),
        ),
        (
            "candidates".into(),
            Json::Arr(
                suite
                    .iter()
                    .map(|p| {
                        Json::Obj(vec![
                            ("name".into(), Json::Str(p.name.clone())),
                            ("area".into(), Json::Num(p.area)),
                            ("geomean_cycles".into(), Json::Num(p.geomean_cycles)),
                            ("on_frontier".into(), Json::Bool(p.on_frontier)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

impl Exploration {
    /// The stable `matic-explore-v1` JSON document.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::Str(EXPLORE_SCHEMA.into())),
            ("generated_by".into(), Json::Str("matic-explore".into())),
            ("seed".into(), Json::Num(self.seed as f64)),
            ("fuel".into(), Json::Num(self.fuel as f64)),
            ("area_model".into(), self.area.to_json()),
            (
                "grid".into(),
                Json::Obj(vec![
                    (
                        "widths".into(),
                        Json::Arr(
                            self.grid
                                .widths
                                .iter()
                                .map(|&w| Json::Num(w as f64))
                                .collect(),
                        ),
                    ),
                    (
                        "cost_scales".into(),
                        Json::Arr(
                            self.grid
                                .cost_scales
                                .iter()
                                .map(|&s| Json::Num(s))
                                .collect(),
                        ),
                    ),
                    (
                        "candidates".into(),
                        Json::Arr(
                            self.candidates
                                .iter()
                                .map(|n| Json::Str(n.clone()))
                                .collect(),
                        ),
                    ),
                ]),
            ),
            (
                "benchmarks".into(),
                Json::Arr(self.benches.iter().map(bench_json).collect()),
            ),
            (
                "suite".into(),
                suite_json(&self.suite, &self.suite_frontier()),
            ),
        ])
    }

    /// The terminal report: per-benchmark frontier tables plus the
    /// suite-wide recommendation.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "design-space exploration: {} candidates x {} benchmark(s), seed {}\n",
            self.candidates.len(),
            self.benches.len(),
            self.seed
        ));
        for b in &self.benches {
            out.push('\n');
            out.push_str(&format!("== {} (n = {}) ==\n", b.bench, b.n));
            let rows: Vec<Vec<String>> = b
                .points
                .iter()
                .filter(|p| p.on_frontier)
                .map(|p| {
                    let speedup = b
                        .scalar_cycles
                        .map(|s| format!("{:.2}x", s as f64 / p.cycles.max(1) as f64))
                        .unwrap_or_else(|| "-".to_string());
                    let marker = if p.name == b.best { "best" } else { "" };
                    vec![
                        p.name.clone(),
                        format!("{:.2}", p.area),
                        p.cycles.to_string(),
                        speedup,
                        marker.to_string(),
                    ]
                })
                .collect();
            out.push_str(&render_table(
                &["frontier point", "area", "cycles", "vs scalar", ""],
                &rows,
            ));
            if let Some(why) = &b.why {
                let lanes = why
                    .lane_utilization
                    .map(|u| format!(", {:.0}% lane utilization", u * 100.0))
                    .unwrap_or_default();
                out.push_str(&format!(
                    "why {}: {:.0}% of cycles on line {} `{}` ({}{})\n",
                    b.best,
                    why.fraction * 100.0,
                    why.line,
                    why.source,
                    why.top_class,
                    lanes
                ));
            }
        }
        out.push_str("\n== suite (geomean over benchmarks) ==\n");
        let rows: Vec<Vec<String>> = self
            .suite
            .iter()
            .filter(|p| p.on_frontier)
            .map(|p| {
                vec![
                    p.name.clone(),
                    format!("{:.2}", p.area),
                    format!("{:.0}", p.geomean_cycles),
                ]
            })
            .collect();
        out.push_str(&render_table(
            &["frontier point", "area", "geomean cycles"],
            &rows,
        ));
        out
    }
}

/// What [`validate_explore_json`] distills out of a document.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreSummary {
    /// Number of benchmark sections.
    pub benchmarks: usize,
    /// Number of grid candidates.
    pub candidates: usize,
    /// Frontier size per benchmark, in document order.
    pub frontier_sizes: Vec<(String, usize)>,
    /// True when every benchmark that has accelerated candidates shows
    /// the pure `scalar` baseline strictly outperformed on cycles by at
    /// least one of them. (The scalar point can never be *Pareto*
    /// dominated — it has minimal area by construction — so "the paper's
    /// acceleration wins" is asserted on the cycle axis.)
    pub scalar_outperformed: bool,
}

fn get_arr<'j>(doc: &'j Json, key: &str) -> Result<&'j Vec<Json>, String> {
    match doc.get(key) {
        Some(Json::Arr(items)) => Ok(items),
        _ => Err(format!("missing array field `{key}`")),
    }
}

fn get_num(doc: &Json, key: &str) -> Result<f64, String> {
    doc.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing numeric field `{key}`"))
}

fn get_str<'j>(doc: &'j Json, key: &str) -> Result<&'j str, String> {
    doc.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing string field `{key}`"))
}

/// Structurally validates a `matic-explore-v1` document: schema tag,
/// required fields, per-benchmark candidate counts matching the grid,
/// frontier membership recomputed from the raw (area, cycles) points, and
/// the scalar-baseline comparison.
///
/// # Errors
///
/// Returns a message naming the first violated property.
pub fn validate_explore_json(text: &str) -> Result<ExploreSummary, String> {
    let doc = parse(text)?;
    let schema = get_str(&doc, "schema")?;
    if schema != EXPLORE_SCHEMA {
        return Err(format!("schema `{schema}`, expected `{EXPLORE_SCHEMA}`"));
    }
    get_num(&doc, "seed")?;
    if get_num(&doc, "fuel")? <= 0.0 {
        return Err("fuel must be positive".to_string());
    }
    crate::AreaModel::from_doc(doc.get("area_model").ok_or("missing `area_model`")?)
        .map_err(|e| format!("area_model: {e}"))?;

    let grid = doc.get("grid").ok_or("missing `grid`")?;
    let names: Vec<&str> = get_arr(grid, "candidates")?
        .iter()
        .map(|n| n.as_str().ok_or("grid candidate names must be strings"))
        .collect::<Result<_, _>>()?;
    if names.is_empty() {
        return Err("grid has no candidates".to_string());
    }

    let benches = get_arr(&doc, "benchmarks")?;
    if benches.is_empty() {
        return Err("document has no benchmarks".to_string());
    }
    let mut frontier_sizes = Vec::new();
    let mut scalar_outperformed = true;
    for bench in benches {
        let id = get_str(bench, "bench")?.to_string();
        let cands = get_arr(bench, "candidates")?;
        if cands.len() != names.len() {
            return Err(format!(
                "{id}: {} candidate points, grid lists {}",
                cands.len(),
                names.len()
            ));
        }
        let mut coords = Vec::with_capacity(cands.len());
        let mut flagged = Vec::new();
        let mut scalar_cycles = None;
        let mut best_accel: Option<f64> = None;
        for (c, name) in cands.iter().zip(&names) {
            if get_str(c, "name")? != *name {
                return Err(format!("{id}: candidate order differs from grid order"));
            }
            let area = get_num(c, "area")?;
            let cycles = get_num(c, "cycles")?;
            if !(area.is_finite() && area > 0.0 && cycles.is_finite() && cycles > 0.0) {
                return Err(format!("{id}/{name}: non-positive area or cycles"));
            }
            coords.push((area, cycles));
            let on_frontier = c
                .get("on_frontier")
                .and_then(Json::as_bool)
                .is_some_and(|b| b);
            if on_frontier {
                flagged.push((*name).to_string());
            }
            let accelerated = [("simd", c), ("complex", c), ("mac", c)]
                .iter()
                .any(|(k, c)| c.get(k).and_then(Json::as_bool).is_some_and(|b| b));
            if accelerated {
                best_accel = Some(best_accel.map_or(cycles, |b: f64| b.min(cycles)));
            } else {
                scalar_cycles = Some(cycles);
            }
        }
        // Recompute the frontier from the raw points; the document's
        // `on_frontier` flags must match exactly.
        let recomputed: std::collections::BTreeSet<String> = pareto_frontier(&coords)
            .into_iter()
            .map(|i| names[i].to_string())
            .collect();
        let flagged_set: std::collections::BTreeSet<String> = flagged.iter().cloned().collect();
        if recomputed != flagged_set {
            return Err(format!(
                "{id}: on_frontier flags disagree with recomputed frontier"
            ));
        }
        // The declared frontier list must name exactly the flagged points.
        let declared: std::collections::BTreeSet<String> = get_arr(bench, "frontier")?
            .iter()
            .map(|n| n.as_str().map(str::to_string).ok_or("frontier names"))
            .collect::<Result<_, _>>()?;
        if declared != flagged_set {
            return Err(format!("{id}: frontier list disagrees with flags"));
        }
        if let (Some(scalar), Some(accel)) = (scalar_cycles, best_accel) {
            if accel >= scalar {
                scalar_outperformed = false;
            }
        }
        frontier_sizes.push((id, flagged.len()));
    }

    let suite = doc.get("suite").ok_or("missing `suite`")?;
    if get_arr(suite, "candidates")?.len() != names.len() {
        return Err("suite candidate count disagrees with grid".to_string());
    }
    Ok(ExploreSummary {
        benchmarks: benches.len(),
        candidates: names.len(),
        frontier_sizes,
        scalar_outperformed,
    })
}

/// Rebuilds an [`ExploreConfig`] from a previous `matic-explore-v1`
/// document, so `matic explore --resume frontier.json` re-runs (and can
/// then extend) an earlier sweep instead of starting cold.
///
/// Everything that shaped the sweep is recovered from the document: seed,
/// fuel, area model, the grid's width and cost-scale axes, the benchmark
/// list (in document order), and the problem-size override (`--n`). The
/// feature-subset axis is not serialized directly, so it is reconstructed
/// from the per-benchmark candidate points' feature flags — exact, since
/// every enumerated subset contributes at least one candidate. Re-running
/// the resumed config reproduces the document bit for bit (pinned by the
/// round-trip test).
///
/// # Errors
///
/// Describes the missing/malformed field, a schema mismatch, or a
/// document whose benchmarks used mixed non-default problem sizes (those
/// cannot be expressed by the single `n` override).
pub fn resume_config(text: &str) -> Result<crate::runner::ExploreConfig, String> {
    use crate::runner::{default_n, ExploreConfig};
    let doc = parse(text).map_err(|e| format!("unparsable resume document: {e}"))?;
    let schema = get_str(&doc, "schema")?;
    if schema != EXPLORE_SCHEMA {
        return Err(format!("schema `{schema}`, expected `{EXPLORE_SCHEMA}`"));
    }
    let seed = get_num(&doc, "seed")? as u64;
    let fuel = get_num(&doc, "fuel")?;
    if fuel <= 0.0 {
        return Err("fuel must be positive".to_string());
    }
    let area = crate::AreaModel::from_doc(doc.get("area_model").ok_or("missing `area_model`")?)
        .map_err(|e| format!("area_model: {e}"))?;

    let grid = doc.get("grid").ok_or("missing `grid`")?;
    let nums = |key: &str| -> Result<Vec<f64>, String> {
        get_arr(grid, key)?
            .iter()
            .map(|v| {
                v.as_f64()
                    .ok_or_else(|| format!("grid `{key}` entries must be numbers"))
            })
            .collect()
    };
    let widths: Vec<usize> = nums("widths")?.iter().map(|&w| w as usize).collect();
    let cost_scales = nums("cost_scales")?;

    // Reconstruct the feature-subset axis from the candidate points'
    // flags (kept in the canonical `Features::subsets()` order so
    // re-enumeration walks the grid identically).
    let benches = get_arr(&doc, "benchmarks")?;
    if benches.is_empty() {
        return Err("document has no benchmarks".to_string());
    }
    let mut seen = std::collections::BTreeSet::new();
    for bench in benches {
        for cand in get_arr(bench, "candidates")? {
            let flag = |key: &str| -> Result<bool, String> {
                cand.get(key)
                    .and_then(Json::as_bool)
                    .ok_or_else(|| format!("candidate missing bool field `{key}`"))
            };
            seen.insert((flag("simd")?, flag("complex")?, flag("mac")?));
        }
    }
    let feature_sets: Vec<matic_isa::Features> = matic_isa::Features::subsets()
        .into_iter()
        .filter(|f| seen.contains(&(f.simd, f.complex, f.mac)))
        .collect();
    if feature_sets.is_empty() {
        return Err("no feature subsets recoverable from candidates".to_string());
    }

    let mut bench_ids = Vec::new();
    let mut n_override: Option<usize> = None;
    let mut all_default = true;
    let mut uniform: Option<usize> = None;
    let mut mixed = false;
    for bench in benches {
        let id = get_str(bench, "bench")?.to_string();
        let n = get_num(bench, "n")? as usize;
        if n != default_n(&id) {
            all_default = false;
        }
        match uniform {
            None => uniform = Some(n),
            Some(u) if u != n => mixed = true,
            _ => {}
        }
        bench_ids.push(id);
    }
    if !all_default {
        if mixed {
            return Err("benchmarks used mixed non-default problem sizes; \
                 cannot express them as one --n override"
                .to_string());
        }
        n_override = uniform;
    }

    let cfg = ExploreConfig {
        bench_ids,
        n: n_override,
        seed,
        fuel: fuel as u64,
        grid: crate::GridConfig {
            widths,
            feature_sets,
            cost_scales,
        },
        area,
        ..ExploreConfig::default()
    };
    cfg.grid
        .validate()
        .map_err(|e| format!("resumed grid: {e}"))?;
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{explore, ExploreConfig};
    use crate::GridConfig;

    fn tiny() -> Exploration {
        let cfg = ExploreConfig {
            bench_ids: vec!["fir".to_string()],
            grid: GridConfig::quick(),
            n: Some(64),
            ..ExploreConfig::default()
        };
        explore(&cfg).unwrap()
    }

    #[test]
    fn emitted_document_validates() {
        let result = tiny();
        let text = result.to_json().pretty();
        let summary = validate_explore_json(&text).expect("document validates");
        assert_eq!(summary.benchmarks, 1);
        assert_eq!(summary.candidates, result.candidates.len());
        assert!(summary.scalar_outperformed, "fir accelerates");
        assert_eq!(summary.frontier_sizes[0].0, "fir");
        assert!(summary.frontier_sizes[0].1 >= 1);
    }

    #[test]
    fn tampered_documents_are_rejected() {
        let text = tiny().to_json().pretty();
        assert!(validate_explore_json(&text.replace(EXPLORE_SCHEMA, "bogus")).is_err());
        // Flip a frontier flag: recomputation catches it.
        let flipped = text.replacen("\"on_frontier\": true", "\"on_frontier\": false", 1);
        assert_ne!(flipped, text, "document has a frontier point");
        let err = validate_explore_json(&flipped).unwrap_err();
        assert!(err.contains("frontier"), "{err}");
        assert!(validate_explore_json("{}").is_err());
        assert!(validate_explore_json("not json").is_err());
    }

    #[test]
    fn text_report_names_frontier_and_why() {
        let result = tiny();
        let text = result.render_text();
        assert!(text.contains("== fir"), "{text}");
        assert!(text.contains("suite"), "{text}");
        assert!(text.contains("why "), "{text}");
        for name in &result.benches[0].frontier {
            assert!(text.contains(name.as_str()), "missing {name}");
        }
    }
}
