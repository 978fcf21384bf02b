//! `nexus-bench compare A B`: reads the result files of two sets of runs
//! (each a directory of `run-*.json`, e.g. the parent commit's and a
//! change's) and prints one row per (workload, metric) with each side's
//! run count, median and quartiles, the change of the median, and a
//! better/same/worse/unresolved verdict under the metric's bound.
//!
//! Runs are grouped by workload and by whether they were traced: a traced
//! run's workload reads `<workload>/trace`. `--quick` runs measure toy
//! sizes and are left out. Untraced end-to-end metrics take their relative
//! bounds from `BENCHMARK.json` (read from the working directory), the
//! output-quality metrics their absolute bounds from
//! [`crate::report::QUALITY`]; per-layer metrics, and every metric of a
//! traced run, get no verdict. Exits 1 when any verdict is `worse`.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::process::ExitCode;

use crate::json::{self, Json};
use crate::report::QUALITY;
use crate::stats::{verdict, Better, Bound, Summary, Verdict};

/// Per (workload, traced, metric): the unit and one value per run.
type Runs = BTreeMap<(String, bool, String), (String, Vec<f64>)>;

pub fn main(args: &[String]) -> ExitCode {
    let [base, change] = args else {
        eprintln!("usage: nexus-bench compare DIR_A DIR_B");
        return ExitCode::from(2);
    };
    let loaded = load_bounds(Path::new("BENCHMARK.json")).and_then(|bounds| {
        Ok((
            bounds,
            load_runs(Path::new(base))?,
            load_runs(Path::new(change))?,
        ))
    });
    let (bounds, base, change) = match loaded {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("nexus-bench compare: {e}");
            return ExitCode::from(2);
        }
    };

    row([
        "workload",
        "metric",
        "unit",
        "nA",
        "A median [q1, q3]",
        "nB",
        "B median [q1, q3]",
        "change",
        "verdict",
    ]);
    let mut worse = false;
    // Bounded metrics first, then the per-layer ones.
    let mut keys: Vec<&(String, bool, String)> =
        base.keys().filter(|k| change.contains_key(*k)).collect();
    keys.sort_by_key(|(w, traced, m)| {
        (
            w.clone(),
            *traced,
            bounds.get(m).is_none_or(|(_, b)| b.is_none()),
            m.clone(),
        )
    });
    for key in keys {
        let (workload, traced, metric) = key;
        let (unit, a) = &base[key];
        let (_, b) = &change[key];
        let (Some(sa), Some(sb)) = (Summary::of(a), Summary::of(b)) else {
            continue;
        };
        let judged = judge(&bounds, key, a, b);
        worse |= judged == Some(Verdict::Worse);
        let change_pct = if sa.median != 0.0 {
            format!("{:+.1}%", 100.0 * (sb.median - sa.median) / sa.median.abs())
        } else {
            "-".to_string()
        };
        let group = if *traced {
            format!("{workload}/trace")
        } else {
            workload.clone()
        };
        row([
            &group,
            metric,
            unit,
            &a.len().to_string(),
            &spread(&sa),
            &b.len().to_string(),
            &spread(&sb),
            &change_pct,
            judged.map_or("-", Verdict::label),
        ]);
    }
    if worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// The verdict on one (workload, traced, metric) group, if it has a bound.
fn judge(bounds: &Bounds, key: &(String, bool, String), a: &[f64], b: &[f64]) -> Option<Verdict> {
    let (_, traced, metric) = key;
    if *traced {
        return None;
    }
    let &(better, bound) = bounds.get(metric)?;
    verdict(a, b, better, bound?)
}

fn row(c: [&str; 9]) {
    println!(
        "{:<17} {:<26} {:<8} {:>3} {:>30} {:>3} {:>30} {:>8}  {}",
        c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7], c[8]
    );
}

fn spread(s: &Summary) -> String {
    format!("{} [{}, {}]", short(s.median), short(s.q1), short(s.q3))
}

/// Four significant digits, in a form that stays short for counts and
/// microsecond-scale seconds alike.
fn short(v: f64) -> String {
    if v == 0.0 || (1e-3..1e6).contains(&v.abs()) {
        let digits = (3 - v.abs().log10().floor() as i32).clamp(0, 6) as usize;
        format!("{v:.digits$}")
    } else {
        format!("{v:.3e}")
    }
}

/// Direction and bound per metric name.
type Bounds = HashMap<String, (Better, Option<Bound>)>;

fn load_bounds(path: &Path) -> Result<Bounds, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text)?;
    let mut bounds = HashMap::new();
    for key in ["end_to_end", "per_layer"] {
        for entry in doc.get(key).and_then(Json::as_array).unwrap_or(&[]) {
            let name = entry.get("name").and_then(Json::as_str);
            let better = match entry.get("better").and_then(Json::as_str) {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                _ => return Err(format!("{key} entry {name:?} lacks better: lower|higher")),
            };
            let bound = entry
                .get("bound")
                .and_then(Json::as_f64)
                .map(Bound::Relative);
            let name = name.ok_or_else(|| format!("{key} entry without a name"))?;
            bounds.insert(name.to_string(), (better, bound));
        }
    }
    for &(name, amount, higher) in QUALITY {
        let better = if higher {
            Better::Higher
        } else {
            Better::Lower
        };
        bounds.insert(name.to_string(), (better, Some(Bound::Absolute(amount))));
    }
    Ok(bounds)
}

/// Every `run-*.json` result file in `dir`, except `--quick` runs.
fn load_runs(dir: &Path) -> Result<Runs, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut runs = Runs::new();
    let (mut files, mut quick) = (0, 0);
    for entry in entries {
        let path = entry.map_err(|e| format!("{}: {e}", dir.display()))?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !(name.starts_with("run-") && name.ends_with(".json")) {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if add_run(&mut runs, &doc).map_err(|e| format!("{}: {e}", path.display()))? {
            files += 1;
        } else {
            quick += 1;
        }
    }
    if quick > 0 {
        eprintln!(
            "nexus-bench compare: {}: left out {quick} --quick run(s)",
            dir.display()
        );
    }
    if files == 0 {
        return Err(format!(
            "{}: no full-size run-*.json result files",
            dir.display()
        ));
    }
    Ok(runs)
}

/// Adds one result file's metrics to `runs`; returns false, adding
/// nothing, for a `--quick` run.
fn add_run(runs: &mut Runs, doc: &Json) -> Result<bool, String> {
    if doc.get("quick") == Some(&Json::Bool(true)) {
        return Ok(false);
    }
    let workload = doc
        .get("workload")
        .and_then(Json::as_str)
        .ok_or("no workload")?;
    let traced = doc.get("trace").and_then(Json::as_f64).ok_or("no trace")? != 0.0;
    for (metric, m) in doc.get("metrics").and_then(Json::as_object).unwrap_or(&[]) {
        let (Some(value), Some(unit)) = (
            m.get("value").and_then(Json::as_f64),
            m.get("unit").and_then(Json::as_str),
        ) else {
            continue;
        };
        runs.entry((workload.to_string(), traced, metric.clone()))
            .or_insert_with(|| (unit.to_string(), Vec::new()))
            .1
            .push(value);
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(trace: u8, quick: bool, latency: f64) -> Json {
        json::parse(&format!(
            "{{\"workload\": \"fl-wide\", \"trace\": {trace}, \"quick\": {quick}, \"metrics\": {{\"explain_p50_s\": {{\"value\": {latency}, \"unit\": \"s\"}}}}}}"
        ))
        .unwrap()
    }

    fn untraced_verdict(base: &[Json], change: &[Json]) -> Option<Verdict> {
        let load = |docs: &[Json]| {
            let mut runs = Runs::new();
            for d in docs {
                add_run(&mut runs, d).unwrap();
            }
            runs
        };
        let (a, b) = (load(base), load(change));
        let key = ("fl-wide".to_string(), false, "explain_p50_s".to_string());
        let mut bounds = Bounds::new();
        bounds.insert(key.2.clone(), (Better::Lower, Some(Bound::Relative(0.10))));
        judge(&bounds, &key, &a[&key].1, &b[&key].1)
    }

    #[test]
    fn traced_and_quick_runs_do_not_change_an_untraced_verdict() {
        let base: Vec<Json> = [1.00, 1.01, 0.99].map(|v| doc(0, false, v)).to_vec();
        let change: Vec<Json> = [1.02, 1.00, 1.01].map(|v| doc(0, false, v)).to_vec();
        assert_eq!(untraced_verdict(&base, &change), Some(Verdict::Same));
        // Slow traced runs and fast toy-size runs on the change's side.
        let mut polluted = change.clone();
        polluted.extend([2.0, 2.1, 2.2].map(|v| doc(1, false, v)));
        polluted.extend([0.01, 0.02, 0.01].map(|v| doc(0, true, v)));
        assert_eq!(untraced_verdict(&base, &polluted), Some(Verdict::Same));
    }

    #[test]
    fn traced_runs_get_no_verdict() {
        let mut runs = Runs::new();
        for v in [1.0, 1.1, 0.9] {
            assert!(add_run(&mut runs, &doc(1, false, v)).unwrap());
        }
        assert!(!add_run(&mut runs, &doc(0, true, 1.0)).unwrap());
        let key = ("fl-wide".to_string(), true, "explain_p50_s".to_string());
        assert_eq!(runs.len(), 1);
        let mut bounds = Bounds::new();
        bounds.insert(key.2.clone(), (Better::Lower, Some(Bound::Relative(0.10))));
        assert_eq!(judge(&bounds, &key, &runs[&key].1, &runs[&key].1), None);
    }
}
