//! The same-host A/B gate behind the `perf_ab` binary. It runs the head
//! tree's `BENCHMARK.json` in a base and a head tree, [`PAIRS`] times per
//! side and workload with the first side alternating, and [`judge`]s the
//! head's median of each end-to-end metric against the base's at that
//! metric's bound.

use std::io::Write;
use std::path::Path;
use std::process::Command;

use crate::json::{Json, Provenance};

/// Runs per side and workload.
pub const PAIRS: usize = 5;

/// Whether pair `i` runs the base first. Even pairs do and odd pairs run
/// the head first, so drift over time favours neither side.
pub fn base_first(i: usize) -> bool {
    i % 2 == 0
}

/// An end-to-end metric of `BENCHMARK.json`: its name, whether higher
/// values are better, and the largest tolerated relative move the worse
/// way.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub higher: bool,
    pub bound: f64,
}

impl Metric {
    /// How much worse `head` is than `base`, relative to `base`; negative
    /// when it is better.
    fn worse_by(&self, base: f64, head: f64) -> f64 {
        let sign = if self.higher { -1.0 } else { 1.0 };
        sign * (head - base) / base.abs().max(f64::MIN_POSITIVE)
    }
}

/// The parts of `BENCHMARK.json` the gate reads.
#[derive(Clone, Debug, PartialEq)]
pub struct Benchmark {
    /// The program and its leading arguments; the gate appends
    /// `--workload <name> --seconds <run_seconds>`.
    pub command: Vec<String>,
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    /// The `end_to_end` metrics.
    pub metrics: Vec<Metric>,
}

impl Benchmark {
    /// Parses a benchmark definition, naming the first bad field.
    pub fn parse(text: &str) -> Result<Benchmark, String> {
        let doc = Json::parse(text)?;
        let bad = |what: &str| format!("BENCHMARK.json: bad {what:?}");
        let list = |key: &str| match doc.get(key) {
            Some(Json::Arr(items)) if !items.is_empty() => Ok(items),
            _ => Err(bad(key)),
        };
        let text = |j: Option<&Json>| j.and_then(Json::as_str).map(str::to_string);
        let mut metrics = Vec::new();
        for m in list("end_to_end")? {
            let higher = match m.get("better").and_then(Json::as_str) {
                Some("higher") => true,
                Some("lower") => false,
                _ => return Err(bad("better")),
            };
            let bound = m.get("bound").and_then(Json::as_num).filter(|b| *b >= 0.0);
            metrics.push(Metric {
                name: text(m.get("name")).ok_or_else(|| bad("name"))?,
                higher,
                bound: bound.ok_or_else(|| bad("bound"))?,
            });
        }
        let command: Option<_> = list("command")?.iter().map(|a| text(Some(a))).collect();
        let workloads: Option<_> = list("workloads")?
            .iter()
            .map(|w| text(w.get("name")))
            .collect();
        let run_seconds = doc.get("run_seconds").and_then(Json::as_num);
        Ok(Benchmark {
            command: command.ok_or_else(|| bad("command"))?,
            run_seconds: run_seconds
                .filter(|s| *s > 0.0)
                .ok_or_else(|| bad("run_seconds"))? as u64,
            workloads: workloads.ok_or_else(|| bad("workloads"))?,
            metrics,
        })
    }
}

/// One run's output as perfbench prints it: a `provenance <json>` line
/// and, last, `{"correct", "attempted", "failed", "metrics"}` with each
/// metric as `{"value", "unit"}`.
#[derive(Clone, Debug, PartialEq)]
pub struct Run {
    /// The provenance line.
    pub provenance: Json,
    /// Its revision and host fields.
    pub host: Provenance,
    /// The closing line.
    pub result: Json,
}

impl Run {
    /// Parses a run's standard output.
    pub fn parse(stdout: &str) -> Result<Run, String> {
        let prov = stdout.lines().find_map(|l| l.strip_prefix("provenance "));
        let prov = Json::parse(prov.ok_or("no provenance line")?)?;
        let last = stdout.lines().rev().find(|l| !l.trim().is_empty());
        Ok(Run {
            host: Provenance::from_json(&prov)?,
            provenance: prov,
            result: Json::parse(last.unwrap_or(""))?,
        })
    }

    /// The number at `path` in the closing line.
    fn num(&self, path: &[&str]) -> Result<f64, String> {
        let found = path.iter().try_fold(&self.result, |j, key| j.get(key));
        found
            .and_then(Json::as_num)
            .ok_or_else(|| format!("a run lacks the number {path:?}"))
    }

    /// The fields every compared run must share: the host's, `seed` and
    /// `seconds`.
    fn config(&self) -> Vec<(&'static str, Json)> {
        let mut fields = self.host.host().to_vec();
        let prov = &self.provenance;
        fields.extend(["seed", "seconds"].map(|k| (k, prov.get(k).cloned().unwrap_or(Json::Null))));
        fields
    }
}

/// The first quartile, median and third quartile of `values` (not
/// empty), each the value at that rank; exact for [`PAIRS`] = 5.
pub fn quartiles(mut values: Vec<f64>) -> [f64; 3] {
    values.sort_by(f64::total_cmp);
    [1, 2, 3].map(|q| values[q * (values.len() - 1) / 4])
}

/// Judges a workload's `[base, head]` pairs. Returns its report, a line
/// per end-to-end metric with both sides' median and quartiles, the
/// head/base ratio and the pairs the head won, then a `FAIL` line per
/// reason the gate fails, and whether the head passes: it fails when a
/// head median is worse than the base median by more than its bound,
/// when a run reports `correct: false`, or when the head's share of
/// failed ops exceeds the base's. Refuses (`Err`) to compare runs that
/// differ in a host field of their [`Provenance`], `seed` or `seconds`;
/// `revision` and `dirty` may differ.
pub fn judge(
    bench: &Benchmark,
    workload: &str,
    pairs: &[[Run; 2]],
) -> Result<(String, bool), String> {
    let runs = || pairs.iter().flatten();
    let first = runs().next().ok_or("no runs")?.config();
    for run in runs() {
        if let Some((field, _)) = run.config().iter().zip(&first).find(|(a, b)| a != b) {
            return Err(format!("runs differ in {}: refusing to compare", field.0));
        }
    }
    let mut failures = Vec::new();
    if runs().any(|r| r.result.get("correct") != Some(&Json::Bool(true))) {
        failures.push("a run reported correct: false".to_string());
    }
    let share = |side: usize| -> Result<f64, String> {
        let sum = |key| {
            pairs
                .iter()
                .map(|p| p[side].num(&[key]))
                .sum::<Result<f64, _>>()
        };
        Ok(sum("failed")? / sum("attempted")?.max(1.0))
    };
    let (base_failed, head_failed) = (share(0)?, share(1)?);
    if head_failed > base_failed {
        failures.push(format!(
            "failed share {head_failed:.3e} exceeds the base's {base_failed:.3e}"
        ));
    }
    let spread = |s: &[f64; 3]| format!("{:.4e} [{:.4e}, {:.4e}]", s[1], s[0], s[2]);
    let mut out = format!(
        "workload {workload}\n  {:<16} {:<37} {:<37} {:>9} {:>5}\n",
        "metric", "base median [q1, q3]", "head median [q1, q3]", "head/base", "won"
    );
    for m in &bench.metrics {
        let path = ["metrics", m.name.as_str(), "value"];
        let values = pairs
            .iter()
            .map(|[b, h]| Ok([b.num(&path)?, h.num(&path)?]))
            .collect::<Result<Vec<_>, String>>()?;
        let [base, head] = [0, 1].map(|side| quartiles(values.iter().map(|v| v[side]).collect()));
        let won = values
            .iter()
            .filter(|v| m.worse_by(v[0], v[1]) < 0.0)
            .count();
        let worse = m.worse_by(base[1], head[1]);
        let flag = if worse > m.bound {
            let (by, bound) = (100.0 * worse, 100.0 * m.bound);
            failures.push(format!(
                "{} is {by:.1}% worse, beyond its {bound:.0}%",
                m.name
            ));
            "  WORSE"
        } else {
            ""
        };
        out += &format!(
            "  {:<16} {:<37} {:<37} {:>9.3} {won:>2}/{PAIRS}{flag}\n",
            m.name,
            spread(&base),
            spread(&head),
            head[1] / base[1],
        );
    }
    for f in &failures {
        out += &format!("  FAIL: {f}\n");
    }
    Ok((out, failures.is_empty()))
}

/// Runs the benchmark's command for `workload` in `tree` and parses its
/// output.
fn run_once(bench: &Benchmark, tree: &Path, workload: &str) -> Result<Run, String> {
    let (program, args) = bench.command.split_first().ok_or("empty command")?;
    let out = Command::new(program)
        .args(args)
        .args(["--workload", workload, "--seconds"])
        .arg(bench.run_seconds.to_string())
        .current_dir(tree)
        .output()
        .map_err(|e| format!("{}: cannot run {program}: {e}", tree.display()))?;
    let stderr = String::from_utf8_lossy(&out.stderr);
    Run::parse(&String::from_utf8_lossy(&out.stdout))
        .map_err(|e| format!("{} {workload}: {e}\n{stderr}", tree.display()))
}

/// Runs the gate, writing each workload's report to `out` as it
/// completes. Returns whether the head passes.
pub fn gate(base: &Path, head: &Path, out: &mut dyn Write) -> Result<bool, String> {
    let text = std::fs::read_to_string(head.join("BENCHMARK.json"))
        .map_err(|e| format!("{}/BENCHMARK.json: {e}", head.display()))?;
    let bench = Benchmark::parse(&text)?;
    let mut pass = true;
    for workload in &bench.workloads {
        let mut pairs = Vec::with_capacity(PAIRS);
        for i in 0..PAIRS {
            let side = |tree| run_once(&bench, tree, workload);
            pairs.push(if base_first(i) {
                let b = side(base)?;
                [b, side(head)?]
            } else {
                let h = side(head)?;
                [side(base)?, h]
            });
        }
        let (report, passed) = judge(&bench, workload, &pairs)?;
        pass &= passed;
        write!(out, "{report}").map_err(|e| e.to_string())?;
    }
    let verdict = if pass { "pass" } else { "FAIL" };
    writeln!(out, "verdict: {verdict}").map_err(|e| e.to_string())?;
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::workspace_root;

    fn bench() -> Benchmark {
        let text = std::fs::read_to_string(workspace_root().join("BENCHMARK.json")).unwrap();
        Benchmark::parse(&text).unwrap()
    }

    const PROVENANCE: &str = r#"provenance {"seed": 48764, "seconds": 30, "revision": "abc1234", "dirty": null, "nproc": 2, "arch": "x86_64", "rustc": "rustc 1.95.0", "profile": "release"}"#;

    /// perfbench's output for one run whose metrics are `worse` times
    /// worse than a fixed base, each in its own direction.
    fn canned(worse: f64, correct: bool, failed: u64) -> String {
        let value = |m: &Metric| if m.higher { 1e6 / worse } else { 1e3 * worse };
        canned_by(value, correct, failed)
    }

    /// perfbench's output for one run with each metric's value from
    /// `value`.
    fn canned_by(value: impl Fn(&Metric) -> f64, correct: bool, failed: u64) -> String {
        let metrics: Vec<String> = (bench().metrics.iter())
            .map(|m| format!(r#""{}": {{"value": {}, "unit": "u"}}"#, m.name, value(m)))
            .collect();
        let metrics = metrics.join(", ");
        format!(
            "{PROVENANCE}\nmetric x = 1 u\n\
             {{\"correct\": {correct}, \"attempted\": 1000, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}\n"
        )
    }

    fn judged(base: &str, head: &str) -> Result<(String, bool), String> {
        let (b, h) = (Run::parse(base).unwrap(), Run::parse(head).unwrap());
        judge(&bench(), "w", &vec![[b, h]; PAIRS])
    }

    fn ok(worse: f64) -> String {
        canned(worse, true, 0)
    }

    /// A correct run with every metric's value `ratio` times the base's,
    /// whatever its direction.
    fn scaled(ratio: f64) -> String {
        canned_by(|m| ratio * if m.higher { 1e6 } else { 1e3 }, true, 0)
    }

    /// `judged` against the repository's metrics that go the `higher` way
    /// only.
    fn judged_only(higher: bool, base: &str, head: &str) -> (String, bool) {
        let mut b = bench();
        b.metrics.retain(|m| m.higher == higher);
        assert!(!b.metrics.is_empty());
        let (base, head) = (Run::parse(base).unwrap(), Run::parse(head).unwrap());
        judge(&b, "w", &vec![[base, head]; PAIRS]).unwrap()
    }

    #[test]
    fn benchmark_definition_parses_and_rejects() {
        let b = bench();
        assert_eq!([b.workloads.len(), b.metrics.len()], [3, 5]);
        assert!(b.metrics.iter().all(|m| m.bound == 0.25) && b.run_seconds == 30);
        assert!(b.metrics[0].higher && !b.metrics[1].higher, "{b:?}");
        let text = std::fs::read_to_string(workspace_root().join("BENCHMARK.json")).unwrap();
        for bad in ["{}", "[]", &text.replace("\"lower\"", "\"less\"")] {
            assert!(Benchmark::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn a_a_runs_flag_nothing() {
        let (report, pass) = judged(&ok(1.0), &ok(1.0)).unwrap();
        assert!(pass && !report.contains("WORSE"), "{report}");
        assert_eq!(report.matches(" 0/5\n").count(), bench().metrics.len());
        assert!(!report.contains("FAIL"), "{report}");
    }

    #[test]
    fn moves_inside_every_bound_do_not_flag() {
        // 20% worse everywhere stays inside every 25% bound, and is still
        // counted as lost in every pair.
        let (report, pass) = judged(&ok(1.0), &ok(1.2)).unwrap();
        assert!(pass && !report.contains("WORSE"), "{report}");
        assert_eq!(report.matches(" 0/5\n").count(), bench().metrics.len());
        // 30% worse everywhere does not.
        assert!(!judged(&ok(1.0), &ok(1.3)).unwrap().1);
    }

    #[test]
    fn higher_is_better_drop_fails_and_rise_does_not() {
        let (report, pass) = judged_only(true, &scaled(1.0), &scaled(0.7));
        assert!(
            !pass && report.contains("FAIL: ops_per_s is 30.0% worse"),
            "{report}"
        );
        assert!(judged_only(true, &scaled(1.0), &scaled(0.8)).1);
        let (report, pass) = judged_only(true, &scaled(1.0), &scaled(3.0));
        assert!(pass && !report.contains("WORSE"), "{report}");
    }

    #[test]
    fn lower_is_better_rise_beyond_its_bound_fails() {
        let lower = bench().metrics.iter().filter(|m| !m.higher).count();
        let (report, pass) = judged_only(false, &scaled(1.0), &scaled(1.3));
        assert!(!pass, "{report}");
        assert_eq!(report.matches("% worse, beyond its 25%").count(), lower);
        assert!(judged_only(false, &scaled(1.0), &scaled(1.2)).1);
        assert!(judged_only(false, &scaled(1.0), &scaled(0.3)).1);
    }

    #[test]
    fn report_marks_worse_rows_and_fail_lines() {
        // Every raw value 40% up: throughput improves, the rest worsen.
        let (report, pass) = judged(&scaled(1.0), &scaled(1.4)).unwrap();
        assert!(!pass);
        let lines: Vec<&str> = report.lines().collect();
        assert_eq!(lines[0], "workload w");
        assert!(lines[1].contains("head/base") && lines[1].contains("won"));
        for (m, row) in bench().metrics.iter().zip(&lines[2..]) {
            assert!(row.trim_start().starts_with(&m.name), "{row}");
            assert!(row.contains(" 1.400 "), "{row}");
            let expect = if m.higher { " 5/5" } else { " 0/5  WORSE" };
            assert!(row.ends_with(expect), "{row}");
            let fail = format!("  FAIL: {} is 40.0% worse, beyond its 25%", m.name);
            assert_eq!(lines.contains(&fail.as_str()), !m.higher, "{report}");
        }
        assert_eq!(lines.len(), 2 + 2 * bench().metrics.len() - 1, "{report}");
    }

    #[test]
    fn three_x_worse_flags_every_metric_and_its_mirror_flags_nothing() {
        let metrics = bench().metrics.len();
        let (report, pass) = judged(&ok(1.0), &ok(3.0)).unwrap();
        assert!(!pass && report.matches(" 0/5  WORSE\n").count() == metrics);
        let (report, pass) = judged(&ok(1.0), &ok(1.0 / 3.0)).unwrap();
        assert!(
            pass && report.matches(" 5/5\n").count() == metrics,
            "{report}"
        );
    }

    #[test]
    fn each_differing_provenance_field_is_refused() {
        for (field, from, to) in [
            ("nproc", "2", "4"),
            ("arch", "\"x86_64\"", "\"aarch64\""),
            ("rustc", "\"rustc 1.95.0\"", "\"rustc 1.75.0\""),
            ("profile", "\"release\"", "\"debug\""),
            ("seed", "48764", "7"),
            ("seconds", "30", "5"),
            ("revision", "\"abc1234\"", "\"def5678\""),
            ("dirty", "null", "true"),
        ] {
            let head = ok(1.0).replace(
                &format!("\"{field}\": {from}"),
                &format!("\"{field}\": {to}"),
            );
            assert_ne!(head, ok(1.0));
            match judged(&ok(1.0), &head) {
                Ok(_) => assert!(matches!(field, "revision" | "dirty"), "{field} compared"),
                Err(e) => assert!(e.contains(field), "{field}: {e}"),
            }
        }
    }

    #[test]
    fn incorrect_runs_and_a_higher_failed_share_fail_the_gate() {
        let (report, pass) = judged(&ok(1.0), &canned(1.0, false, 0)).unwrap();
        assert!(!pass && report.contains("FAIL: a run reported correct: false"));
        let (report, pass) = judged(&ok(1.0), &canned(1.0, true, 1)).unwrap();
        assert!(!pass && report.contains("FAIL: failed share"), "{report}");
        assert!(judged(&canned(1.0, true, 1), &ok(1.0)).unwrap().1);
    }

    #[test]
    fn run_order_alternates() {
        let firsts: Vec<bool> = (0..PAIRS).map(base_first).collect();
        assert_eq!(firsts, [true, false, true, false, true]);
    }

    #[test]
    fn quartiles_take_ranks() {
        assert_eq!(quartiles(vec![5.0, 1.0, 3.0, 2.0, 4.0]), [2.0, 3.0, 4.0]);
    }

    #[test]
    fn gate_spawns_parses_and_judges() {
        // The repository's definition, with a command that prints canned
        // perfbench output from the tree it runs in.
        let root = std::env::temp_dir().join(format!("perf_ab-{}", std::process::id()));
        let text = std::fs::read_to_string(workspace_root().join("BENCHMARK.json")).unwrap();
        let Json::Obj(mut def) = Json::parse(&text).unwrap() else {
            panic!("BENCHMARK.json is an object")
        };
        let cat = ["sh", "-c", r#"cat "$2.out""#, "sh"];
        let command = def.iter_mut().find(|f| f.0 == "command").unwrap();
        command.1 = Json::Arr(cat.map(Json::from).to_vec());
        let tree = |name: &str, worse: f64| {
            let dir = root.join(name);
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(
                dir.join("BENCHMARK.json"),
                Json::Obj(def.clone()).to_string(),
            )
            .unwrap();
            for w in bench().workloads {
                std::fs::write(dir.join(format!("{w}.out")), ok(worse)).unwrap();
            }
            dir
        };
        let (base, same, slow) = (tree("base", 1.0), tree("same", 1.0), tree("slow", 2.0));
        let mut report = Vec::new();
        assert_eq!(gate(&base, &same, &mut report), Ok(true));
        let report = String::from_utf8(report).unwrap();
        assert!(
            report.contains("workload direct-universal-counter"),
            "{report}"
        );
        let mut report = Vec::new();
        assert_eq!(gate(&base, &slow, &mut report), Ok(false));
        let report = String::from_utf8(report).unwrap();
        assert_eq!(report.matches("FAIL: ops_per_s").count(), 3, "{report}");
        assert!(report.ends_with("verdict: FAIL\n"), "{report}");
        assert!(gate(&base, &root.join("none"), &mut Vec::new()).is_err());
        std::fs::remove_dir_all(&root).unwrap();
    }
}
