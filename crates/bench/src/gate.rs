//! Perf-regression gate over committed `BENCH_*.json` baselines.
//!
//! The simulator is deterministic, so the committed reports are exact:
//! any drift between a fresh run and the baseline is a *code* change, not
//! noise. The gate evaluates each baseline's [`GateRow`]s (declared next
//! to the lanes they read, in [`crate::lanes`]) on the committed and on a
//! freshly generated report and compares the two values at a
//! ±10% band (derived percentages use an absolute band instead — a 0.00%
//! replication overhead baseline has no meaningful relative tolerance):
//!
//! * a metric **worse** than baseline beyond tolerance is a regression →
//!   the gate fails;
//! * a metric **better** than baseline beyond tolerance means the
//!   committed baseline is stale → the gate also fails, with instructions
//!   to refresh it (`run <baseline>` at full scale, and commit the new
//!   JSON). This keeps the checked-in trajectory honest.
//!
//! Hard floors are acceptance criteria that must hold regardless of what
//! the baseline says (e.g. pipeline window=16 speedup ≥ 2×).
//!
//! The reports are parsed with the tiny recursive-descent JSON reader
//! below — the repo's JSON *writer* lives in `efactory-obs` and the
//! offline shims are stubs, so the gate carries its own reader rather
//! than depending on one.

use std::fmt;

// ---------------------------------------------------------------------------
// minimal JSON reader
// ---------------------------------------------------------------------------

/// Parsed JSON value. Numbers are kept as `f64`, which is lossless for
/// every quantity the reports carry (counters stay well under 2^53).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a complete JSON document; trailing whitespace is allowed,
    /// trailing garbage is not.
    pub fn parse(s: &str) -> Result<Json, String> {
        let b = s.as_bytes();
        let mut pos = 0;
        let v = parse_value(b, &mut pos)?;
        skip_ws(b, &mut pos);
        if pos != b.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }

    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Dotted-path lookup (`"all.p99_ns"`).
    pub fn path(&self, dotted: &str) -> Option<&Json> {
        dotted.split('.').try_fold(self, |v, k| v.get(k))
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Find the `entries` element whose `"label"` equals `label`.
    pub fn entry(&self, label: &str) -> Option<&Json> {
        match self.get("entries")? {
            Json::Arr(entries) => entries
                .iter()
                .find(|e| e.get("label").and_then(Json::as_str) == Some(label)),
            _ => None,
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                members.push((key, parse_value(b, pos)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            std::str::from_utf8(&b[start..*pos])
                .ok()
                .and_then(|s| s.parse().ok())
                .map(Json::Num)
                .ok_or_else(|| format!("bad number at byte {start}"))
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected '\"' at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| "bad \\u escape".to_string())?;
                        *pos += 4;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(format!("bad escape '\\{}'", esc as char)),
                }
            }
            _ => {
                // Reports are ASCII-labelled, but stay UTF-8 correct anyway:
                // back up and take the full code point.
                *pos -= 1;
                let s = std::str::from_utf8(&b[*pos..]).map_err(|_| "invalid utf-8")?;
                let ch = s.chars().next().ok_or("unterminated string")?;
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
    Err("unterminated string".into())
}

// ---------------------------------------------------------------------------
// gate rows
// ---------------------------------------------------------------------------

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// Comparison band. Throughput/latency use a relative band; derived
/// percentages (replication overhead) use an absolute band in the
/// metric's own unit, since their baselines can legitimately be 0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tolerance {
    Rel(f64),
    Abs(f64),
}

/// Default relative band: ±10%.
pub const REL_TOL: f64 = 0.10;
/// Default absolute band for derived percentages: ±2 percentage points.
pub const ABS_TOL_PCT: f64 = 2.0;
/// Tail-attribution band: a subsystem's share of the p99.9 cohort's
/// latency may move by at most ±5 percentage points before the gate flags
/// it — a tail whose ownership shifts is a behavior change even when the
/// headline numbers hold.
pub const TAIL_SHARE_TOL_PP: f64 = 5.0;
/// Hard ceiling on migration-induced client tail inflation: the p99.9 of
/// a run with a live migration fired mid-window may be at most this many
/// times the quiescent run's p99.9. The snapshot copy and the verify
/// stream run off the client critical path; only the seal→flip window
/// stalls ops, and it must stay short enough that the tail holds.
pub const MIGRATE_P999_CEILING_X: f64 = 5.0;
/// Hard ceiling on cleaner-induced put tail inflation: the p99.9 of the
/// steady-state cleaning lane may be at most this many times the
/// single-pool baseline's p99.9. Cleaning is *not* invisible — a put that
/// arrives mid-pass stands behind `Busy` backpressure until the pass (or
/// its abort) lets go, and the measured cost is a few hundred × on this
/// workload. The ceiling asserts the stall is *bounded* (one pass, not a
/// pile-up or a wedge); the ±10% band against the committed baseline
/// catches ordinary drift long before the ceiling does.
pub const CLEAN_P999_CEILING_X: f64 = 600.0;

/// Hard floor on the fiber executor's events/wall-second advantage over
/// the thread executor at the 1M-record point (acceptance criterion of
/// the executor-swap PR). Measured back-to-back on the same host, so the
/// ratio is hardware-independent; a Condvar handoff costs microseconds
/// where a fiber switch costs tens of nanoseconds, and an executor
/// change that erodes the gap below 10× has re-serialized the hot path.
pub const SIM_SPEEDUP_FLOOR: f64 = 10.0;
/// Hard floor on absolute events/wall-second at the 1M-record sweep
/// point. Deliberately conservative — ~5× below the measured reference
/// rate, yet above anything the thread backend can reach — because its
/// job is to fail a wedged or accidentally-quadratic kernel fast on any
/// CI host, not to track the trajectory; the same-host speedup ratio and
/// the deterministic event counts do that.
pub const SIM_EPS_FLOOR: f64 = 250_000.0;
/// Wall-clock metrics have no meaningful cross-host drift band: the
/// committed baseline was produced on different hardware than the CI
/// runner. `Rel(∞)` disables the band so only the hard floor gates.
pub const FLOOR_ONLY: Tolerance = Tolerance::Rel(f64::INFINITY);

/// One number read off a labelled report entry.
#[derive(Debug, Clone, PartialEq)]
pub enum Val {
    /// A numeric field by dotted path (`Field("YCSB-T/256B", "all.p99_ns")`).
    Field(String, &'static str),
    /// A named end-of-run counter. Counter names contain dots
    /// (`server.relocated`), so dotted-path lookup cannot reach them.
    Counter(String, &'static str),
    /// Writer-only Mops: PUT samples over the measurement window, so ops
    /// of background snapshot readers are left out.
    PutMops(String),
    /// A subsystem's share (%) of the p99.9 cohort's latency, from the
    /// entry's `breakdown.percentiles`.
    TailShare(String, &'static str),
}

/// What a gate row measures.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Val(Val),
    /// `a ÷ b`; a zero `b` counts as 1, so an empty lane reads as its
    /// numerator rather than as infinity.
    Ratio(Val, Val),
    /// `(a − b) ÷ a × 100`: how many percent `b` falls below `a`.
    PctDrop(Val, Val),
}

/// One gated quantity: how to derive it from a report, and its band.
#[derive(Debug, Clone, PartialEq)]
pub struct GateRow {
    pub name: String,
    pub expr: Expr,
    pub better: Better,
    pub tol: Tolerance,
    /// Acceptance-criterion floor (in the metric's own unit, with
    /// [`Better`] orientation; a ceiling when lower is better): a fresh
    /// value on the wrong side fails the gate even if it matches the
    /// baseline.
    pub floor: Option<f64>,
}

/// One gated quantity evaluated on a report.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricValue {
    pub name: String,
    pub value: f64,
    pub better: Better,
    pub tol: Tolerance,
    pub floor: Option<f64>,
}

impl Val {
    /// The entry label this value is read from.
    pub fn label(&self) -> &str {
        match self {
            Val::Field(l, _) | Val::Counter(l, _) | Val::PutMops(l) | Val::TailShare(l, _) => l,
        }
    }

    fn eval(&self, report: &Json) -> Result<f64, String> {
        let label = self.label();
        let entry = report
            .entry(label)
            .ok_or_else(|| format!("entry {label:?} missing"))?;
        let num = |path: &str| {
            entry
                .path(path)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("field {path:?} missing on entry {label:?}"))
        };
        match self {
            Val::Field(_, path) => num(path),
            Val::Counter(_, name) => entry
                .get("counters")
                .and_then(|c| c.get(name))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("counter {name:?} missing on entry {label:?}")),
            Val::PutMops(_) => Ok(num("put.count")? / num("elapsed_ns")? * 1e3),
            Val::TailShare(_, sub) => {
                let Some(Json::Arr(rows)) = entry.path("breakdown.percentiles") else {
                    return Err(format!("breakdown.percentiles missing on entry {label:?}"));
                };
                rows.iter()
                    .find(|r| r.get("label").and_then(Json::as_str) == Some("p999"))
                    .ok_or_else(|| format!("percentile \"p999\" missing on entry {label:?}"))?
                    .path(&format!("shares.{sub}"))
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("share {sub:?} missing on {label:?} p999"))
            }
        }
    }
}

impl fmt::Display for Val {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Val::Field(l, path) => write!(f, "`{path}` of `{l}`"),
            Val::Counter(l, name) => write!(f, "counter `{name}` of `{l}`"),
            Val::PutMops(l) => write!(f, "PUT-only Mops of `{l}`"),
            Val::TailShare(l, sub) => write!(f, "`{sub}` p99.9 share of `{l}`"),
        }
    }
}

impl Expr {
    fn eval(&self, report: &Json) -> Result<f64, String> {
        Ok(match self {
            Expr::Val(v) => v.eval(report)?,
            Expr::Ratio(a, b) => {
                let den = b.eval(report)?;
                a.eval(report)? / if den == 0.0 { 1.0 } else { den }
            }
            Expr::PctDrop(a, b) => {
                let base = a.eval(report)?;
                (base - b.eval(report)?) / base * 100.0
            }
        })
    }
}

impl From<Val> for Expr {
    fn from(v: Val) -> Expr {
        Expr::Val(v)
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Val(v) => write!(f, "{v}"),
            Expr::Ratio(a, b) => write!(f, "{a} ÷ {b}"),
            Expr::PctDrop(a, b) => write!(f, "% drop from {a} to {b}"),
        }
    }
}

impl GateRow {
    /// Evaluate the row on a parsed report.
    pub fn eval(&self, report: &Json) -> Result<MetricValue, String> {
        Ok(MetricValue {
            name: self.name.clone(),
            value: self.expr.eval(report)?,
            better: self.better,
            tol: self.tol,
            floor: self.floor,
        })
    }

    /// The band as the gate docs print it.
    pub fn band(&self) -> String {
        let band = match self.tol {
            Tolerance::Rel(t) if t.is_infinite() => "none (wall-clock)".to_string(),
            Tolerance::Rel(t) => format!("±{:.0}%", t * 100.0),
            Tolerance::Abs(t) => format!("±{t} (absolute)"),
        };
        match (self.floor, self.better) {
            (None, _) => band,
            (Some(x), Better::Higher) => format!("{band}, ≥ {x} floor"),
            (Some(x), Better::Lower) => format!("{band}, ≤ {x} ceiling"),
        }
    }
}

/// Evaluate every row on a report; any row that cannot be evaluated (a
/// lane or field gone from the report) is an error, not a silent pass.
pub fn extract(rows: &[GateRow], report: &Json) -> Result<Vec<MetricValue>, String> {
    rows.iter().map(|r| r.eval(report)).collect()
}

// ---------------------------------------------------------------------------
// comparison
// ---------------------------------------------------------------------------

/// Outcome of comparing one fresh metric against its baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within tolerance (and above any floor).
    Ok,
    /// Worse than baseline beyond tolerance.
    Regressed,
    /// Better than baseline beyond tolerance — the committed baseline is
    /// stale and must be refreshed alongside the change.
    StaleBaseline,
    /// Below the hard acceptance floor, regardless of baseline.
    FloorViolation,
    /// Metric present in the baseline but absent fresh (or vice versa).
    Missing,
}

impl Verdict {
    pub fn failing(self) -> bool {
        self != Verdict::Ok
    }

    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::StaleBaseline => "stale-baseline",
            Verdict::FloorViolation => "floor-violation",
            Verdict::Missing => "missing",
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One row of the gate's diff output.
#[derive(Debug, Clone)]
pub struct Comparison {
    pub name: String,
    pub baseline: f64,
    pub fresh: f64,
    pub delta_pct: f64,
    pub verdict: Verdict,
}

/// Compare one metric pair. Orientation: `delta_pct > 0` always means
/// "fresh is better", whatever the metric's direction.
pub fn compare(baseline: &MetricValue, fresh: &MetricValue) -> Comparison {
    let improvement = match baseline.better {
        Better::Higher => fresh.value - baseline.value,
        Better::Lower => baseline.value - fresh.value,
    };
    let delta_pct = if baseline.value.abs() > f64::EPSILON {
        improvement / baseline.value.abs() * 100.0
    } else {
        0.0
    };
    let beyond = match baseline.tol {
        Tolerance::Rel(t) => improvement.abs() > baseline.value.abs() * t,
        Tolerance::Abs(t) => improvement.abs() > t,
    };
    let floor_violated = match (fresh.floor, fresh.better) {
        (Some(floor), Better::Higher) => fresh.value < floor,
        (Some(floor), Better::Lower) => fresh.value > floor,
        (None, _) => false,
    };
    let verdict = if floor_violated {
        Verdict::FloorViolation
    } else if beyond && improvement < 0.0 {
        Verdict::Regressed
    } else if beyond {
        Verdict::StaleBaseline
    } else {
        Verdict::Ok
    };
    Comparison {
        name: baseline.name.clone(),
        baseline: baseline.value,
        fresh: fresh.value,
        delta_pct,
        verdict,
    }
}

/// Compare full metric sets by name; metrics present on only one side
/// yield [`Verdict::Missing`] rows (value 0 on the absent side).
pub fn compare_all(baseline: &[MetricValue], fresh: &[MetricValue]) -> Vec<Comparison> {
    let mut rows = Vec::new();
    for b in baseline {
        match fresh.iter().find(|f| f.name == b.name) {
            Some(f) => rows.push(compare(b, f)),
            None => rows.push(Comparison {
                name: b.name.clone(),
                baseline: b.value,
                fresh: 0.0,
                delta_pct: 0.0,
                verdict: Verdict::Missing,
            }),
        }
    }
    for f in fresh {
        if !baseline.iter().any(|b| b.name == f.name) {
            rows.push(Comparison {
                name: f.name.clone(),
                baseline: 0.0,
                fresh: f.value,
                delta_pct: 0.0,
                verdict: Verdict::Missing,
            });
        }
    }
    rows
}

/// Render the comparison rows as the diff-artifact JSON.
pub fn diff_json(rows: &[Comparison]) -> String {
    use efactory_obs::json::{Arr, Obj};
    let mut arr = Arr::new();
    for row in rows {
        arr = arr.raw(
            &Obj::new()
                .str("metric", &row.name)
                .f64("baseline", row.baseline, 6)
                .f64("fresh", row.fresh, 6)
                .f64("delta_pct", row.delta_pct, 2)
                .str("verdict", row.verdict.as_str())
                .finish(),
        );
    }
    Obj::new()
        .str("schema", "efactory-bench-gate/v1")
        .bool("pass", rows.iter().all(|r| !r.verdict.failing()))
        .raw("comparisons", &arr.finish())
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The gate rows of one baseline of the table.
    fn gate_rows(name: &str) -> Vec<GateRow> {
        crate::lanes::table()
            .into_iter()
            .find(|b| b.name == name)
            .unwrap()
            .gate
    }

    #[test]
    fn json_reader_round_trips_report_shapes() {
        let doc = r#"{"schema":"efactory-run-report/v1","entries":[
            {"label":"Update-only/256B","mops":1.225547,
             "all":{"p99_ns":7649,"count":10},"neg":-2.5e1,"flag":true,
             "none":null,"esc":"a\"b\\c\ndA"}]}"#;
        let v = Json::parse(doc).unwrap();
        let e = v.entry("Update-only/256B").unwrap();
        assert_eq!(e.path("mops").unwrap().as_f64(), Some(1.225547));
        assert_eq!(e.path("all.p99_ns").unwrap().as_f64(), Some(7649.0));
        assert_eq!(e.path("neg").unwrap().as_f64(), Some(-25.0));
        assert_eq!(e.get("flag"), Some(&Json::Bool(true)));
        assert_eq!(e.get("none"), Some(&Json::Null));
        assert_eq!(e.get("esc").unwrap().as_str(), Some("a\"b\\c\ndA"));
        assert!(v.entry("nope").is_none());
        assert!(Json::parse("{\"a\":1} junk").is_err());
        assert!(Json::parse("[1,2").is_err());
    }

    fn report(mops_update: f64, p99_a: f64, mops_c: f64) -> Json {
        let doc = format!(
            r#"{{"entries":[
                {{"label":"Update-only/256B","mops":{mops_update},"all":{{"p99_ns":1}}}},
                {{"label":"YCSB-A 50%GET/256B","mops":1.0,"all":{{"p99_ns":{p99_a}}}}},
                {{"label":"YCSB-C 100%GET/256B","mops":{mops_c},"all":{{"p99_ns":1}}}}]}}"#
        );
        Json::parse(&doc).unwrap()
    }

    #[test]
    fn synthetic_20pct_regression_fails_the_gate() {
        // The contract this module exists for: a 20% throughput loss (or a
        // 20% p99 blowup) on a key metric must produce a failing verdict.
        let baseline = extract(&gate_rows("put_get"), &report(1.0, 1000.0, 2.0)).unwrap();
        let slow_puts = extract(&gate_rows("put_get"), &report(0.8, 1000.0, 2.0)).unwrap();
        let rows = compare_all(&baseline, &slow_puts);
        let row = rows
            .iter()
            .find(|r| r.name == "update_only_256B_mops")
            .unwrap();
        assert_eq!(row.verdict, Verdict::Regressed);
        assert!(rows.iter().any(|r| r.verdict.failing()));
        assert!(!diff_json(&rows).contains("\"pass\":true"));

        let slow_tail = extract(&gate_rows("put_get"), &report(1.0, 1200.0, 2.0)).unwrap();
        let rows = compare_all(&baseline, &slow_tail);
        let row = rows
            .iter()
            .find(|r| r.name == "ycsb_a_256B_p99_ns")
            .unwrap();
        assert_eq!(row.verdict, Verdict::Regressed);
    }

    #[test]
    fn within_band_passes_and_big_gain_flags_stale_baseline() {
        let baseline = extract(&gate_rows("put_get"), &report(1.0, 1000.0, 2.0)).unwrap();
        // ±10% band: a 5% dip and a 9% p99 gain both pass.
        let wobble = extract(&gate_rows("put_get"), &report(0.95, 910.0, 2.0)).unwrap();
        let rows = compare_all(&baseline, &wobble);
        assert!(rows.iter().all(|r| !r.verdict.failing()), "{rows:?}");
        assert!(diff_json(&rows).contains("\"pass\":true"));
        // A 50% gain means the committed baseline no longer describes the
        // code — that fails too, pointing at a refresh.
        let faster = extract(&gate_rows("put_get"), &report(1.5, 1000.0, 2.0)).unwrap();
        let rows = compare_all(&baseline, &faster);
        let row = rows
            .iter()
            .find(|r| r.name == "update_only_256B_mops")
            .unwrap();
        assert_eq!(row.verdict, Verdict::StaleBaseline);
    }

    #[test]
    fn repl_overhead_uses_absolute_band() {
        let repl = |base: f64, repl: f64| {
            let doc = format!(
                r#"{{"entries":[
                    {{"label":"Update-only/256B/replicas0","mops":{base}}},
                    {{"label":"Update-only/256B/replicas1","mops":{repl}}},
                    {{"label":"YCSB-A 50%GET/256B/replicas0","mops":{base}}},
                    {{"label":"YCSB-A 50%GET/256B/replicas1","mops":{repl}}}]}}"#
            );
            extract(&gate_rows("repl"), &Json::parse(&doc).unwrap()).unwrap()
        };
        // Baseline overhead 0%: a relative band would reject any change;
        // the absolute ±2pp band accepts 1.5pp and rejects 8pp.
        let baseline = repl(1.0, 1.0);
        assert_eq!(baseline[0].value, 0.0);
        let rows = compare_all(&baseline, &repl(1.0, 0.985));
        assert!(rows.iter().all(|r| !r.verdict.failing()), "{rows:?}");
        let rows = compare_all(&baseline, &repl(1.0, 0.92));
        assert_eq!(rows[0].verdict, Verdict::Regressed);
    }

    #[test]
    fn pipeline_speedup_floor_is_enforced() {
        let pipe = |w1: f64, w16: f64| {
            let doc = format!(
                r#"{{"entries":[
                    {{"label":"Update-only/256B/window1","mops":{w1}}},
                    {{"label":"Update-only/256B/window16","mops":{w16}}},
                    {{"label":"YCSB-C/256B/loc_cache1","mops":3.0}}]}}"#
            );
            extract(&gate_rows("pipeline"), &Json::parse(&doc).unwrap()).unwrap()
        };
        // Baseline itself at 1.9× would let a matching fresh run slide on
        // tolerance alone; the acceptance floor still fails it.
        let rows = compare_all(&pipe(1.0, 1.9), &pipe(1.0, 1.9));
        let row = rows
            .iter()
            .find(|r| r.name == "pipeline_window16_speedup")
            .unwrap();
        assert_eq!(row.verdict, Verdict::FloorViolation);
        let rows = compare_all(&pipe(1.0, 4.0), &pipe(1.0, 4.1));
        assert!(rows.iter().all(|r| !r.verdict.failing()), "{rows:?}");
    }

    #[test]
    fn txn_overhead_and_interference_floors_are_enforced() {
        // upd/txn in Mops; base_puts/with_puts are PUT sample counts over a
        // fixed 1 ms window, so interference = (base-with)/base.
        let txn = |upd: f64, txn_mops: f64, base_puts: u64, with_puts: u64| {
            let doc = format!(
                r#"{{"entries":[
                    {{"label":"Update-only/256B/snap_readers0","mops":{upd},
                      "put":{{"count":{base_puts}}},"elapsed_ns":1000000}},
                    {{"label":"Txn-only/256B","mops":{txn_mops}}},
                    {{"label":"Update-only/256B/snap_readers2","mops":{upd},
                      "put":{{"count":{with_puts}}},"elapsed_ns":1000000}},
                    {{"label":"YCSB-T/256B","mops":1.0}}]}}"#
            );
            extract(&gate_rows("txn"), &Json::parse(&doc).unwrap()).unwrap()
        };
        // In-band: 20% commit overhead, 3% reader interference.
        let good = txn(1.0, 0.8, 1000, 970);
        let rows = compare_all(&good, &txn(1.0, 0.8, 1000, 970));
        assert!(rows.iter().all(|r| !r.verdict.failing()), "{rows:?}");
        // A baseline already past the floor must not let a matching fresh
        // run slide on tolerance alone: 30% overhead fails the 25% floor,
        // 10% interference fails the 5% floor.
        let rows = compare_all(&txn(1.0, 0.7, 1000, 900), &txn(1.0, 0.7, 1000, 900));
        let overhead = rows.iter().find(|r| r.name == "txn_overhead_pct").unwrap();
        assert_eq!(overhead.verdict, Verdict::FloorViolation);
        let interf = rows
            .iter()
            .find(|r| r.name == "snap_interference_pct")
            .unwrap();
        assert_eq!(interf.verdict, Verdict::FloorViolation);
        // Negative overhead (batches amortize the allocation RPC) is
        // legal: the floor is one-sided.
        let fast = txn(1.0, 1.1, 1000, 1000);
        let rows = compare_all(&fast, &txn(1.0, 1.1, 1000, 1000));
        assert!(rows.iter().all(|r| !r.verdict.failing()), "{rows:?}");
    }

    #[test]
    fn migration_tail_ceiling_is_enforced() {
        let clu = |mops2: f64, quiet_p999: u64, mig_p999: u64| {
            let doc = format!(
                r#"{{"entries":[
                    {{"label":"Cluster/256B/nodes2","mops":{mops2},
                      "all":{{"p999_ns":{quiet_p999}}}}},
                    {{"label":"Cluster/256B/nodes4","mops":1.5,
                      "all":{{"p999_ns":9000}}}},
                    {{"label":"Cluster/256B/nodes2/migrate","mops":{mops2},
                      "all":{{"p999_ns":{mig_p999}}}}}]}}"#
            );
            extract(&gate_rows("cluster"), &Json::parse(&doc).unwrap()).unwrap()
        };
        // In-ceiling: a 2× tail inflation under migration passes.
        let good = clu(1.0, 10_000, 20_000);
        let rows = compare_all(&good, &clu(1.0, 10_000, 20_000));
        assert!(rows.iter().all(|r| !r.verdict.failing()), "{rows:?}");
        // The ceiling is hard: a baseline already at 8× must not let a
        // matching fresh run slide on tolerance alone.
        let rows = compare_all(&clu(1.0, 10_000, 80_000), &clu(1.0, 10_000, 80_000));
        let infl = rows
            .iter()
            .find(|r| r.name == "migrate_p999_inflation_x")
            .unwrap();
        assert_eq!(infl.verdict, Verdict::FloorViolation);
        // And throughput under migration is banded like any other lane.
        let rows = compare_all(&good, &clu(0.8, 10_000, 20_000));
        let mops = rows
            .iter()
            .find(|r| r.name == "cluster_migrate_mops")
            .unwrap();
        assert_eq!(mops.verdict, Verdict::Regressed);
    }

    #[test]
    fn tail_share_shift_beyond_5pp_is_flagged() {
        let breakdown = |server: f64, nic: f64| {
            let row = |s: f64, n: f64| {
                format!(
                    r#"{{"label":"p999","threshold_ns":9000,"cohort":2,
                        "shares":{{"server":{s},"client":10.0,"verifier":0.0,
                                  "cleaner":0.0,"pmem":0.0,"nic":{n},"repl":0.0}},
                        "dominant":"server"}}"#
                )
            };
            let doc = format!(
                r#"{{"entries":[
                    {{"label":"Update-only/256B","breakdown":{{"percentiles":[{}]}}}},
                    {{"label":"YCSB-A 50%GET/256B","breakdown":{{"percentiles":[{}]}}}}]}}"#,
                row(server, nic),
                row(server, nic),
            );
            extract(&gate_rows("breakdown"), &Json::parse(&doc).unwrap()).unwrap()
        };
        let baseline = breakdown(60.0, 30.0);
        assert_eq!(baseline.len(), 14, "7 lanes × 2 mixes");
        // A 4pp wobble in tail ownership stays in band; an 8pp shift from
        // nic to server is an attribution change and fails.
        let rows = compare_all(&baseline, &breakdown(64.0, 26.0));
        assert!(rows.iter().all(|r| !r.verdict.failing()), "{rows:?}");
        let rows = compare_all(&baseline, &breakdown(68.0, 22.0));
        let server = rows
            .iter()
            .find(|r| r.name == "update_only_p999_server_share_pct")
            .unwrap();
        assert_eq!(server.verdict, Verdict::Regressed);
        let nic = rows
            .iter()
            .find(|r| r.name == "update_only_p999_nic_share_pct")
            .unwrap();
        assert_eq!(nic.verdict, Verdict::StaleBaseline, "shrink flags too");
        // A percentile row going missing is a load error, not a pass.
        let half =
            Json::parse(r#"{"entries":[{"label":"Update-only/256B","breakdown":{}}]}"#).unwrap();
        assert!(extract(&gate_rows("breakdown"), &half).is_err());
    }

    #[test]
    fn sim_floors_are_hard_and_event_counts_are_banded() {
        let sim = |events_1m: u64, fiber_eps: f64, thread_eps: f64| {
            let mut entries = String::new();
            for label in ["Sim/4K/32", "Sim/4K/1K", "Sim/100K/32", "Sim/100K/1K"] {
                entries.push_str(&format!(
                    r#"{{"label":"{label}","events_dispatched":1000,
                        "events_per_wall_sec":5e6}},"#
                ));
            }
            let doc = format!(
                r#"{{"entries":[{entries}
                    {{"label":"Sim/1M/32","events_dispatched":{events_1m},
                      "events_per_wall_sec":{fiber_eps}}},
                    {{"label":"Sim/1M/1K","events_dispatched":{events_1m},
                      "events_per_wall_sec":{fiber_eps}}},
                    {{"label":"Sim/1M/32/thread","events_dispatched":{events_1m},
                      "events_per_wall_sec":{thread_eps}}}]}}"#
            );
            extract(&gate_rows("sim"), &Json::parse(&doc).unwrap()).unwrap()
        };
        // Wall-clock lanes carry no drift band: halved (or tripled)
        // events/second on a slower host still passes as long as the
        // floors hold — only the deterministic event counts are banded.
        let good = sim(80_000_000, 8e6, 3e5);
        let rows = compare_all(&good, &sim(80_000_000, 4e6, 1.4e5));
        assert!(rows.iter().all(|r| !r.verdict.failing()), "{rows:?}");
        // A 20% event-volume drift at the 1M point is a workload change
        // and fails the band even though wall metrics are in bounds.
        let rows = compare_all(&good, &sim(96_000_000, 8e6, 3e5));
        let ev = rows.iter().find(|r| r.name == "sim_events_1m_c32").unwrap();
        assert_eq!(ev.verdict, Verdict::Regressed);
        // The floors are hard: a baseline already below them must not let
        // a matching fresh run slide — 6× fiber speedup fails the 10×
        // floor, and sub-floor absolute throughput fails too.
        let slow = sim(80_000_000, 1.8e6, 3e5);
        let rows = compare_all(&slow, &slow.clone());
        let sp = rows
            .iter()
            .find(|r| r.name == "sim_fiber_speedup_1m")
            .unwrap();
        assert_eq!(sp.verdict, Verdict::FloorViolation);
        let wedged = sim(80_000_000, 2e5, 1e4);
        let rows = compare_all(&good, &wedged);
        let eps = rows.iter().find(|r| r.name == "sim_eps_1m_c32").unwrap();
        assert_eq!(eps.verdict, Verdict::FloorViolation);
    }

    #[test]
    fn missing_metrics_fail() {
        let baseline = extract(&gate_rows("put_get"), &report(1.0, 1000.0, 2.0)).unwrap();
        let rows = compare_all(&baseline, &[]);
        assert!(rows.iter().all(|r| r.verdict == Verdict::Missing));
        assert!(rows.iter().any(|r| r.verdict.failing()));
        // And an entry disappearing from the report is a load error, not a
        // silent pass.
        let half = Json::parse(r#"{"entries":[{"label":"Update-only/256B","mops":1.0}]}"#).unwrap();
        assert!(extract(&gate_rows("put_get"), &half).is_err());
    }
}
