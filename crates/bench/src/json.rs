//! The workspace's one JSON layer: a small value type, [`Json`], that
//! parses ([`Json::parse`]) and renders (its `Display`), plus the shared
//! writer of the `BENCH_<name>.json` summaries at the workspace root.
//!
//! Every machine-readable artifact is built as a [`Json`] and printed: the
//! two BENCH documents, the model-check reports and the sampled-audit
//! ledgers. Both BENCH documents share one schema,
//! `{bench, revision, scenarios, unit, results: [row]}` ([`summary`]), so
//! revisions can be diffed with `jq` or [`crate::delta`] and no extra
//! tooling. No serde: the workspace vendors no registry crates.

use std::fmt::{self, Write as _};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// A JSON value. Numbers are held as `f64`: every field the workspace
/// writes or reads is either an exact integer below 2^53 or already a
/// float.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// A string.
    Str(String),
    /// A number.
    Num(f64),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document (any well-formed JSON, so hand-edited
    /// baselines and future extra fields keep parsing).
    ///
    /// # Errors
    ///
    /// A message naming the byte offset when the text is not well-formed
    /// JSON or carries trailing content after the document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser::new(text);
        let doc = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing content after document"));
        }
        Ok(doc)
    }

    /// An object with `fields` in the given order.
    pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// `x` rounded to `decimals` places, as printed by `{:.decimals$}` —
    /// for derived rates whose further digits are noise.
    pub fn fixed(x: f64, decimals: usize) -> Json {
        Json::Num(format!("{x:.decimals$}").parse().unwrap_or(x))
    }

    /// The value of `key`, if `self` is an object holding it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string, if `self` is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if `self` is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn is_container(&self) -> bool {
        matches!(self, Json::Arr(_) | Json::Obj(_))
    }

    fn write(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        match self {
            Json::Str(s) => write_str(f, s),
            // JSON has no NaN or infinity.
            Json::Num(n) if n.is_finite() => write!(f, "{n}"),
            Json::Num(_) | Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Arr(items) => write_container(f, indent, "[]", items.iter().map(|v| (None, v))),
            Json::Obj(fields) => write_container(
                f,
                indent,
                "{}",
                fields.iter().map(|(k, v)| (Some(k.as_str()), v)),
            ),
        }
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

macro_rules! json_from_number {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Num(n as f64)
            }
        }
    )*};
}

json_from_number!(u64, u128, usize, f64);

/// Renders the value. A container of scalars stays on one line; a
/// container holding containers puts each element on its own indented
/// line — so a BENCH document reads as one line per result row.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0)
    }
}

fn write_container<'a>(
    f: &mut fmt::Formatter<'_>,
    indent: usize,
    brackets: &str,
    entries: impl Iterator<Item = (Option<&'a str>, &'a Json)> + Clone,
) -> fmt::Result {
    let nested = entries.clone().any(|(_, v)| v.is_container());
    let (open, close) = brackets.split_at(1);
    f.write_str(open)?;
    for (i, (key, value)) in entries.enumerate() {
        if nested {
            let sep = if i > 0 { "," } else { "" };
            write!(f, "{sep}\n{:1$}", "", indent + 2)?;
        } else if i > 0 {
            f.write_str(", ")?;
        }
        if let Some(key) = key {
            write_str(f, key)?;
            f.write_str(": ")?;
        }
        value.write(f, indent + 2)?;
    }
    if nested {
        write!(f, "\n{:1$}", "", indent)?;
    }
    f.write_str(close)
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, what: &str) -> String {
        format!("JSON parse error at byte {}: {what}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek().ok_or_else(|| self.err("unexpected end"))? {
            b'"' => self.string().map(Json::Str),
            b'{' => self.object(),
            b'[' => self.array(),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            b'-' | b'0'..=b'9' => self.number(),
            c => Err(self.err(&format!("unexpected character '{}'", c as char))),
        }
    }

    fn literal(&mut self, word: &str, val: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(val)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos).copied() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .bytes
                        .get(self.pos)
                        .copied()
                        .ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
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
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // The renderer escapes only control characters,
                            // so surrogate pairs never occur in our
                            // documents; map lone surrogates to the
                            // replacement char.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        c => return Err(self.err(&format!("bad escape '\\{}'", c as char))),
                    }
                }
                Some(_) => {
                    // Copy a whole UTF-8 scalar, not a byte.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().ok_or_else(|| self.err("empty"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.err("malformed number"))
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Throughput in operations per second. A zero elapsed time (possible
/// only for degenerate runs) is clamped to 1ns to keep the value finite.
pub fn ops_per_sec(ops: usize, elapsed: Duration) -> f64 {
    ops as f64 / elapsed.max(Duration::from_nanos(1)).as_secs_f64()
}

/// The git revision of the working tree (short hash, `-dirty` suffixed when
/// the tree has uncommitted changes), or `"unknown"` outside a repository.
/// Recorded in every summary so `BENCH_*.json` files can be compared across
/// PRs — the perf trajectory.
///
/// Note the committed snapshot at the workspace root is necessarily stamped
/// `<parent>-dirty`: it is regenerated *before* the commit that ships it
/// exists, so its revision names the commit it was built on top of. The CI
/// artifact, regenerated from a clean checkout, carries the exact stamp.
pub fn git_revision() -> String {
    let rev = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(workspace_root())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty());
    let Some(rev) = rev else {
        return "unknown".to_string();
    };
    let dirty = std::process::Command::new("git")
        .args(["status", "--porcelain"])
        .current_dir(workspace_root())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .is_some_and(|o| !o.stdout.is_empty());
    if dirty {
        format!("{rev}-dirty")
    } else {
        rev
    }
}

/// The summary document of one bench run: `bench`, the [`git_revision`]
/// it was measured at, the row count, the `unit` of its headline metric,
/// and one `results` row per scenario (each an object whose first field is
/// `"scenario"`, the key [`crate::delta`] matches rows by).
pub fn summary(bench: &str, unit: &str, rows: Vec<Json>) -> Json {
    Json::obj([
        ("bench", bench.into()),
        ("revision", git_revision().into()),
        ("scenarios", rows.len().into()),
        ("unit", unit.into()),
        ("results", Json::Arr(rows)),
    ])
}

/// The workspace root (two levels above this crate's manifest).
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the workspace root")
        .to_path_buf()
}

/// Writes the [`summary`] as `BENCH_<bench>.json` at the workspace root
/// and returns its path.
///
/// # Errors
///
/// Any I/O error from creating or writing the file.
pub fn write_summary(bench: &str, unit: &str, rows: Vec<Json>) -> std::io::Result<PathBuf> {
    let path = workspace_root().join(format!("BENCH_{bench}.json"));
    std::fs::write(&path, format!("{}\n", summary(bench, unit, rows)))?;
    Ok(path)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::hist::Histogram;

    /// One `BENCH_service_latency.json` row from fixed numbers, built the
    /// way the `service_latency` bench builds it from a soak report.
    pub(crate) fn sample_row(scenario: &str, scale: u64) -> Json {
        let mut h = Histogram::new();
        for v in [100, 200, 400, 900, 5_000] {
            h.record(v * scale);
        }
        let l = h.summary();
        let ops = 5_000;
        let elapsed = Duration::from_millis(20 * scale);
        let audit_pause = Duration::from_millis(2);
        Json::obj([
            ("scenario", scenario.into()),
            ("ops", ops.into()),
            ("rejected", 0u64.into()),
            ("audits", 3u64.into()),
            ("online_probes", 12u64.into()),
            ("online_probes_passed", 12u64.into()),
            ("elapsed_ns", elapsed.as_nanos().into()),
            ("audit_pause_ns", audit_pause.as_nanos().into()),
            ("resizes", scale.into()),
            ("resize_pause_ns", (100_000 * scale).into()),
            ("ops_per_sec", Json::fixed(ops_per_sec(ops, elapsed), 1)),
            (
                "ops_per_sec_load",
                Json::fixed(ops_per_sec(ops, elapsed - audit_pause), 1),
            ),
            ("mean_ns", Json::fixed(l.mean, 1)),
            ("p50_ns", l.p50.into()),
            ("p90_ns", l.p90.into()),
            ("p99_ns", l.p99.into()),
            ("p999_ns", l.p999.into()),
            ("max_ns", l.max.into()),
            ("queue_wait_p50_ns", l.p50.into()),
            ("queue_wait_p99_ns", l.p99.into()),
            ("queue_wait_p999_ns", l.p999.into()),
            ("service_p50_ns", l.p50.into()),
            ("service_p99_ns", l.p99.into()),
            ("service_p999_ns", l.p999.into()),
        ])
    }

    /// Asserts that `doc` carries the golden document's fields, in order,
    /// with its values; only the revision stamp may differ.
    fn assert_matches_golden(golden: &str, mut doc: Json) {
        let golden = Json::parse(golden).expect("golden parses");
        let revision = doc.get("revision").and_then(Json::as_str);
        assert!(
            revision.is_some_and(|r| !r.is_empty()),
            "perf trajectory is keyed by revision"
        );
        if let Json::Obj(fields) = &mut doc {
            fields[1].1 = golden.get("revision").cloned().expect("golden revision");
        }
        assert_eq!(Json::parse(&doc.to_string()), Ok(golden));
    }

    #[test]
    fn api_throughput_doc_matches_golden() {
        let row = |scenario: &str, ops: usize, elapsed: Duration| {
            Json::obj([
                ("scenario", scenario.into()),
                ("ops", ops.into()),
                ("elapsed_ns", elapsed.as_nanos().into()),
                ("ops_per_sec", Json::fixed(ops_per_sec(ops, elapsed), 1)),
            ])
        };
        let doc = summary(
            "api_throughput",
            "ops_per_sec",
            vec![
                row("a/b", 100, Duration::from_millis(5)),
                row("c\"d", 2, Duration::from_nanos(10)),
            ],
        );
        assert!(doc.to_string().contains(r#""c\"d""#), "quotes are escaped");
        assert_matches_golden(
            include_str!("../../../tests/golden/BENCH_api_throughput.json"),
            doc,
        );
    }

    #[test]
    fn service_latency_doc_matches_golden() {
        let doc = summary(
            "service_latency",
            "ns",
            vec![sample_row("soak/a", 1), sample_row("soak/b", 2)],
        );
        assert_matches_golden(
            include_str!("../../../tests/golden/BENCH_service_latency.json"),
            doc,
        );
    }

    #[test]
    fn rendering_is_one_row_per_line_and_escaped() {
        let doc = summary(
            "x",
            "ns",
            vec![sample_row("soak/a", 1), sample_row("soak/b", 2)],
        );
        let text = doc.to_string();
        assert!(text.starts_with("{\n  \"bench\": \"x\",\n"), "{text}");
        assert_eq!(text.lines().count(), 10, "{text}");
        assert!(text
            .lines()
            .nth(6)
            .unwrap()
            .starts_with("    {\"scenario\": \"soak/a\""));
        assert_eq!(Json::Arr(vec![]).to_string(), "[]");
        assert_eq!(Json::fixed(2.0 / 3.0, 2).to_string(), "0.67");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        let text = Json::from("q\"b\\c\n").to_string();
        assert_eq!(text, r#""q\"b\\c\u000a""#);
    }

    #[test]
    fn git_revision_is_nonempty() {
        assert!(!git_revision().is_empty());
    }

    #[test]
    fn ops_per_sec_is_finite() {
        assert!(ops_per_sec(7, Duration::ZERO).is_finite());
    }
}
