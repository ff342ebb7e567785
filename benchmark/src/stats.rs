//! Order statistics, the result line, a minimal JSON reader, and `compare`.
//!
//! Nothing here knows about the repo under test; `adapter.rs` is the only
//! file that does.

use std::fmt::Write as _;

/// Median of `values` (mean of the two middle elements for even counts).
/// Returns 0 for an empty slice so an unused layer reads as "not exercised".
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Exact order statistic: the smallest sample with at least `pct` percent of
/// the samples at or below it (nearest-rank), over *all* samples — no
/// histogram buckets. `sorted` must be ascending and non-empty.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of p99 / p95 / p90 / p50 that still has at least ten samples
/// beyond it — the tail a sample of this size supports.
pub fn highest_supported_percentile(samples: usize) -> f64 {
    [99.0, 95.0, 90.0]
        .into_iter()
        .find(|p| samples as f64 * (100.0 - p) / 100.0 >= 10.0)
        .unwrap_or(50.0)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the "exclusive" method), so the spread printed here is the one the
/// driver computes. Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let m = data.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median.
pub fn relative_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// One named measurement of the result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Self { name, unit, value }
    }
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`,
/// `metrics`. Values print with Rust's shortest round-trip formatting, so
/// every measured digit survives.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        )
        .expect("write to String");
    }
    out.push_str("}}");
    out
}

/// A parsed JSON value (objects keep insertion order).
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
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.pos != p.s.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(v)
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            _ => &[],
        }
    }

    pub fn fields(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(f) => f,
            _ => &[],
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.pos < self.s.len() && self.s[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.s[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, lit: &str) -> Result<(), String> {
        self.ws();
        if self.eat(lit) {
            Ok(())
        } else {
            Err(format!("expected '{lit}' at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.pos) {
            None => Err("unexpected end of input".into()),
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.eat("}") {
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.expect(":")?;
                    fields.push((key, self.value()?));
                    self.ws();
                    if self.eat("}") {
                        return Ok(Json::Obj(fields));
                    }
                    self.expect(",")?;
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.ws();
                if self.eat("]") {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    self.expect(",")?;
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => {
                let start = self.pos;
                while self.pos < self.s.len()
                    && matches!(
                        self.s[self.pos],
                        b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
                    )
                {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.s[start..self.pos])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad value at offset {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.pos) != Some(&b'"') {
            return Err(format!("expected string at offset {}", self.pos));
        }
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            match self.s.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let esc = *self.s.get(self.pos + 1).ok_or("unterminated escape")?;
                    self.pos += 2;
                    match esc {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let hex = self.s.get(self.pos..self.pos + 4).ok_or("short \\u")?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            out.extend_from_slice(code.to_string().as_bytes());
                            self.pos += 4;
                        }
                        other => out.push(other),
                    }
                }
                Some(&b) => {
                    out.push(b);
                    self.pos += 1;
                }
            }
        }
    }
}

/// Values of every end-to-end metric per workload, read from a set file:
/// one JSON object per line, `{"workload", "seed", "trace", "result"}`, as
/// `run.sh` writes them. Traced runs are skipped.
fn read_set(path: &str) -> Result<Vec<(String, String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut rows = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let run = Json::parse(line).map_err(|e| format!("{path}: {e}"))?;
        if run.get("trace").and_then(Json::num) != Some(0.0) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Json::str)
            .ok_or_else(|| format!("{path}: run without a workload"))?;
        let metrics = run
            .get("result")
            .and_then(|r| r.get("metrics"))
            .ok_or_else(|| format!("{path}: run without result.metrics"))?;
        for (name, m) in metrics.fields() {
            if let Some(v) = m.get("value").and_then(Json::num) {
                rows.push((workload.to_string(), name.clone(), v));
            }
        }
    }
    Ok(rows)
}

/// `benchmark compare A B`: per workload and end-to-end metric, both medians
/// with their spreads, the ratio B/A with its base, and a verdict against the
/// bound `BENCHMARK.json` fixes. Returns the report and whether any metric
/// came out `worse` or `unresolved`.
pub fn compare(spec_path: &str, a_path: &str, b_path: &str) -> Result<(String, bool), String> {
    let spec_text = std::fs::read_to_string(spec_path).map_err(|e| format!("{spec_path}: {e}"))?;
    let spec = Json::parse(&spec_text)?;
    let a = read_set(a_path)?;
    let b = read_set(b_path)?;
    let mut report = format!(
        "{:<20} {:<18} {:>12} {:>7} {:>12} {:>7} {:>8} {:>6}  verdict\n",
        "workload", "metric", "A median", "A iqr", "B median", "B iqr", "B/A", "bound"
    );
    let mut flagged = false;
    let pick = |rows: &[(String, String, f64)], w: &str, m: &str| -> Vec<f64> {
        rows.iter()
            .filter(|(rw, rm, _)| rw == w && rm == m)
            .map(|r| r.2)
            .collect()
    };
    for workload in spec.get("workloads").map(Json::items).unwrap_or(&[]) {
        let w = workload.get("name").and_then(Json::str).unwrap_or("");
        for metric in spec.get("end_to_end").map(Json::items).unwrap_or(&[]) {
            let m = metric.get("name").and_then(Json::str).unwrap_or("");
            let bound = metric.get("bound").and_then(Json::num).unwrap_or(0.0);
            let lower_better = metric.get("better").and_then(Json::str) == Some("lower");
            let (mut va, mut vb) = (pick(&a, w, m), pick(&b, w, m));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let spread = |v: &[f64]| {
                if v.len() >= 2 {
                    relative_spread(v)
                } else {
                    0.0
                }
            };
            let (sa, sb) = (spread(&va), spread(&vb));
            let (ma, mb) = (median(&mut va), median(&mut vb));
            let ratio = if ma == 0.0 { 1.0 } else { mb / ma };
            // Relative change, signed so that positive means B is worse.
            let worse_by = if lower_better {
                ratio - 1.0
            } else {
                1.0 - ratio
            };
            let verdict = if sa.max(sb) > bound {
                "unresolved"
            } else if worse_by > bound {
                "worse"
            } else if -worse_by > bound {
                "better"
            } else {
                "within bound"
            };
            flagged |= matches!(verdict, "worse" | "unresolved");
            writeln!(
                report,
                "{w:<20} {m:<18} {ma:>12.4} {:>6.1}% {mb:>12.4} {:>6.1}% {ratio:>8.4} {:>5.0}%  {verdict} (base {ma:.4}, n={}/{})",
                sa * 100.0,
                sb * 100.0,
                bound * 100.0,
                va.len(),
                vb.len(),
            )
            .expect("write to String");
        }
    }
    Ok((report, flagged))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_an_exact_order_statistic() {
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 500.0);
        assert_eq!(percentile(&sorted, 99.0), 990.0);
        assert_eq!(percentile(&sorted, 100.0), 1000.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(1000), 99.0);
        assert_eq!(highest_supported_percentile(999), 95.0);
        assert_eq!(highest_supported_percentile(200), 95.0);
        assert_eq!(highest_supported_percentile(199), 90.0);
        assert_eq!(highest_supported_percentile(99), 50.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), [0.5, 2.0, 3.5]);
        assert!((relative_spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn result_line_round_trips_through_the_reader() {
        let line = result_line(
            true,
            12,
            0,
            &[
                Metric::new("latency_p50_ms", "ms", 1.203_456_789),
                Metric::new("setup_s", "s", 0.25),
            ],
        );
        let v = Json::parse(&line).expect("valid JSON");
        let keys: Vec<&str> = v.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("attempted").and_then(Json::num), Some(12.0));
        let m = v.get("metrics").expect("metrics");
        assert_eq!(
            m.get("latency_p50_ms")
                .and_then(|x| x.get("value"))
                .and_then(Json::num),
            Some(1.203_456_789)
        );
        assert_eq!(
            m.get("setup_s")
                .and_then(|x| x.get("unit"))
                .and_then(Json::str),
            Some("s")
        );
    }

    #[test]
    fn reader_rejects_garbage() {
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("{} x").is_err());
        assert_eq!(
            Json::parse(" [1, -2.5e1, \"a\\nb\", null, true] ").unwrap(),
            Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(-25.0),
                Json::Str("a\nb".into()),
                Json::Null,
                Json::Bool(true)
            ])
        );
    }
}
