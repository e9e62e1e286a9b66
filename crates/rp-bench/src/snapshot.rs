//! The `BENCH_*.json` snapshot format: one writer ([`Report`]), one
//! reader ([`flatten_json_numbers`]) and the ranked diff of two
//! snapshots ([`obs_diff_report`]) that `baseline --obs-diff` prints and
//! a perf-budget breach uses to name its culprit.
//!
//! A snapshot is `{"schema": 1, "units": "…", "metrics": {"name": value,
//! …}}`; the reader also takes any other JSON document, such as the
//! `rp-obs` metrics export in `BENCH_obs.json`.

use std::collections::{BTreeMap, BTreeSet};

use rp_obs::JsonValue;

/// One snapshot: named metrics, written with a fixed number of decimals
/// under a one-line note on their units.
pub struct Report {
    units: &'static str,
    decimals: i32,
    metrics: Vec<(String, f64)>,
}

impl Report {
    /// An empty report whose metrics are written with `decimals`
    /// decimals under the note `units`.
    pub fn new(units: &'static str, decimals: i32) -> Self {
        let metrics = Vec::new();
        Report {
            units,
            decimals,
            metrics,
        }
    }

    /// Records `value` under `name`. `None` (a measurement that did not
    /// happen) records nothing; NaN and infinities, which JSON cannot
    /// carry, are dropped with a warning.
    pub fn push(&mut self, name: impl Into<String>, value: impl Into<Option<f64>>) {
        let (name, Some(value)) = (name.into(), value.into()) else {
            return;
        };
        if value.is_finite() {
            self.metrics.push((name, value));
        } else {
            eprintln!("skipping non-finite metric {name} = {value}");
        }
    }

    /// Records a measured `(cost gap %, wall ms)` pair as
    /// `<name>_gap_pct` and `<name>_ms`.
    pub fn push_gap(&mut self, name: &str, measured: Option<(f64, f64)>) {
        self.push(format!("{name}_gap_pct"), measured.map(|m| m.0));
        self.push(format!("{name}_ms"), measured.map(|m| m.1));
    }

    /// Renders `{"schema": 1, "units": …, "metrics": {…}}`, one metric
    /// per line, each rounded to the report's decimals.
    pub fn to_json(&self) -> String {
        let scale = 10f64.powi(self.decimals);
        let mut out = String::from("{\n  \"schema\": 1,\n  \"units\": ");
        JsonValue::Str(self.units).render(&mut out);
        out.push_str(",\n  \"metrics\": {");
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            JsonValue::Str(name).render(&mut out);
            out.push_str(": ");
            // `+ 0.0` turns a rounded -0 into 0.
            JsonValue::F64((value * scale).round() / scale + 0.0).render(&mut out);
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

/// Flattens a JSON document into dotted-path numeric leaves
/// (`counters` → `lp.solves` becomes `counters.lp.solves`; array
/// elements are indexed, `path.0`, `path.1`, …). Strings, booleans and
/// nulls are skipped — a diff only ranks numbers. Hand-rolled: the
/// inputs are the workspace's own exports. `None` on malformed input.
pub fn flatten_json_numbers(text: &str) -> Option<Vec<(String, f64)>> {
    let (mut rest, mut out) = (text, Vec::new());
    json_value(&mut rest, "", &mut out)?;
    rest.trim_start().is_empty().then_some(out)
}

/// Consumes `token` as the next non-whitespace character of `rest`.
fn json_eat(rest: &mut &str, token: char) -> Option<()> {
    *rest = rest.trim_start().strip_prefix(token)?;
    Some(())
}

/// Reads a string literal off `rest`. An escaped character is kept
/// verbatim: metric names carry no escapes, and a skipped string value
/// only needs its closing quote found.
fn json_string(rest: &mut &str) -> Option<String> {
    json_eat(rest, '"')?;
    let (text, mut raw) = (*rest, String::new());
    let mut chars = text.char_indices();
    while let Some((at, c)) = chars.next() {
        match c {
            '"' => {
                *rest = &text[at + 1..];
                return Some(raw);
            }
            '\\' => raw.push(chars.next()?.1),
            c => raw.push(c),
        }
    }
    None
}

/// Reads the value at `path` off `rest`, pushing its numbers onto `out`.
fn json_value(rest: &mut &str, path: &str, out: &mut Vec<(String, f64)>) -> Option<()> {
    let text = rest.trim_start();
    let close = match text.chars().next()? {
        '{' => '}',
        '[' => ']',
        '"' => return json_string(rest).map(drop),
        _ => {
            let scalar = |c: char| c.is_ascii_alphanumeric() || "+-.".contains(c);
            let (token, tail) = text.split_at(text.find(|c| !scalar(c)).unwrap_or(text.len()));
            *rest = tail;
            if !matches!(token, "true" | "false" | "null") {
                let value = token.parse::<f64>().ok().filter(|v| v.is_finite())?;
                out.push((path.to_string(), value));
            }
            return Some(());
        }
    };
    // The comma-separated members of an object or array.
    *rest = &text[1..];
    if json_eat(rest, close).is_some() {
        return Some(());
    }
    for index in 0usize.. {
        let key = match close {
            '}' => {
                let key = json_string(rest)?;
                json_eat(rest, ':')?;
                key
            }
            _ => index.to_string(),
        };
        let dot = if path.is_empty() { "" } else { "." };
        json_value(rest, &format!("{path}{dot}{key}"), out)?;
        if json_eat(rest, close).is_some() {
            return Some(());
        }
        json_eat(rest, ',')?;
    }
    None
}

/// Renders an obs-diff attribution report: the top `top` movers between
/// two JSON snapshots, biggest first by `|new − old| / max(|old|, 1)` (a
/// metric that appears or vanishes scores its absolute value; unchanged
/// ones are left out). Fails when either snapshot is not valid JSON.
pub fn obs_diff_report(old_text: &str, new_text: &str, top: usize) -> Result<String, String> {
    let old = flatten_json_numbers(old_text).ok_or("old snapshot is not valid JSON")?;
    let new = flatten_json_numbers(new_text).ok_or("new snapshot is not valid JSON")?;
    let total = old.len().max(new.len());
    let (old, new): (BTreeMap<_, _>, BTreeMap<_, _>) =
        (old.into_iter().collect(), new.into_iter().collect());
    let names: BTreeSet<&String> = old.keys().chain(new.keys()).collect();
    let mut movers = Vec::new();
    for name in names {
        let (score, change) = match (old.get(name), new.get(name)) {
            (Some(o), Some(n)) if o == n => continue,
            // Same denominator as the score, so a counter rising from
            // zero reads `+4900.0%`, not `+inf%`.
            (Some(o), Some(n)) => {
                let score = (n - o).abs() / o.abs().max(1.0);
                let pct = 100.0 * (n - o) / o.abs().max(1.0);
                (score, format!("{o} -> {n} ({pct:+.1}%)"))
            }
            (None, Some(n)) => (n.abs().max(1.0), format!("(new) -> {n}")),
            (Some(o), None) => (o.abs().max(1.0), format!("{o} -> (gone)")),
            (None, None) => continue,
        };
        movers.push((score, name, change));
    }
    movers.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(b.1)));
    let shown = top.min(movers.len());
    let moved = movers.len();
    let mut out = format!("obs-diff: {moved} of {total} metrics moved (top {shown} below)\n");
    for (_, name, change) in &movers[..shown] {
        out.push_str(&format!("  {name}: {change}\n"));
    }
    if movers.is_empty() {
        out.push_str("  (snapshots are numerically identical)\n");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_output_round_trips_through_the_reader() {
        let mut report = Report::new("ns \"quoted\"", 1);
        report.push("lp/solve/400_ms", 3.25);
        report.push("allocs/zero", -0.01);
        report.push("count", 1830.0);
        report.push("never_measured", None);
        report.push("not_json", f64::NAN);
        report.push_gap("lp_guided/s40", Some((25.0, 0.72)));
        let flat = flatten_json_numbers(&report.to_json());
        let expected = [
            ("schema", 1.0),
            ("metrics.lp/solve/400_ms", 3.3),
            ("metrics.allocs/zero", 0.0),
            ("metrics.count", 1830.0),
            ("metrics.lp_guided/s40_gap_pct", 25.0),
            ("metrics.lp_guided/s40_ms", 0.7),
        ];
        let expected = expected.map(|(name, value)| (name.to_string(), value));
        assert_eq!(flat, Some(expected.to_vec()));
        report.decimals = 3;
        assert!(report.to_json().contains("\"lp/solve/400_ms\": 3.25,"));
    }
}
