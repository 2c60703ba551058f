//! JSON-lines record validation.
//!
//! The event schema is documented in DESIGN.md § Observability.
//! `repro trace-bfs` runs the validator over the trace it writes, and CI
//! runs it over that trace and the serve smoke's, so the documented
//! schema and the emitted records cannot drift apart.

use crate::json::{parse, Json};

const KINDS: [&str; 5] = ["span_enter", "span_exit", "point", "histogram", "counter"];

/// Validate one JSON-lines record against the telemetry schema.
pub fn validate_line(line: &str) -> Result<(), String> {
    let v = parse(line).map_err(|e| format!("not valid JSON: {e}"))?;
    if !matches!(v, Json::Obj(_)) {
        return Err("record is not a JSON object".into());
    }

    let require_u64 = |key: &str| -> Result<u64, String> {
        v.get(key)
            .ok_or_else(|| format!("missing required key '{key}'"))?
            .as_u64()
            .ok_or_else(|| format!("'{key}' is not a non-negative integer"))
    };

    require_u64("ts_us")?;
    require_u64("span")?;
    require_u64("parent")?;
    require_u64("thread")?;

    let kind = v
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("missing or non-string 'kind'")?;
    if !KINDS.contains(&kind) {
        return Err(format!("unknown kind '{kind}'"));
    }

    let name = v
        .get("name")
        .and_then(Json::as_str)
        .ok_or("missing or non-string 'name'")?;
    if name.is_empty() {
        return Err("'name' is empty".into());
    }

    match kind {
        "span_exit" => {
            require_u64("elapsed_ns")?;
        }
        "histogram" => {
            let fields = v.get("fields").ok_or("histogram record missing 'fields'")?;
            let edges = u64_array(fields, "edges")?;
            let counts = u64_array(fields, "counts")?;
            if edges.len() != counts.len() {
                return Err(format!(
                    "histogram edges/counts length mismatch ({} vs {})",
                    edges.len(),
                    counts.len()
                ));
            }
            if edges.windows(2).any(|w| w[0] >= w[1]) {
                return Err("histogram edges are not strictly increasing".into());
            }
        }
        "counter" => {
            let fields = v.get("fields").ok_or("counter record missing 'fields'")?;
            fields
                .get("value")
                .and_then(Json::as_u64)
                .ok_or("counter record missing integer 'fields.value'")?;
        }
        _ => {}
    }

    if v.get("elapsed_ns").is_some() && kind != "span_exit" {
        return Err(format!(
            "'elapsed_ns' is only valid on span_exit, not {kind}"
        ));
    }
    Ok(())
}

fn u64_array(fields: &Json, key: &str) -> Result<Vec<u64>, String> {
    fields
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing array 'fields.{key}'"))?
        .iter()
        .map(|x| {
            x.as_u64()
                .ok_or_else(|| format!("'fields.{key}' has a non-integer element"))
        })
        .collect()
}

/// Validate every non-empty line of a JSON-lines document; returns the
/// number of records on success, or `(line_number, error)` on the first
/// failure (line numbers are 1-based).
pub fn validate_jsonl(text: &str) -> Result<usize, (usize, String)> {
    let mut records = 0;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        validate_line(line).map_err(|e| (i + 1, e))?;
        records += 1;
    }
    Ok(records)
}

/// Validate Prometheus text exposition format (v0.0.4): `# HELP` /
/// `# TYPE` comment lines plus sample lines matching
/// `name{label="escaped value",...} value [timestamp]`.  Returns the
/// number of sample lines, or `(line_number, error)` on the first
/// violation (1-based).  Used by the sink conformance tests, the serve
/// integration test, and CI's scrape schema check (`promcheck`).
///
/// Families declared `# TYPE ... histogram` get the full histogram
/// grammar: samples must be `<name>_bucket` (with an `le` label whose
/// value is a float or `+Inf`, ascending, cumulative counts
/// non-decreasing, ending in an `le="+Inf"` bucket), `<name>_sum`, or
/// `<name>_count`; a bare `<name>` sample is rejected, and `_count`
/// must agree with the `+Inf` bucket.
pub fn validate_exposition(text: &str) -> Result<usize, (usize, String)> {
    use std::collections::HashMap;

    #[derive(Default)]
    struct HistFamily {
        type_line: usize,
        bucket_line: usize,
        last_le: Option<f64>,
        last_cum: f64,
        inf_value: Option<f64>,
        count_value: Option<f64>,
        saw_sample: bool,
    }

    let mut samples = 0;
    let mut types: HashMap<String, String> = HashMap::new();
    let mut hist: HashMap<String, HistFamily> = HashMap::new();
    for (i, line) in text.lines().enumerate() {
        let at = |e: String| (i + 1, e);
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest
                .split_once(' ')
                .ok_or_else(|| at("HELP line has no help text".into()))?;
            check_metric_name(name).map_err(at)?;
            if help.contains('\n') {
                return Err(at("HELP text contains a raw newline".into()));
            }
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest
                .split_once(' ')
                .ok_or_else(|| at("TYPE line has no type".into()))?;
            check_metric_name(name).map_err(at)?;
            if !["counter", "gauge", "histogram", "summary", "untyped"].contains(&kind) {
                return Err(at(format!("unknown metric type '{kind}'")));
            }
            if types.insert(name.to_owned(), kind.to_owned()).is_some() {
                return Err(at(format!("duplicate TYPE declaration for '{name}'")));
            }
            if kind == "histogram" {
                hist.insert(
                    name.to_owned(),
                    HistFamily {
                        type_line: i + 1,
                        ..HistFamily::default()
                    },
                );
            }
        } else if line.starts_with('#') {
            // Free-form comments are legal.
        } else {
            let sample = validate_sample_line(line).map_err(at)?;
            samples += 1;
            if hist.contains_key(&sample.name) {
                return Err(at(format!(
                    "histogram family '{}' may only expose _bucket/_sum/_count samples",
                    sample.name
                )));
            }
            let (family, suffix) = match ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|s| sample.name.strip_suffix(s).map(|base| (base, *s)))
            {
                Some((base, s)) if hist.contains_key(base) => (base.to_owned(), s),
                _ => continue,
            };
            let f = hist.get_mut(&family).unwrap();
            f.saw_sample = true;
            match suffix {
                "_bucket" => {
                    let le = sample.le.as_deref().ok_or_else(|| {
                        at(format!(
                            "histogram bucket '{}' has no le label",
                            sample.name
                        ))
                    })?;
                    let le = if le == "+Inf" {
                        f64::INFINITY
                    } else {
                        le.parse::<f64>().map_err(|_| {
                            at(format!("histogram bucket le '{le}' is not a float or +Inf"))
                        })?
                    };
                    if f.last_le.is_some_and(|prev| le <= prev) {
                        return Err(at(format!(
                            "histogram '{family}' buckets not in ascending le order"
                        )));
                    }
                    if sample.value < f.last_cum {
                        return Err(at(format!(
                            "histogram '{family}' cumulative bucket counts decreased"
                        )));
                    }
                    f.last_le = Some(le);
                    f.last_cum = sample.value;
                    f.bucket_line = i + 1;
                    if le.is_infinite() {
                        f.inf_value = Some(sample.value);
                    }
                }
                "_count" => f.count_value = Some(sample.value),
                _ => {}
            }
        }
    }
    for (family, f) in &hist {
        if !f.saw_sample {
            continue;
        }
        let line = if f.bucket_line > 0 {
            f.bucket_line
        } else {
            f.type_line
        };
        let inf = f.inf_value.ok_or_else(|| {
            (
                line,
                format!("histogram '{family}' is missing an le=\"+Inf\" bucket"),
            )
        })?;
        if let Some(count) = f.count_value {
            if count != inf {
                return Err((
                    line,
                    format!(
                        "histogram '{family}' _count ({count}) disagrees with +Inf bucket ({inf})"
                    ),
                ));
            }
        }
    }
    Ok(samples)
}

fn is_name_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b == b':'
}

fn is_name_char(b: u8) -> bool {
    is_name_start(b) || b.is_ascii_digit()
}

fn check_metric_name(name: &str) -> Result<(), String> {
    let bytes = name.as_bytes();
    if bytes.is_empty() || !is_name_start(bytes[0]) || !bytes.iter().all(|&b| is_name_char(b)) {
        return Err(format!("invalid metric name '{name}'"));
    }
    Ok(())
}

/// A parsed exposition sample: the metric name, the raw (unescaped)
/// value of an `le` label if one is present, and the sample value.
struct ParsedSample {
    name: String,
    le: Option<String>,
    value: f64,
}

fn validate_sample_line(line: &str) -> Result<ParsedSample, String> {
    let bytes = line.as_bytes();
    let mut pos = 0usize;
    if bytes.is_empty() || !is_name_start(bytes[0]) {
        return Err("sample line must start with a metric name".into());
    }
    while pos < bytes.len() && is_name_char(bytes[pos]) {
        pos += 1;
    }
    let name = line[..pos].to_owned();
    let mut le = None;
    if bytes.get(pos) == Some(&b'{') {
        pos += 1;
        loop {
            // Label name.
            let label_start = pos;
            match bytes.get(pos) {
                Some(&b) if b.is_ascii_alphabetic() || b == b'_' => pos += 1,
                _ => return Err(format!("expected label name at byte {pos}")),
            }
            while matches!(bytes.get(pos), Some(&b) if b.is_ascii_alphanumeric() || b == b'_') {
                pos += 1;
            }
            let label = &line[label_start..pos];
            if bytes.get(pos) != Some(&b'=') {
                return Err(format!("expected '=' at byte {pos}"));
            }
            pos += 1;
            if bytes.get(pos) != Some(&b'"') {
                return Err(format!("expected '\"' at byte {pos}"));
            }
            pos += 1;
            let value_start = pos;
            // Escaped label value: only \\, \", and \n escapes are legal.
            loop {
                match bytes.get(pos) {
                    None => return Err("unterminated label value".into()),
                    Some(b'"') => {
                        if label == "le" {
                            le = Some(line[value_start..pos].to_owned());
                        }
                        pos += 1;
                        break;
                    }
                    Some(b'\\') => match bytes.get(pos + 1) {
                        Some(b'\\') | Some(b'"') | Some(b'n') => pos += 2,
                        _ => return Err(format!("bad escape in label value at byte {pos}")),
                    },
                    Some(_) => pos += 1,
                }
            }
            match bytes.get(pos) {
                Some(b',') => pos += 1,
                Some(b'}') => {
                    pos += 1;
                    break;
                }
                _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
            }
        }
    }
    if bytes.get(pos) != Some(&b' ') {
        return Err(format!("expected space before value at byte {pos}"));
    }
    let mut rest = line[pos + 1..].splitn(2, ' ');
    let value = rest.next().unwrap_or("");
    let value: f64 = value
        .parse()
        .map_err(|_| format!("invalid sample value '{value}'"))?;
    if let Some(ts) = rest.next() {
        ts.parse::<i64>()
            .map_err(|_| format!("invalid timestamp '{ts}'"))?;
    }
    Ok(ParsedSample { name, le, value })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_accepts_well_formed_text() {
        let text = "# HELP graphct_edges_total Edges processed\n\
                    # TYPE graphct_edges_total counter\n\
                    graphct_edges_total 42\n\
                    # TYPE graphct_span_seconds_total counter\n\
                    graphct_span_seconds_total{span=\"bfs\"} 1.500000000\n\
                    graphct_span_seconds_total{span=\"a\\\"b\",dir=\"push\"} 0.25 1700000000\n";
        assert_eq!(validate_exposition(text), Ok(3));
    }

    #[test]
    fn exposition_rejects_violations() {
        // Bad metric name (space).
        assert!(validate_exposition("bad name 1\n").is_err());
        // Unescaped quote terminates the value early, leaving garbage.
        assert!(validate_exposition("m{span=\"a\"b\"} 1\n").is_err());
        // Bad escape sequence.
        assert!(validate_exposition("m{span=\"a\\x\"} 1\n").is_err());
        // Missing value.
        assert!(validate_exposition("graphct_x\n").is_err());
        // Non-numeric value.
        assert!(validate_exposition("graphct_x abc\n").is_err());
        // Unknown TYPE.
        assert!(validate_exposition("# TYPE graphct_x thing\n").is_err());
        // Duplicate TYPE declaration.
        assert!(
            validate_exposition("# TYPE graphct_x counter\n# TYPE graphct_x counter\n").is_err()
        );
        // Raw newline inside a label value splits the line: first line is
        // left with an unterminated value.
        assert!(validate_exposition("m{span=\"a\nb\"} 1\n").is_err());
        // Error reports the offending line number.
        let err = validate_exposition("graphct_ok 1\nbad name 1\n").unwrap_err();
        assert_eq!(err.0, 2);
    }

    #[test]
    fn exposition_accepts_histogram_families() {
        let text = "# HELP graphct_batch_ns Batch latency\n\
                    # TYPE graphct_batch_ns histogram\n\
                    graphct_batch_ns_bucket{le=\"1\"} 2\n\
                    graphct_batch_ns_bucket{le=\"3\"} 5\n\
                    graphct_batch_ns_bucket{le=\"+Inf\"} 7\n\
                    graphct_batch_ns_sum 19\n\
                    graphct_batch_ns_count 7\n";
        assert_eq!(validate_exposition(text), Ok(5));
    }

    #[test]
    fn exposition_rejects_histogram_violations() {
        // Bucket without an le label.
        assert!(validate_exposition(
            "# TYPE graphct_h histogram\ngraphct_h_bucket 1\ngraphct_h_bucket{le=\"+Inf\"} 1\n"
        )
        .is_err());
        // le value neither float nor +Inf.
        assert!(validate_exposition(
            "# TYPE graphct_h histogram\ngraphct_h_bucket{le=\"wide\"} 1\n"
        )
        .is_err());
        // Missing the +Inf bucket entirely.
        assert!(
            validate_exposition("# TYPE graphct_h histogram\ngraphct_h_bucket{le=\"1\"} 1\n")
                .is_err()
        );
        // Buckets out of ascending le order.
        assert!(validate_exposition(
            "# TYPE graphct_h histogram\n\
             graphct_h_bucket{le=\"4\"} 1\n\
             graphct_h_bucket{le=\"2\"} 2\n\
             graphct_h_bucket{le=\"+Inf\"} 2\n"
        )
        .is_err());
        // Cumulative counts decreasing.
        assert!(validate_exposition(
            "# TYPE graphct_h histogram\n\
             graphct_h_bucket{le=\"2\"} 5\n\
             graphct_h_bucket{le=\"+Inf\"} 3\n"
        )
        .is_err());
        // _count disagreeing with the +Inf bucket.
        assert!(validate_exposition(
            "# TYPE graphct_h histogram\n\
             graphct_h_bucket{le=\"+Inf\"} 3\n\
             graphct_h_count 4\n"
        )
        .is_err());
        // A bare sample under a histogram TYPE.
        assert!(
            validate_exposition("# TYPE graphct_h histogram\ngraphct_h 3\n").is_err(),
            "histogram family must not expose a bare sample"
        );
        // An le label on an undeclared family stays legal (untyped).
        assert_eq!(
            validate_exposition("graphct_free_bucket{le=\"1\"} 1\n"),
            Ok(1)
        );
    }

    #[test]
    fn accepts_well_formed_records() {
        validate_line(r#"{"ts_us":1,"kind":"point","name":"x","span":0,"parent":0,"thread":0}"#)
            .unwrap();
        validate_line(
            r#"{"ts_us":1,"kind":"span_exit","name":"bfs","span":3,"parent":1,"thread":2,"elapsed_ns":99}"#,
        )
        .unwrap();
        validate_line(
            r#"{"ts_us":1,"kind":"histogram","name":"h","span":0,"parent":0,"thread":0,"fields":{"edges":[1,2,4],"counts":[5,0,1]}}"#,
        )
        .unwrap();
        validate_line(
            r#"{"ts_us":1,"kind":"counter","name":"c","span":0,"parent":0,"thread":0,"fields":{"value":12,"gauge":false}}"#,
        )
        .unwrap();
    }

    #[test]
    fn rejects_malformed_records() {
        // not JSON
        assert!(validate_line("nope").is_err());
        // missing ts_us
        assert!(
            validate_line(r#"{"kind":"point","name":"x","span":0,"parent":0,"thread":0}"#).is_err()
        );
        // unknown kind
        assert!(validate_line(
            r#"{"ts_us":1,"kind":"mystery","name":"x","span":0,"parent":0,"thread":0}"#
        )
        .is_err());
        // span_exit without elapsed_ns
        assert!(validate_line(
            r#"{"ts_us":1,"kind":"span_exit","name":"x","span":1,"parent":0,"thread":0}"#
        )
        .is_err());
        // elapsed_ns on a point
        assert!(validate_line(
            r#"{"ts_us":1,"kind":"point","name":"x","span":0,"parent":0,"thread":0,"elapsed_ns":5}"#
        )
        .is_err());
        // histogram length mismatch
        assert!(validate_line(
            r#"{"ts_us":1,"kind":"histogram","name":"h","span":0,"parent":0,"thread":0,"fields":{"edges":[1,2],"counts":[1]}}"#
        )
        .is_err());
        // histogram edges not increasing
        assert!(validate_line(
            r#"{"ts_us":1,"kind":"histogram","name":"h","span":0,"parent":0,"thread":0,"fields":{"edges":[2,2],"counts":[1,1]}}"#
        )
        .is_err());
        // empty name
        assert!(validate_line(
            r#"{"ts_us":1,"kind":"point","name":"","span":0,"parent":0,"thread":0}"#
        )
        .is_err());
    }

    #[test]
    fn validates_documents_with_line_numbers() {
        let good = "{\"ts_us\":1,\"kind\":\"point\",\"name\":\"a\",\"span\":0,\"parent\":0,\"thread\":0}\n\n{\"ts_us\":2,\"kind\":\"point\",\"name\":\"b\",\"span\":0,\"parent\":0,\"thread\":0}\n";
        assert_eq!(validate_jsonl(good), Ok(2));
        let bad = format!("{good}garbage\n");
        assert_eq!(validate_jsonl(&bad).unwrap_err().0, 4);
    }
}
