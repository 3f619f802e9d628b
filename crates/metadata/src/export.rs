//! JSON export of catalog records — the interchange format the
//! DataBrowser's planned "web GUI" (paper, slide 9) would consume.
//!
//! Hand-rolled writer (~100 lines) rather than a serde format crate, to
//! stay within the workspace's offline dependency set; the output is
//! strict RFC 8259 JSON.

use std::borrow::Borrow;

use crate::record::DatasetRecord;
use crate::schema::Document;
use crate::value::Value;

/// Escapes and quotes a string per RFC 8259.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders one metadata value.
pub fn value_to_json(v: &Value) -> String {
    match v {
        Value::Str(s) => json_string(s),
        Value::Int(i) => i.to_string(),
        Value::Float(x) => {
            if x.is_finite() {
                // Keep integral floats distinguishable from ints: `{:?}`
                // always writes a fraction or an exponent (`1.0`,
                // `1000000000000000.0`, `1e16`, `1e-7`), each an RFC 8259
                // number a reader parses as a float.
                format!("{x:?}")
            } else {
                // JSON has no Inf/NaN; schema validation rejects NaN, and
                // infinities become nulls rather than invalid output.
                "null".to_string()
            }
        }
        Value::Bool(b) => b.to_string(),
        Value::Time(t) => format!("{{\"time_ns\":{t}}}"),
    }
}

/// Renders a document as a JSON object (keys in BTreeMap order —
/// deterministic output).
pub fn document_to_json(doc: &Document) -> String {
    object_to_json(doc.iter().map(|(k, v)| (k.as_str(), v)))
}

fn object_to_json<'a>(entries: impl Iterator<Item = (&'a str, &'a Value)>) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in entries.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_string(k));
        out.push(':');
        out.push_str(&value_to_json(v));
    }
    out.push('}');
    out
}

/// Renders a full dataset record, including processing results and tags.
pub fn record_to_json(rec: &DatasetRecord) -> String {
    let tags: Vec<String> = rec.tags.iter().map(|t| json_string(t)).collect();
    let processing: Vec<String> = rec
        .processing
        .iter()
        .map(|p| {
            let keys: Vec<String> = p.derived_keys.iter().map(|k| json_string(k)).collect();
            format!(
                "{{\"step\":{},\"seq\":{},\"params\":{},\"results\":{},\"derived_keys\":[{}]}}",
                json_string(&p.step),
                p.seq,
                document_to_json(&p.params),
                document_to_json(&p.results),
                keys.join(",")
            )
        })
        .collect();
    format!(
        "{{\"id\":{},\"name\":{},\"location\":{},\"size_bytes\":{},\"checksum\":{},\
         \"basic\":{},\"tags\":[{}],\"processing\":[{}]}}",
        rec.id.0,
        json_string(&rec.name),
        json_string(&rec.location),
        rec.size_bytes,
        json_string(&rec.checksum_hex),
        object_to_json(rec.basic.iter()),
        tags.join(","),
        processing.join(",")
    )
}

/// Renders a result set as a JSON array.
pub fn records_to_json(recs: &[impl Borrow<DatasetRecord>]) -> String {
    let items: Vec<String> = recs.iter().map(|r| record_to_json(r.borrow())).collect();
    format!("[{}]", items.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{DatasetId, ProcessingResult};
    use crate::schema::SchemaBuilder;
    use crate::value::FieldType;

    #[test]
    fn string_escaping() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b"), "\"a\\\"b\"");
        assert_eq!(json_string("back\\slash"), "\"back\\\\slash\"");
        assert_eq!(json_string("line\nbreak"), "\"line\\nbreak\"");
        assert_eq!(json_string("ctrl\u{01}"), "\"ctrl\\u0001\"");
        assert_eq!(json_string("unicode: μ"), "\"unicode: μ\"");
    }

    #[test]
    fn value_rendering() {
        assert_eq!(value_to_json(&Value::Int(-5)), "-5");
        assert_eq!(value_to_json(&Value::Float(1.5)), "1.5");
        assert_eq!(value_to_json(&Value::Float(488.0)), "488.0");
        assert_eq!(value_to_json(&Value::Bool(true)), "true");
        assert_eq!(value_to_json(&Value::from("x")), "\"x\"");
        assert_eq!(value_to_json(&Value::Time(9)), "{\"time_ns\":9}");
        assert_eq!(value_to_json(&Value::Float(f64::INFINITY)), "null");
    }

    #[test]
    fn every_finite_float_exports_as_a_float() {
        let floats = [1.0, -0.0, 1e15, 1e16, 1e-7, f64::MAX];
        let rendered = floats.map(|x| value_to_json(&Value::Float(x)));
        assert_eq!(rendered, ["1.0", "-0.0", "1000000000000000.0", "1e16", "1e-7", "1.7976931348623157e308"]);
        for (json, x) in rendered.iter().zip(floats) {
            // Not an integer literal, and the same float read back.
            assert!(json.contains(['.', 'e']), "{json}");
            assert_eq!(json.parse::<f64>().map(f64::to_bits), Ok(x.to_bits()), "{json}");
        }
    }

    #[test]
    fn document_is_deterministic_and_sorted() {
        let doc: Document = [
            ("zeta".to_string(), Value::Int(1)),
            ("alpha".to_string(), Value::from("first")),
        ]
        .into_iter()
        .collect();
        assert_eq!(
            document_to_json(&doc),
            "{\"alpha\":\"first\",\"zeta\":1}"
        );
        assert_eq!(document_to_json(&Document::new()), "{}");
    }

    #[test]
    fn record_rendering_includes_everything() {
        let schema = SchemaBuilder::new("p").required("fish", FieldType::Int).build().unwrap();
        let rec = DatasetRecord {
            id: DatasetId(7),
            name: "img-1".into(),
            location: "lsdf://p/img-1".into(),
            size_bytes: 42,
            checksum_hex: "abcd".into(),
            basic: schema.shape([("fish".to_string(), Value::Int(3))].into_iter().collect()).unwrap(),
            processing: vec![ProcessingResult {
                step: "seg".into(),
                params: Document::new(),
                results: [("cells".to_string(), Value::Int(12))].into_iter().collect(),
                derived_keys: vec!["out/mask-1".into()],
                seq: 1,
            }],
            tags: ["raw".to_string()].into_iter().collect(),
        };
        let json = record_to_json(&rec);
        assert!(json.starts_with("{\"id\":7,\"name\":\"img-1\""));
        assert!(json.contains("\"basic\":{\"fish\":3}"));
        assert!(json.contains("\"tags\":[\"raw\"]"));
        assert!(json.contains(
            "\"processing\":[{\"step\":\"seg\",\"seq\":1,\"params\":{},\
             \"results\":{\"cells\":12},\"derived_keys\":[\"out/mask-1\"]}]"
        ));
        // Array form.
        let arr = records_to_json(&[rec.clone(), rec]);
        assert!(arr.starts_with('['));
        assert_eq!(arr.matches("\"id\":7").count(), 2);
    }
}
