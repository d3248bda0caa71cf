//! Corruption suite for the hand-rolled JSON parser, mirroring the
//! aaa-store equivalence suite's 1-bit-flip/truncation pattern: every
//! byte-level corruption of a well-formed report document must come back
//! as `Ok` (the flip landed somewhere inert, e.g. inside a digit) or a
//! **typed** `JsonError` — never a panic, never an abort, never a hang.
//! The document carries sections, so the flips also land in the generic
//! section reader (names, rows, values).

use aaa_observe::{Json, JsonError, PhaseReport, QualityPoint, RankReport, RunReport, Section};

/// A representative nested report document — objects inside arrays inside
/// objects, strings, floats, and enough length that flips land in every
/// syntactic position class.
fn sample_doc() -> String {
    let report = RunReport {
        scenario: "fig4:corruption".into(),
        scale: 300,
        procs: 4,
        seed: 42,
        messages: 1234,
        bytes: 56789,
        supersteps: 17,
        collectives: 34,
        checkpoints: 2,
        restores: 1,
        rc_steps: 15,
        sim_comm_us: 10_250.5,
        sim_compute_us: 8_400.25,
        wall_us: 90_000.75,
        phases: vec![
            PhaseReport {
                name: "dd".into(),
                count: 1,
                sim_us: 1.5,
                wall_us: 2.5,
                messages: 0,
                bytes: 0,
            },
            PhaseReport {
                name: "rc_step".into(),
                count: 15,
                sim_us: 100.0,
                wall_us: 80.0,
                messages: 600,
                bytes: 48_000,
            },
        ],
        ranks: vec![
            RankReport { rank: -1, spans: 4, sim_busy_us: 9.0, wall_busy_us: 8.0 },
            RankReport { rank: 0, spans: 30, sim_busy_us: 50.0, wall_busy_us: 40.0 },
            RankReport { rank: 1, spans: 31, sim_busy_us: 51.0, wall_busy_us: 41.0 },
        ],
        quality: vec![
            QualityPoint { rc_step: 1, error: 0.5, top_k_recall: 0.25 },
            QualityPoint { rc_step: 15, error: 0.0, top_k_recall: 1.0 },
        ],
        sections: vec![
            Section::new("changes", &[("submitted", 10.0), ("drains", 2.0), ("epochs", 14.0)]),
            Section::new("stream", &[("peak_queue", 4.0), ("changes_per_sec", 103.852_181_167)]),
        ],
        ..RunReport::default()
    };
    report.to_json_string()
}

#[test]
fn the_sample_doc_round_trips() {
    let text = sample_doc();
    let doc = Json::parse(&text).expect("uncorrupted doc parses");
    let report = RunReport::from_json(&doc).expect("uncorrupted doc decodes");
    assert_eq!(report.scenario, "fig4:corruption");
    assert_eq!(report.rc_steps, 15);
    assert_eq!(report.sections.len(), 2);
}

/// Replace every top-level value and every value one level down — header
/// fields, array elements, section rows — one at a time, by a value of
/// each JSON type. The decoder must answer each with `Ok` (the confused
/// value happened to be acceptable) or a typed `Shape` error, and a section
/// row must refuse everything but a number: it is never skipped.
#[test]
fn every_type_confusion_is_a_typed_shape_error() {
    let Json::Obj(top) = Json::parse(&sample_doc()).expect("parses") else { panic!("object") };
    let confusions = [
        Json::Null,
        Json::Bool(true),
        Json::Num(-1.5),
        Json::Str("x".into()),
        Json::Arr(vec![Json::Num(1.0)]),
        Json::Obj(vec![("k".into(), Json::Num(1.0))]),
    ];
    let mut refused_rows = 0;
    for i in 0..top.len() {
        let inner = match &top[i].1 {
            Json::Obj(fields) => fields.len(),
            Json::Arr(items) => items.len(),
            _ => 0,
        };
        // The two sections are the last two top-level fields.
        let section = i >= top.len() - 2;
        for j in std::iter::once(None).chain((0..inner).map(Some)) {
            for wrong in &confusions {
                let mut bad = top.clone();
                match (&mut bad[i].1, j) {
                    (Json::Obj(fields), Some(j)) => fields[j].1 = wrong.clone(),
                    (Json::Arr(items), Some(j)) => items[j] = wrong.clone(),
                    (whole, _) => *whole = wrong.clone(),
                }
                let row = section && j.is_some();
                match RunReport::from_json(&Json::Obj(bad)) {
                    Ok(_) => assert!(!row || matches!(wrong, Json::Num(_)), "{i}.{j:?}: {wrong:?}"),
                    Err(JsonError::Shape(_)) => refused_rows += row as usize,
                    Err(e) => panic!("decoder returned a syntax error at {i}.{j:?}: {e}"),
                }
            }
        }
    }
    assert_eq!(refused_rows, 5 * 5, "five section rows, five non-numbers each");
}

/// Flip one bit in every byte position. The parser must return a typed
/// result for each — `Ok` when the flip is inert or produces different
/// but valid JSON, a typed error otherwise. A panic fails the test
/// harness; an infinite loop trips the test timeout.
#[test]
fn every_single_bit_flip_is_handled() {
    let bytes = sample_doc().into_bytes();
    for pos in 0..bytes.len() {
        for bit in 0..8 {
            let mut bad = bytes.clone();
            bad[pos] ^= 1 << bit;
            match Json::parse_bytes(&bad) {
                Ok(doc) => {
                    // The decoder above the parser must also stay typed.
                    let _ = RunReport::from_json(&doc);
                }
                Err(JsonError::Syntax { at, .. }) => {
                    assert!(at <= bad.len(), "error offset {at} beyond input at byte {pos}");
                }
                Err(JsonError::Shape(_)) => {}
            }
        }
    }
}

/// Truncate the document at every byte boundary: every prefix must fail
/// with a typed syntax error (or, for the empty-side cases, still be
/// typed) — never panic on a dangling escape, half a literal, or an
/// unclosed string.
#[test]
fn every_truncation_is_a_typed_error() {
    // Trim trailing whitespace first — cutting only a final newline would
    // (correctly) still parse.
    let bytes = sample_doc().trim_end().as_bytes().to_vec();
    for cut in 0..bytes.len() {
        match Json::parse_bytes(&bytes[..cut]) {
            Ok(_) => panic!("truncation at byte {cut} parsed as a complete document"),
            Err(JsonError::Syntax { at, .. }) => {
                assert!(at <= cut, "error offset {at} beyond truncated input of {cut} bytes");
            }
            Err(JsonError::Shape(what)) => {
                panic!("truncation at byte {cut} produced a shape error: {what}")
            }
        }
    }
}

#[test]
fn invalid_utf8_is_a_typed_error_at_the_right_offset() {
    let mut bytes = sample_doc().into_bytes();
    let mid = bytes.len() / 2;
    bytes[mid] = 0xFF; // never valid in UTF-8
    match Json::parse_bytes(&bytes) {
        Err(JsonError::Syntax { at, what }) => {
            assert_eq!(at, mid, "error should point at the first invalid byte");
            assert!(what.contains("UTF-8"), "unexpected message: {what}");
        }
        other => panic!("invalid UTF-8 must be a typed syntax error, got {other:?}"),
    }
    // A continuation byte with no lead byte is also caught.
    assert!(Json::parse_bytes(&[b'[', 0x80, b']']).is_err());
}

/// Deep nesting must hit the depth guard as a typed error, not blow the
/// stack: the parser is recursive-descent, so an attacker-controlled
/// `[[[[…` would otherwise overflow.
#[test]
fn pathological_nesting_is_rejected_not_overflowed() {
    for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
        let deep = format!("{}null{}", open.repeat(10_000), close.repeat(10_000));
        match Json::parse(&deep) {
            Err(JsonError::Syntax { what, .. }) => {
                assert!(what.contains("nesting"), "unexpected message: {what}")
            }
            other => panic!("10k-deep nesting must be a typed error, got {other:?}"),
        }
    }
    // Moderate nesting (within the guard) still parses fine.
    let ok = format!("{}1{}", "[".repeat(64), "]".repeat(64));
    assert!(Json::parse(&ok).is_ok());
}

/// Classic hostile fragments: dangling escapes, bare values, trailing
/// garbage, unterminated strings, lone surrogate escapes, huge exponents.
#[test]
fn hostile_fragments_are_typed_errors_or_finite_values() {
    let cases: &[&str] = &[
        "",
        "   ",
        "\"",
        "\"\\",
        "\"\\u",
        "\"\\u12",
        "\"\\uZZZZ\"",
        "{",
        "{\"a\"",
        "{\"a\":}",
        "{\"a\":1,}",
        "[1,]",
        "[1 2]",
        "tru",
        "nul",
        "-",
        "1e",
        "1e+",
        "0x10",
        "1.2.3",
        "{\"a\":1}garbage",
        "[]\n[]",
        "\u{FEFF}{}",
        "1e999999",
        "-1e999999",
    ];
    for case in cases {
        match Json::parse(case) {
            Ok(Json::Num(n)) => assert!(!n.is_nan(), "case {case:?} parsed to NaN"),
            Ok(_) | Err(JsonError::Syntax { .. }) | Err(JsonError::Shape(_)) => {}
        }
    }
}
