//! The shared `BENCH_*.json` writer.

use std::path::Path;

/// Insert or replace one top-level section of a `BENCH_*.json` file,
/// preserving every other section.
///
/// The file is a flat JSON object mapping section names to result
/// objects (`{"net_serving": {...}, ...}`). A writer rewrites only its
/// own key. `value` must be a self-contained JSON value (callers pass
/// pre-indented object literals); no JSON dependency is available
/// offline, so this uses a minimal brace/string-aware splitter rather
/// than a full parser.
pub fn upsert_bench_json(path: &Path, key: &str, value: &str) -> std::io::Result<()> {
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    let mut entries = parse_top_level(&existing);
    let value = value.trim().to_string();
    match entries.iter_mut().find(|(k, _)| k == key) {
        Some((_, v)) => *v = value,
        None => entries.push((key.to_string(), value)),
    }
    let mut out = String::from("{\n");
    for (i, (k, v)) in entries.iter().enumerate() {
        out.push_str(&format!("  \"{k}\": {v}"));
        out.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
    }
    out.push_str("}\n");
    std::fs::write(path, out)
}

/// Split a flat JSON object into `(key, raw value)` pairs. Tolerates a
/// missing or malformed file by returning what it could read. Values are
/// matched by brace/bracket depth with string-literal awareness — enough
/// for the record files [`upsert_bench_json`] writes.
fn parse_top_level(src: &str) -> Vec<(String, String)> {
    let mut entries = Vec::new();
    let bytes: Vec<char> = src.chars().collect();
    let mut i = match bytes.iter().position(|&c| c == '{') {
        Some(p) => p + 1,
        None => return entries,
    };
    loop {
        while i < bytes.len() && (bytes[i].is_whitespace() || bytes[i] == ',') {
            i += 1;
        }
        if i >= bytes.len() || bytes[i] == '}' {
            return entries;
        }
        // key
        if bytes[i] != '"' {
            return entries;
        }
        i += 1;
        let kstart = i;
        while i < bytes.len() && bytes[i] != '"' {
            i += 1;
        }
        let key: String = bytes[kstart..i].iter().collect();
        i += 1;
        while i < bytes.len() && (bytes[i].is_whitespace() || bytes[i] == ':') {
            i += 1;
        }
        // value: scan until depth-0 ',' or '}'
        let vstart = i;
        let mut depth = 0i32;
        let mut in_str = false;
        let mut escaped = false;
        while i < bytes.len() {
            let c = bytes[i];
            if in_str {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    in_str = false;
                }
            } else {
                match c {
                    '"' => in_str = true,
                    '{' | '[' => depth += 1,
                    '}' | ']' if depth > 0 => depth -= 1,
                    ',' | '}' if depth == 0 => break,
                    _ => {}
                }
            }
            i += 1;
        }
        let value: String = bytes[vstart..i].iter().collect();
        entries.push((key, value.trim_end().to_string()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_sections_roundtrip() {
        let src =
            "{\n  \"a\": { \"x\": 1, \"s\": \"br{ace\" },\n  \"b\": [1, 2],\n  \"c\": 3.5\n}\n";
        let e = parse_top_level(src);
        assert_eq!(e.len(), 3);
        assert_eq!(e[0].0, "a");
        assert!(e[0].1.contains("br{ace"));
        assert_eq!(e[1], ("b".to_string(), "[1, 2]".to_string()));
        assert_eq!(e[2], ("c".to_string(), "3.5".to_string()));
    }

    #[test]
    fn upsert_preserves_other_sections() {
        let dir = std::env::temp_dir().join("skinner_bench_upsert_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_test.json");
        let _ = std::fs::remove_file(&path);
        upsert_bench_json(&path, "first", "{\n    \"v\": 1\n  }").unwrap();
        upsert_bench_json(&path, "second", "{\n    \"v\": 2\n  }").unwrap();
        upsert_bench_json(&path, "first", "{\n    \"v\": 9\n  }").unwrap();
        let s = std::fs::read_to_string(&path).unwrap();
        let e = parse_top_level(&s);
        assert_eq!(e.len(), 2);
        assert_eq!(e[0].0, "first");
        assert!(e[0].1.contains("\"v\": 9"));
        assert_eq!(e[1].0, "second");
        assert!(e[1].1.contains("\"v\": 2"));
        let _ = std::fs::remove_file(&path);
    }
}
