//! Persistence for extracted parameters.
//!
//! §3.2: benchmarking is "a one-time effort for each SmartNIC" and "the
//! obtained parameters for a NIC are reusable across NFs" — so they must
//! survive the process. The format is a simple line-oriented
//! `section.key = value` text file (no external serialization crates),
//! self-describing and diff-friendly:
//!
//! ```text
//! nic.name = netronome-agilio-cx40
//! nic.freq_ghz = 0.8
//! compute.parse_header = 150.25
//! mem.emem.latency = 455.06
//! mem.emem.cache.capacity = 4054630.2
//! accel.checksum.base = 60.0
//! ```

use crate::params::{AccelEst, CacheEst, MemEst, NicParameters};
use clara_lnic::AccelKind;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Errors from parsing a parameter file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// A line is not `key = value` or a comment.
    BadLine(usize),
    /// A value failed to parse as its expected type.
    BadValue(String),
    /// A required key is missing.
    Missing(String),
}

impl core::fmt::Display for StoreError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StoreError::BadLine(n) => write!(f, "line {n}: expected `key = value`"),
            StoreError::BadValue(k) => write!(f, "bad value for `{k}`"),
            StoreError::Missing(k) => write!(f, "missing key `{k}`"),
        }
    }
}

impl std::error::Error for StoreError {}

fn accel_name(kind: AccelKind) -> &'static str {
    match kind {
        AccelKind::Checksum => "checksum",
        AccelKind::Crypto => "crypto",
        AccelKind::FlowCache => "flowcache",
        AccelKind::Lpm => "lpm",
    }
}

fn accel_from_name(name: &str) -> Option<AccelKind> {
    Some(match name {
        "checksum" => AccelKind::Checksum,
        "crypto" => AccelKind::Crypto,
        "flowcache" => AccelKind::FlowCache,
        "lpm" => AccelKind::Lpm,
        _ => return None,
    })
}

/// Serialize parameters to the text format.
pub fn to_text(p: &NicParameters) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# Clara NIC parameters — extracted by clara-microbench");
    let _ = writeln!(out, "nic.name = {}", p.nic_name);
    let _ = writeln!(out, "nic.freq_ghz = {}", p.freq_ghz);
    let _ = writeln!(out, "nic.total_threads = {}", p.total_threads);
    let _ = writeln!(out, "nic.has_fpu = {}", p.has_fpu);
    let _ = writeln!(out, "nic.pipelined = {}", p.pipelined);
    let _ = writeln!(out, "nic.nj_per_cycle = {}", p.nj_per_cycle);

    for (k, v) in [
        ("parse_header", p.parse_header),
        ("metadata_mod", p.metadata_mod),
        ("hash", p.hash),
        ("float_op", p.float_op),
        ("stream_per_byte_resident", p.stream_per_byte_resident),
        ("stream_per_byte_spilled", p.stream_per_byte_spilled),
        ("hub_overhead", p.hub_overhead),
        ("flow_cache_hit", p.flow_cache_hit),
        ("flow_cache_entries", p.flow_cache_entries),
        ("linear_scan_per_entry", p.linear_scan_per_entry),
        ("alu", p.alu),
        ("mul", p.mul),
        ("div", p.div),
        ("branch", p.branch),
    ] {
        let _ = writeln!(out, "compute.{k} = {v}");
    }
    let _ = writeln!(out, "checksum_sw.base = {}", p.checksum_sw.base);
    let _ = writeln!(out, "checksum_sw.per_byte = {}", p.checksum_sw.per_byte);

    for m in &p.mems {
        let n = &m.name;
        let _ = writeln!(out, "mem.{n}.capacity = {}", m.capacity);
        let _ = writeln!(out, "mem.{n}.latency = {}", m.latency);
        let _ = writeln!(out, "mem.{n}.bulk_per_byte = {}", m.bulk_per_byte);
        let _ = writeln!(out, "mem.{n}.placeable = {}", m.placeable);
        let _ = writeln!(out, "mem.{n}.numa_extra = {}", m.numa_extra);
        if let Some(c) = &m.cache {
            let _ = writeln!(out, "mem.{n}.cache.capacity = {}", c.capacity);
            let _ = writeln!(out, "mem.{n}.cache.hit_latency = {}", c.hit_latency);
        }
    }
    // Fixed kind order, not map order: the same parameters always
    // serialize to the same bytes.
    for kind in AccelKind::ALL {
        if let Some(a) = p.accels.get(&kind) {
            let n = accel_name(kind);
            let _ = writeln!(out, "accel.{n}.base = {}", a.base);
            let _ = writeln!(out, "accel.{n}.per_byte = {}", a.per_byte);
        }
    }
    out
}

/// Parse parameters back from the text format.
pub fn from_text(text: &str) -> Result<NicParameters, StoreError> {
    let mut kv: HashMap<String, String> = HashMap::new();
    let mut mem_order: Vec<String> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, value) = line.split_once('=').ok_or(StoreError::BadLine(i + 1))?;
        let key = key.trim().to_string();
        if let Some(rest) = key.strip_prefix("mem.") {
            if let Some(name) = rest.strip_suffix(".capacity") {
                // `mem.<name>.cache.capacity` is a cache key, not a region.
                if !name.contains('.') {
                    mem_order.push(name.to_string());
                }
            }
        }
        kv.insert(key, value.trim().to_string());
    }

    let get = |k: &str| -> Result<&String, StoreError> {
        kv.get(k).ok_or_else(|| StoreError::Missing(k.into()))
    };
    let f = |k: &str| -> Result<f64, StoreError> {
        get(k)?.parse().map_err(|_| StoreError::BadValue(k.into()))
    };
    let b = |k: &str| -> Result<bool, StoreError> {
        get(k)?.parse().map_err(|_| StoreError::BadValue(k.into()))
    };

    let mut mems = Vec::new();
    for name in &mem_order {
        let pre = format!("mem.{name}");
        let cache = match (
            kv.get(&format!("{pre}.cache.capacity")),
            kv.get(&format!("{pre}.cache.hit_latency")),
        ) {
            (Some(c), Some(h)) => Some(CacheEst {
                capacity: c.parse().map_err(|_| StoreError::BadValue(format!("{pre}.cache.capacity")))?,
                hit_latency: h
                    .parse()
                    .map_err(|_| StoreError::BadValue(format!("{pre}.cache.hit_latency")))?,
            }),
            _ => None,
        };
        mems.push(MemEst {
            name: name.clone(),
            capacity: f(&format!("{pre}.capacity"))? as usize,
            latency: f(&format!("{pre}.latency"))?,
            bulk_per_byte: f(&format!("{pre}.bulk_per_byte"))?,
            cache,
            placeable: b(&format!("{pre}.placeable"))?,
            numa_extra: f(&format!("{pre}.numa_extra"))?,
        });
    }

    let mut accels = HashMap::new();
    for kind in AccelKind::ALL {
        let n = accel_name(kind);
        if let (Some(base), Some(per_byte)) =
            (kv.get(&format!("accel.{n}.base")), kv.get(&format!("accel.{n}.per_byte")))
        {
            accels.insert(
                kind,
                AccelEst {
                    base: base
                        .parse()
                        .map_err(|_| StoreError::BadValue(format!("accel.{n}.base")))?,
                    per_byte: per_byte
                        .parse()
                        .map_err(|_| StoreError::BadValue(format!("accel.{n}.per_byte")))?,
                },
            );
        }
    }
    // Reject unknown accel sections so typos don't silently disappear.
    for key in kv.keys() {
        if let Some(rest) = key.strip_prefix("accel.") {
            let name = rest.split('.').next().unwrap_or("");
            if accel_from_name(name).is_none() {
                return Err(StoreError::BadValue(key.clone()));
            }
        }
    }

    Ok(NicParameters {
        nic_name: get("nic.name")?.clone(),
        freq_ghz: f("nic.freq_ghz")?,
        total_threads: f("nic.total_threads")? as usize,
        has_fpu: b("nic.has_fpu")?,
        pipelined: b("nic.pipelined")?,
        nj_per_cycle: f("nic.nj_per_cycle")?,
        parse_header: f("compute.parse_header")?,
        metadata_mod: f("compute.metadata_mod")?,
        hash: f("compute.hash")?,
        float_op: f("compute.float_op")?,
        stream_per_byte_resident: f("compute.stream_per_byte_resident")?,
        stream_per_byte_spilled: f("compute.stream_per_byte_spilled")?,
        hub_overhead: f("compute.hub_overhead")?,
        flow_cache_hit: f("compute.flow_cache_hit")?,
        flow_cache_entries: f("compute.flow_cache_entries")?,
        linear_scan_per_entry: f("compute.linear_scan_per_entry")?,
        checksum_sw: AccelEst {
            base: f("checksum_sw.base")?,
            per_byte: f("checksum_sw.per_byte")?,
        },
        alu: f("compute.alu")?,
        mul: f("compute.mul")?,
        div: f("compute.div")?,
        branch: f("compute.branch")?,
        mems,
        accels,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::extract_parameters;
    use clara_lnic::profiles;
    use std::sync::OnceLock;

    fn params() -> &'static NicParameters {
        static P: OnceLock<NicParameters> = OnceLock::new();
        P.get_or_init(|| extract_parameters(&profiles::netronome_agilio_cx40()))
    }

    #[test]
    fn roundtrip_is_lossless_enough() {
        let p = params();
        let text = to_text(p);
        let restored = from_text(&text).unwrap();
        assert_eq!(restored.nic_name, p.nic_name);
        assert_eq!(restored.total_threads, p.total_threads);
        assert_eq!(restored.mems.len(), p.mems.len());
        assert_eq!(restored.accels.len(), p.accels.len());
        for (a, b) in p.mems.iter().zip(&restored.mems) {
            assert_eq!(a.name, b.name);
            assert!((a.latency - b.latency).abs() < 1e-9);
            assert_eq!(a.cache.is_some(), b.cache.is_some());
        }
        // Infinity survives (flow_cache_hit is inf on engines-less NICs).
        assert_eq!(restored.flow_cache_hit.is_finite(), p.flow_cache_hit.is_finite());
        // Full float equality on a few key fields.
        assert_eq!(restored.parse_header, p.parse_header);
        assert_eq!(restored.stream_per_byte_resident, p.stream_per_byte_resident);
    }

    #[test]
    fn infinity_roundtrips() {
        let p = extract_parameters(&profiles::soc_armada());
        assert!(p.flow_cache_hit.is_infinite());
        let restored = from_text(&to_text(&p)).unwrap();
        assert!(restored.flow_cache_hit.is_infinite());
    }

    #[test]
    fn errors_are_informative() {
        assert!(matches!(from_text("garbage line"), Err(StoreError::BadLine(1))));
        assert!(matches!(
            from_text("nic.name = x"),
            Err(StoreError::Missing(_))
        ));
        let mut text = to_text(params());
        text.push_str("accel.warp_drive.base = 1\n");
        assert!(matches!(from_text(&text), Err(StoreError::BadValue(_))));
    }

    #[test]
    fn accel_lines_do_not_depend_on_map_order() {
        let p = params();
        let kinds: Vec<AccelKind> =
            AccelKind::ALL.into_iter().filter(|k| p.accels.contains_key(k)).collect();
        assert!(kinds.len() > 1, "need several accelerators to reorder");
        // Each map hashes with its own random keys, so iteration order
        // usually differs between these maps whatever the insertion order.
        let inserted_in = |order: Vec<AccelKind>| NicParameters {
            accels: order.into_iter().map(|k| (k, p.accels[&k])).collect(),
            ..p.clone()
        };
        let forward = to_text(&inserted_in(kinds.clone()));
        let backward = to_text(&inserted_in(kinds.iter().rev().copied().collect()));
        assert_eq!(forward, backward);
        assert_eq!(forward, to_text(p));
        // And the order is the kinds' declaration order.
        let listed: Vec<&str> = forward
            .lines()
            .filter_map(|l| l.strip_prefix("accel.")?.split_once(".base "))
            .map(|(name, _)| name)
            .collect();
        let expected: Vec<&str> = kinds.iter().map(|k| accel_name(*k)).collect();
        assert_eq!(listed, expected);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let mut text = String::from("# header comment\n\n");
        text.push_str(&to_text(params()));
        assert!(from_text(&text).is_ok());
    }
}
