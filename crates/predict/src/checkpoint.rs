//! Sweep checkpoint files: completed-cell results keyed by scenario
//! hash, persisted as JSON so an interrupted sweep can resume without
//! re-solving finished cells.
//!
//! The file is one JSON document written through the workspace codec
//! (`clara_telemetry::json`): a header line, then one compact cell
//! object per line, then a closing line. Writing is atomic (temp file +
//! rename), and the reader *salvages*: it parses the file line by line
//! and keeps every line that is a complete cell, so a checkpoint clipped
//! mid-write by a crash or Ctrl-C yields every complete cell it
//! contains, and unparseable garbage degrades to an empty checkpoint
//! rather than an error. Losing checkpoint state can only cost
//! re-computation, never correctness, so the reader prefers salvage
//! over strictness.
//!
//! A finite float is a JSON number written as `{:?}`, so it reads back
//! bit for bit. JSON has no NaN or Infinity, so a non-finite float (the
//! infinite throughput of a cell with no offered load) is the string
//! `"inf"`, `"-inf"` or `"NaN"`, and reads back as the same value.

use crate::predictor::Prediction;
use crate::sweep::SweepScenario;
use clara_telemetry::json::{self, ObjBuilder, Value};
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

/// The first line of a checkpoint file, which carries the format
/// version; cell lines follow, then [`TAIL`].
const HEAD: &str = r#"{"version":1,"cells":["#;
/// The last line of a checkpoint file.
const TAIL: &str = "]}";

/// The checkpointed numbers of one completed cell: enough to print the
/// sweep table without re-solving, keyed by [`scenario_hash`].
#[derive(Debug, Clone, PartialEq)]
pub struct CellSummary {
    /// [`scenario_hash`] of the cell this summarizes.
    pub hash: u64,
    /// The cell's human-readable label (informational; the hash is the
    /// key).
    pub label: String,
    /// Expected per-packet latency in cycles.
    pub avg_latency_cycles: f64,
    /// Same in nanoseconds.
    pub avg_latency_ns: f64,
    /// Idealized sustainable throughput, packets per second.
    pub throughput_pps: f64,
    /// Estimated energy per packet, nanojoules.
    pub energy_nj_per_packet: f64,
    /// The resource limiting throughput.
    pub bottleneck: String,
    /// Mapping quality tag (display form of
    /// [`clara_map::MappingQuality`]).
    pub quality: String,
}

impl CellSummary {
    /// Summarize a fresh prediction for checkpointing.
    pub fn of(hash: u64, label: &str, p: &Prediction) -> Self {
        CellSummary {
            hash,
            label: label.to_string(),
            avg_latency_cycles: p.avg_latency_cycles,
            avg_latency_ns: p.avg_latency_ns,
            throughput_pps: p.throughput_pps,
            energy_nj_per_packet: p.energy_nj_per_packet,
            bottleneck: p.bottleneck.clone(),
            quality: p.mapping.quality.to_string(),
        }
    }

    /// The cell as one JSON object (the hash in 16 hex digits).
    fn to_value(&self) -> Value {
        ObjBuilder::new()
            .str("hash", &format!("{:016x}", self.hash))
            .str("label", &self.label)
            .put("avg_latency_cycles", float_value(self.avg_latency_cycles))
            .put("avg_latency_ns", float_value(self.avg_latency_ns))
            .put("throughput_pps", float_value(self.throughput_pps))
            .put("energy_nj_per_packet", float_value(self.energy_nj_per_packet))
            .str("bottleneck", &self.bottleneck)
            .str("quality", &self.quality)
            .build()
    }

    /// Read a cell object; `None` when any field is missing or malformed.
    fn from_value(v: &Value) -> Option<CellSummary> {
        let text = |key: &str| v.get(key).and_then(Value::as_str).map(str::to_string);
        let float = |key: &str| v.get(key).and_then(read_float);
        Some(CellSummary {
            hash: u64::from_str_radix(&text("hash")?, 16).ok()?,
            label: text("label")?,
            avg_latency_cycles: float("avg_latency_cycles")?,
            avg_latency_ns: float("avg_latency_ns")?,
            throughput_pps: float("throughput_pps")?,
            energy_nj_per_packet: float("energy_nj_per_packet")?,
            bottleneck: text("bottleneck")?,
            quality: text("quality")?,
        })
    }
}

/// A finite float as a JSON number; a non-finite one as its name.
fn float_value(x: f64) -> Value {
    if x.is_finite() {
        Value::Num(x)
    } else {
        Value::Str(x.to_string())
    }
}

/// The inverse of [`float_value`]: a number, or `"inf"`, `"-inf"` or
/// `"NaN"`.
fn read_float(v: &Value) -> Option<f64> {
    v.as_f64().or_else(|| v.as_str()?.parse().ok().filter(|x: &f64| !x.is_finite()))
}

/// A set of completed cells keyed by scenario hash.
#[derive(Debug, Clone, Default)]
pub struct Checkpoint {
    cells: BTreeMap<u64, CellSummary>,
}

impl Checkpoint {
    /// An empty checkpoint.
    pub fn new() -> Self {
        Checkpoint::default()
    }

    /// Number of completed cells recorded.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether no cells are recorded.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Record a completed cell (replacing any previous entry for the
    /// same hash).
    pub fn insert(&mut self, cell: CellSummary) {
        self.cells.insert(cell.hash, cell);
    }

    /// Look up a completed cell by scenario hash.
    pub fn get(&self, hash: u64) -> Option<&CellSummary> {
        self.cells.get(&hash)
    }

    /// Load a checkpoint from `path`. A missing file is an *empty*
    /// checkpoint (first run of a `--resume` invocation); a truncated or
    /// corrupted file salvages every complete cell object it contains.
    ///
    /// Loading is byte-safe: a crash can clip the file at *any* byte,
    /// including the middle of a multi-byte UTF-8 sequence in a label
    /// (labels are caller-controlled free text). Reading bytes and
    /// decoding lossily turns such a tail into replacement characters
    /// inside the clipped (already unusable) trailing object, instead of
    /// failing the whole read and silently dropping every salvageable
    /// cell the way a strict `read_to_string` would.
    pub fn load(path: &Path) -> Checkpoint {
        match fs::read(path) {
            Ok(bytes) => Checkpoint::parse(&String::from_utf8_lossy(&bytes)),
            Err(_) => Checkpoint::new(),
        }
    }

    /// Serialize and write atomically: the new content lands in a
    /// sibling temp file first and is renamed over `path`, so a crash
    /// mid-write leaves the previous checkpoint intact.
    pub fn save_atomic(&self, path: &Path) -> Result<(), String> {
        let tmp = path.with_extension("tmp");
        fs::write(&tmp, self.to_json()).map_err(|e| format!("write {}: {e}", tmp.display()))?;
        fs::rename(&tmp, path)
            .map_err(|e| format!("rename {} -> {}: {e}", tmp.display(), path.display()))
    }

    /// The JSON form: a header line, one compact cell object per line,
    /// then a closing line. The one-object-per-line layout is what makes
    /// truncation salvage effective: a partial write clips at most the
    /// last line.
    pub fn to_json(&self) -> String {
        let mut out = String::from(HEAD);
        for (i, cell) in self.cells.values().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&cell.to_value().to_json());
        }
        out.push('\n');
        out.push_str(TAIL);
        out.push('\n');
        out
    }

    /// Salvaging parser: every line that parses as a complete cell
    /// object (its separating comma dropped) is a cell. Anything else —
    /// the header and closing lines, a clipped trailing line, garbage —
    /// contributes nothing. Never errors.
    pub fn parse(text: &str) -> Checkpoint {
        let mut ck = Checkpoint::new();
        for line in text.lines() {
            let line = line.trim_end();
            let line = line.strip_suffix(',').unwrap_or(line);
            if let Some(cell) = json::parse(line).ok().as_ref().and_then(CellSummary::from_value) {
                ck.insert(cell);
            }
        }
        ck
    }
}

/// Content hash identifying a scenario across processes: FNV-1a over the
/// module identity, NIC identity, label, the *full* workload (including
/// `rate_pps` — unlike the sweep's in-process sharing key, a checkpoint
/// entry stands for one complete result), and every option that changes
/// the result. Supervision policy (`deadline_ms`) and test hooks
/// (`inject_panic`) are deliberately excluded: they decide whether a
/// cell *finishes*, never what its numbers are.
pub fn scenario_hash(sc: &SweepScenario<'_>) -> u64 {
    let mut h = Fnv::new();
    h.str(&sc.module.name);
    h.u64(sc.module.states.len() as u64);
    for s in &sc.module.states {
        h.str(&s.name);
        h.u64(s.size_bytes as u64);
    }
    h.str(&sc.params.nic_name);
    h.u64(sc.params.mems.len() as u64);
    h.str(&sc.label);

    let wl = &sc.workload;
    h.u64(wl.flows as u64);
    h.u64(wl.tcp_share.to_bits());
    h.u64(wl.syn_share.to_bits());
    h.u64(wl.avg_payload.to_bits());
    h.u64(wl.max_payload as u64);
    h.u64(wl.rate_pps.to_bits());
    h.u64(wl.zipf_alpha.to_bits());

    let opt = &sc.options;
    h.u64(opt.software_only as u64);
    h.u64(opt.pin_state.len() as u64);
    for (state, region) in &opt.pin_state {
        h.str(state);
        h.str(region);
    }
    h.u64(opt.budget.max_nodes as u64);
    h.u64(opt.solver.warm_start as u64);
    h.u64(opt.solver.memoize as u64);
    h.u64(opt.solver.reference_lp as u64);
    h.finish()
}

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }
    fn str(&mut self, s: &str) {
        // Length prefix keeps ("ab","c") distinct from ("a","bc").
        self.u64(s.len() as u64);
        for b in s.bytes() {
            self.byte(b);
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(hash: u64, label: &str) -> CellSummary {
        CellSummary {
            hash,
            label: label.to_string(),
            avg_latency_cycles: 1234.5,
            avg_latency_ns: 1543.125,
            throughput_pps: 2.5e6,
            energy_nj_per_packet: 98.75,
            bottleneck: "npu-threads".to_string(),
            quality: "optimal".to_string(),
        }
    }

    #[test]
    fn roundtrip_preserves_cells() {
        let mut ck = Checkpoint::new();
        ck.insert(cell(0xdead_beef, "rate=600k payload=1400"));
        ck.insert(cell(42, "weird \"label\"\twith\nescapes\\"));
        // Every control character, a quote and a backslash.
        let nasty: String = (0u8..0x20).map(char::from).chain(['"', '\\']).collect();
        ck.insert(CellSummary { bottleneck: nasty.clone(), quality: nasty.clone(), ..cell(7, &nasty) });
        let parsed = Checkpoint::parse(&ck.to_json());
        assert_eq!(parsed.len(), 3);
        for hash in [42, 0xdead_beef, 7] {
            assert_eq!(parsed.get(hash).unwrap(), ck.get(hash).unwrap());
        }
    }

    #[test]
    fn roundtrip_preserves_infinity() {
        let mut c = cell(7, "unloaded");
        c.throughput_pps = f64::INFINITY;
        c.avg_latency_ns = f64::NEG_INFINITY;
        c.energy_nj_per_packet = f64::NAN;
        let mut ck = Checkpoint::new();
        ck.insert(c);
        ck.insert(cell(8, "loaded"));
        let text = ck.to_json();
        // The whole file and every cell line are valid JSON.
        json::parse(&text).expect("the file parses as one JSON document");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "{text}");
        for line in &lines[1..3] {
            let line = line.strip_suffix(',').unwrap_or(line);
            json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        }
        let parsed = Checkpoint::parse(&text);
        let back = parsed.get(7).unwrap();
        assert_eq!(back.throughput_pps, f64::INFINITY);
        assert_eq!(back.avg_latency_ns, f64::NEG_INFINITY);
        assert!(back.energy_nj_per_packet.is_nan());
        assert_eq!(back.avg_latency_cycles, 1234.5);
        assert_eq!(parsed.get(8), ck.get(8));
    }

    #[test]
    fn files_in_the_earlier_key_order_still_load() {
        // Cells written with their keys in declaration order, as
        // checkpoints recorded before the keys were sorted are.
        let text = concat!(
            r#"{"version":1,"cells":["#,
            "\n",
            r#"{"hash":"000000000000002a","label":"rate=600k \"q\"","avg_latency_cycles":1234.5,"#,
            r#""avg_latency_ns":1543.125,"throughput_pps":2500000.0,"energy_nj_per_packet":98.75,"#,
            r#""bottleneck":"npu-threads","quality":"optimal"},"#,
            "\n",
            r#"{"hash":"00000000deadbeef","label":"cell-1","avg_latency_cycles":0.1,"#,
            r#""avg_latency_ns":0.30000000000000004,"throughput_pps":6.02214076e23,"#,
            r#""energy_nj_per_packet":1e-300,"bottleneck":"emem","quality":"greedy"}"#,
            "\n]}\n",
        );
        let ck = Checkpoint::parse(text);
        assert_eq!(ck.len(), 2);
        assert_eq!(ck.get(42), Some(&cell(42, "rate=600k \"q\"")));
        let want = CellSummary {
            hash: 0xdead_beef,
            label: "cell-1".into(),
            avg_latency_cycles: 0.1,
            avg_latency_ns: 0.1 + 0.2,
            throughput_pps: 6.02214076e23,
            energy_nj_per_packet: 1e-300,
            bottleneck: "emem".into(),
            quality: "greedy".into(),
        };
        assert_eq!(ck.get(0xdead_beef), Some(&want));
    }

    #[test]
    fn truncation_salvages_complete_cells() {
        let mut ck = Checkpoint::new();
        for i in 0..6u64 {
            ck.insert(cell(i, &format!("cell-{i}")));
        }
        let full = ck.to_json();
        // Clip mid-way: complete leading objects must survive, the
        // clipped trailing one must not corrupt anything.
        for clip in [full.len() / 3, full.len() / 2, full.len() - 5] {
            let parsed = Checkpoint::parse(&full[..clip]);
            assert!(parsed.len() < 6 || clip >= full.len() - 5);
            for i in 0..6u64 {
                if let Some(got) = parsed.get(i) {
                    assert_eq!(got, ck.get(i).unwrap(), "salvaged cell differs");
                }
            }
        }
    }

    #[test]
    fn truncation_mid_multibyte_sequence_salvages_byte_safely() {
        // Labels are free text: multi-byte UTF-8 is legal in them, and a
        // crash mid-write can clip the file at any *byte*, not any char.
        let mut ck = Checkpoint::new();
        for i in 0..4u64 {
            ck.insert(cell(i, &format!("λ-NIC sweep · 東京 №{i} μs")));
        }
        let full = ck.to_json().into_bytes();
        // Clip exactly inside a multi-byte sequence of the *last* cell's
        // label, so everything before it is intact but the file is no
        // longer valid UTF-8.
        let last_multibyte = (0..full.len())
            .rev()
            .find(|&i| full[i] >= 0x80 && (full[i] & 0xc0) == 0x80)
            .expect("labels contain multi-byte chars");
        let clipped = &full[..last_multibyte];
        assert!(
            String::from_utf8(clipped.to_vec()).is_err(),
            "clip point must split a multi-byte sequence"
        );

        let path = std::env::temp_dir()
            .join(format!("clara-ck-multibyte-{}.json", std::process::id()));
        std::fs::write(&path, clipped).unwrap();
        let salvaged = Checkpoint::load(&path);
        let _ = std::fs::remove_file(&path);

        // Every *complete* leading cell survives, bit-for-bit — the old
        // `read_to_string` loader returned an empty checkpoint here and
        // silently recomputed the whole grid.
        assert!(!salvaged.is_empty(), "complete leading cells must be salvaged");
        for i in 0..4u64 {
            if let Some(got) = salvaged.get(i) {
                assert_eq!(got, ck.get(i).unwrap(), "salvaged cell differs");
            }
        }
        // The clipped trailing cell must not have been resurrected from
        // a half-written label.
        assert!(salvaged.len() < 4);
    }

    #[test]
    fn garbage_parses_to_empty() {
        assert!(Checkpoint::parse("").is_empty());
        assert!(Checkpoint::parse("not json at all").is_empty());
        assert!(Checkpoint::parse("{\"version\":1}").is_empty());
        assert!(Checkpoint::parse("{\"cells\":[{\"hash\":\"xyz\"}]}").is_empty());
    }

    #[test]
    fn missing_file_loads_empty() {
        let p = std::env::temp_dir().join("clara-ck-definitely-missing.json");
        assert!(Checkpoint::load(&p).is_empty());
    }

    #[test]
    fn save_is_atomic_and_reloadable() {
        let p = std::env::temp_dir().join("clara-ck-roundtrip-test.json");
        let mut ck = Checkpoint::new();
        ck.insert(cell(1, "one"));
        ck.save_atomic(&p).unwrap();
        ck.insert(cell(2, "two"));
        ck.save_atomic(&p).unwrap();
        let back = Checkpoint::load(&p);
        assert_eq!(back.len(), 2);
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn fnv_length_prefix_disambiguates() {
        let mut a = Fnv::new();
        a.str("ab");
        a.str("c");
        let mut b = Fnv::new();
        b.str("a");
        b.str("bc");
        assert_ne!(a.finish(), b.finish());
    }
}
