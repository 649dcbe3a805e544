//! CSV export of experiment reports (for plotting outside the terminal),
//! and the schema-versioned [`Artifact`] envelope the store uses to
//! persist rendered reports.
//!
//! Every report renders to a small CSV with one header row; the harness
//! binary writes them under `--out <dir>` alongside the text renderings.
//! The writer is deliberately minimal — all fields are numeric or simple
//! identifiers, so no quoting is required beyond comma-freedom, which is
//! asserted. The `--out` file formats are part of the repo's golden
//! contract and carry no version header; versioning lives in [`Artifact`],
//! the container for store-persisted report records.

use crate::experiments::{
    AblationReport, ConfidenceCurves, CpiAccuracyReport, Fig1Report, Fig3Report, GuidelineReport,
    InvCvReport, MpkiReport, SpeedReport,
};
use mps_store::{Dec, Enc, Error};

/// Current schema of a persisted report [`Artifact`]. It is the report
/// layout's own revision, independent of the store's record schema.
pub const REPORT_SCHEMA: u32 = 2;

/// Oldest report schema the reader still accepts.
pub const MIN_REPORT_SCHEMA: u32 = 1;

/// A rendered experiment report as a store-persistable, schema-versioned
/// record: a JSON header line (`{"schema":2,"name":"fig3"}`) followed by
/// the text and CSV renderings.
///
/// Schema history — every bump keeps the reader accepting all earlier
/// versions back to [`MIN_REPORT_SCHEMA`], with a unit test per accepted
/// version:
///
/// * **1** — text rendering only.
/// * **2** (current, [`REPORT_SCHEMA`]) — text + CSV renderings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Artifact {
    /// Experiment name (e.g. `"fig3"`).
    pub name: String,
    /// The text (terminal) rendering.
    pub text: String,
    /// The CSV rendering; empty for reports without one (and for records
    /// read back from schema-1 files, which predate CSV persistence).
    pub csv: String,
}

impl Artifact {
    /// Serializes at the current schema.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = format!(
            "{{\"schema\":{REPORT_SCHEMA},\"name\":\"{}\"}}\n",
            self.name
        )
        .into_bytes();
        let mut e = Enc::new();
        e.str(&self.text);
        e.str(&self.csv);
        out.extend_from_slice(&e.into_bytes());
        out
    }

    /// Deserializes any accepted schema
    /// (`MIN_REPORT_SCHEMA..=REPORT_SCHEMA`).
    ///
    /// # Errors
    ///
    /// [`Error::SchemaVersion`] for records written by a newer harness;
    /// [`Error::Corrupt`] for malformed headers or payloads.
    pub fn from_bytes(bytes: &[u8]) -> Result<Artifact, Error> {
        let corrupt = |detail: &str| Error::Corrupt {
            path: "report-artifact".to_owned(),
            detail: detail.to_owned(),
        };
        let nl = bytes
            .iter()
            .position(|&b| b == b'\n')
            .ok_or_else(|| corrupt("missing header line"))?;
        let header =
            std::str::from_utf8(&bytes[..nl]).map_err(|_| corrupt("header is not UTF-8"))?;
        let schema = header
            .split("\"schema\":")
            .nth(1)
            .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
            .and_then(|digits| digits.parse::<u32>().ok())
            .ok_or_else(|| corrupt("header has no schema field"))?;
        if !(MIN_REPORT_SCHEMA..=REPORT_SCHEMA).contains(&schema) {
            return Err(Error::SchemaVersion {
                path: "report-artifact".to_owned(),
                found: schema,
                supported: REPORT_SCHEMA,
            });
        }
        let name = header
            .split("\"name\":\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .ok_or_else(|| corrupt("header has no name field"))?
            .to_owned();
        let mut d = Dec::new(&bytes[nl + 1..], "report-artifact");
        let text = d.str()?;
        // Schema 1 records end after the text rendering.
        let csv = if schema >= 2 { d.str()? } else { String::new() };
        d.finish()?;
        Ok(Artifact { name, text, csv })
    }
}

/// A report that can be exported as CSV.
pub trait CsvExport {
    /// The CSV rendering, header row first.
    fn csv(&self) -> String;
}

fn field(s: &str) -> &str {
    assert!(
        !s.contains(',') && !s.contains('\n'),
        "CSV fields must be comma- and newline-free: {s:?}"
    );
    s
}

impl CsvExport for Fig1Report {
    fn csv(&self) -> String {
        let mut out = String::from("abscissa,confidence\n");
        for (x, c) in &self.points {
            out.push_str(&format!("{x},{c}\n"));
        }
        out
    }
}

impl CsvExport for Fig3Report {
    fn csv(&self) -> String {
        let mut out = String::from("cores,sample_size,model,experiment\n");
        for &(k, w, a, e) in &self.points {
            out.push_str(&format!("{k},{w},{a},{e}\n"));
        }
        out
    }
}

impl CsvExport for InvCvReport {
    fn csv(&self) -> String {
        let mut out = String::from("pair,metric,detailed_sample,badco_sample,badco_population\n");
        for r in &self.rows {
            out.push_str(&format!(
                "{}>{},{},{},{},{}\n",
                r.x,
                r.y,
                field(r.metric.short_name()),
                r.detailed_sample.map_or(String::new(), |v| v.to_string()),
                r.badco_sample.map_or(String::new(), |v| v.to_string()),
                r.badco_population,
            ));
        }
        out
    }
}

impl CsvExport for ConfidenceCurves {
    fn csv(&self) -> String {
        let mut out = String::from("pair,method,sample_size,confidence\n");
        for p in &self.panels {
            for (m, w, c) in &p.series {
                out.push_str(&format!("{}>{},{},{w},{c}\n", p.y, p.x, field(m)));
            }
        }
        out
    }
}

impl CsvExport for SpeedReport {
    fn csv(&self) -> String {
        let mut out = String::from("cores,detailed_mips,badco_mips,speedup\n");
        for r in &self.rows {
            out.push_str(&format!(
                "{},{},{},{}\n",
                r.cores,
                r.detailed_mips,
                r.badco_mips,
                r.speedup()
            ));
        }
        out
    }
}

impl CsvExport for CpiAccuracyReport {
    fn csv(&self) -> String {
        let mut out = String::from("cores,benchmark,detailed_cpi,badco_cpi,rel_error\n");
        for p in &self.points {
            out.push_str(&format!(
                "{},{},{},{},{}\n",
                p.cores,
                field(&p.benchmark),
                p.detailed_cpi,
                p.badco_cpi,
                p.relative_error()
            ));
        }
        out
    }
}

impl CsvExport for MpkiReport {
    fn csv(&self) -> String {
        let mut out = String::from("benchmark,nominal_class,mpki,measured_class,match\n");
        for r in &self.rows {
            out.push_str(&format!(
                "{},{},{},{},{}\n",
                field(&r.name),
                r.nominal,
                r.measured_mpki,
                r.measured_class,
                r.nominal == r.measured_class
            ));
        }
        out
    }
}

impl CsvExport for AblationReport {
    fn csv(&self) -> String {
        let mut out = String::from("configuration,strata,confidence\n");
        for r in &self.rows {
            // Configurations contain spaces but never commas.
            out.push_str(&format!(
                "{},{},{}\n",
                field(&r.config),
                r.strata,
                r.confidence
            ));
        }
        out
    }
}

impl CsvExport for GuidelineReport {
    fn csv(&self) -> String {
        let mut out = String::from("pair,metric,cv,recommendation\n");
        for r in &self.rows {
            let rec = match r.recommendation {
                mps_sampling::Recommendation::Equivalent { .. } => "equivalent".to_owned(),
                mps_sampling::Recommendation::BalancedRandom { sample_size, .. } => {
                    format!("balanced-random W={sample_size}")
                }
                mps_sampling::Recommendation::WorkloadStratification {
                    random_equivalent, ..
                } => format!("workload-strata (random W={random_equivalent})"),
            };
            out.push_str(&format!(
                "{} vs {},{},{},{}\n",
                r.y,
                r.x,
                field(r.metric.short_name()),
                r.cv,
                rec
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::fig1;

    #[test]
    fn fig1_csv_has_header_and_rows() {
        let csv = fig1().csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "abscissa,confidence");
        assert_eq!(lines.len(), 42);
        assert!(lines[21].starts_with("0,0.5"));
    }

    #[test]
    fn every_line_has_constant_column_count() {
        let csv = fig1().csv();
        let cols = csv.lines().next().unwrap().split(',').count();
        for line in csv.lines() {
            assert_eq!(line.split(',').count(), cols, "{line}");
        }
    }

    #[test]
    fn artifact_schema_2_round_trips() {
        let a = Artifact {
            name: "fig3".to_owned(),
            text: "FIGURE 3.\nrows\n".to_owned(),
            csv: "a,b\n1,2\n".to_owned(),
        };
        let bytes = a.to_bytes();
        assert!(bytes.starts_with(b"{\"schema\":2,"));
        assert_eq!(Artifact::from_bytes(&bytes).unwrap(), a);
    }

    #[test]
    fn artifact_reader_accepts_schema_1() {
        // A schema-1 record: header + text only, no CSV section.
        let mut bytes = b"{\"schema\":1,\"name\":\"table4\"}\n".to_vec();
        let mut e = mps_store::Enc::new();
        e.str("TABLE IV.\n");
        bytes.extend_from_slice(&e.into_bytes());
        let a = Artifact::from_bytes(&bytes).unwrap();
        assert_eq!(a.name, "table4");
        assert_eq!(a.text, "TABLE IV.\n");
        assert_eq!(a.csv, "", "schema 1 predates CSV persistence");
    }

    #[test]
    fn artifact_reader_rejects_future_schema() {
        let a = Artifact {
            name: "fig3".to_owned(),
            text: "t".to_owned(),
            csv: String::new(),
        };
        let bytes = String::from_utf8(a.to_bytes())
            .unwrap()
            .replace("\"schema\":2", "\"schema\":99");
        match Artifact::from_bytes(bytes.as_bytes()) {
            Err(Error::SchemaVersion { found: 99, .. }) => {}
            other => panic!("wanted SchemaVersion error, got {other:?}"),
        }
    }

    #[test]
    fn artifact_corrupt_payloads_error_not_panic() {
        assert!(Artifact::from_bytes(b"no newline here").is_err());
        assert!(Artifact::from_bytes(b"{\"schema\":2,\"name\":\"x\"}\n\x05").is_err());
        assert!(Artifact::from_bytes(b"{\"name\":\"x\"}\npayload").is_err());
    }
}
