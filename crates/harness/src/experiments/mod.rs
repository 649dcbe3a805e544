//! One module per group of paper artifacts.
//!
//! Every experiment takes a [`crate::StudyContext`] and returns a typed
//! report that implements `Display` in the shape of the paper's table or
//! figure (a text table with the same rows/series).

pub mod ablation;
pub mod accuracy;
pub mod confidence;
pub mod cv;
pub mod distribution;
pub mod guideline;
pub mod overhead;
pub mod tables;

pub use ablation::{ablation, AblationReport};
pub use accuracy::{fig2, table3, CpiAccuracyReport, SpeedReport};
pub use confidence::{fig1, fig3, fig6, fig7, ConfidenceCurves, Fig1Report, Fig3Report};
pub use cv::{fig4, fig5, InvCvReport};
pub use distribution::{dw, DistributionReport};
pub use guideline::{guideline, GuidelineReport};
pub use overhead::{overhead, OverheadReport};
pub use tables::{table1, table2, table4, MpkiReport};
