//! Structural checks on every table/figure experiment at test scale.

use mps::harness::experiments as exp;
use mps::harness::{Scale, StudyContext};

#[test]
fn static_tables_render() {
    assert!(exp::table1().contains("4/6/4"));
    assert!(exp::table2().contains("UNCORE"));
    let fig1 = exp::fig1();
    assert_eq!(fig1.points.len(), 41);
}

#[test]
fn all_simulation_experiments_run_at_test_scale() {
    let ctx = StudyContext::new(Scale::test());

    // Table III: BADCO is faster than the detailed simulator (speedup
    // > 1) at every core count. The paper's speedup also grows with core
    // count; that claim is not asserted here (ROADMAP item 6).
    let speeds = exp::table3(&ctx).unwrap();
    assert_eq!(speeds.rows.len(), 4);
    for row in &speeds.rows {
        assert!(
            row.speedup() > 1.0,
            "{} cores: BADCO must be faster ({:.2}x)",
            row.cores,
            row.speedup()
        );
    }

    // Figure 2: bounded CPI error.
    let acc = exp::fig2(&ctx).unwrap();
    assert!(!acc.points.is_empty());
    for cores in acc.core_counts() {
        assert!(
            acc.mean_error(cores) < 0.5,
            "{cores}-core mean CPI error {:.1}%",
            acc.mean_error(cores) * 100.0
        );
    }

    // Figure 3: model vs experiment.
    let f3 = exp::fig3(&ctx).unwrap();
    assert!(
        f3.max_model_error() < 0.25,
        "model error {}",
        f3.max_model_error()
    );

    // Figures 4/5: sign agreement between BADCO sample and population.
    let f4 = exp::fig4(&ctx).unwrap();
    assert_eq!(f4.rows.len(), 30);
    let f5 = exp::fig5(&ctx).unwrap();
    assert_eq!(f5.rows.len(), 30);

    // Figure 6: four panels; workload stratification is never the worst
    // method at the largest sample size.
    let f6 = exp::fig6(&ctx).unwrap();
    assert_eq!(f6.panels.len(), 4);
    for p in &f6.panels {
        let sizes: Vec<usize> = p.series.iter().map(|&(_, w, _)| w).collect();
        let wmax = *sizes.iter().max().unwrap();
        let strata = p.confidence("workload-strata", wmax).unwrap();
        let random = p.confidence("random", wmax).unwrap();
        // Confidence is a probability of declaring "Y wins"; whichever
        // direction is true, stratification must be at least as decisive.
        let decisive = |c: f64| (c - 0.5).abs();
        assert!(
            decisive(strata) >= decisive(random) - 0.1,
            "{}>{}: strata {strata} vs random {random}",
            p.y,
            p.x
        );
    }

    // Overhead: reproduces the paper's arithmetic.
    let oh = exp::overhead(&ctx, &speeds);
    assert!((oh.paper.detailed_hours(30, 2) - 136.0).abs() < 1.0);
}

#[test]
fn fig7_detailed_confidence_runs() {
    let ctx = StudyContext::new(Scale::test());
    let f7 = exp::fig7(&ctx).unwrap();
    assert_eq!(f7.panels.len(), 1);
    assert_eq!(f7.simulator, "detailed");
    let p = &f7.panels[0];
    // All four methods run on the full 2-core population.
    for m in ["random", "bal-random", "bench-strata", "workload-strata"] {
        assert!(
            p.methods().contains(&m.to_owned()),
            "missing method {m}: {:?}",
            p.methods()
        );
    }
    for &(_, _, c) in &p.series {
        assert!((0.0..=1.0).contains(&c));
    }
}
