//! The paper's measurement study as a workflow: mine a WLAN trace for
//! sociality — co-leaving behaviour, profile stability (NMI), user typing
//! (k-means + gap statistic) and the type co-leave matrix.
//!
//! ```text
//! cargo run --release --example social_analysis
//! ```

use s3_wlan_lb::core::profile::all_window_profiles;
use s3_wlan_lb::core::{S3Config, SocialModel};
use s3_wlan_lb::stats::cdf::Ecdf;
use s3_wlan_lb::stats::gap::{gap_statistic, GapConfig};
use s3_wlan_lb::trace::events::leaving_stats;
use s3_wlan_lb::trace::generator::{CampusConfig, CampusGenerator};
use s3_wlan_lb::trace::TraceStore;
use s3_wlan_lb::types::TimeDelta;
use s3_wlan_lb::wlan::selector::LeastLoadedFirst;
use s3_wlan_lb::wlan::{SimConfig, SimEngine, Topology};

fn main() {
    let config = CampusConfig {
        buildings: 4,
        aps_per_building: 8,
        users: 1_000,
        days: 21,
        ..CampusConfig::campus()
    };
    let campus = CampusGenerator::new(config, 23).generate();
    let engine = SimEngine::new(Topology::from_campus(&campus.config), SimConfig::default());
    let log = TraceStore::new(
        engine
            .run(&campus.demands, &mut LeastLoadedFirst::new())
            .records,
    );
    println!(
        "trace: {} sessions, {} users\n",
        log.len(),
        log.users().len()
    );

    // --- Sociality of leavings (the paper's Fig. 5 question) ---
    println!("co-leaving behaviour:");
    for minutes in [10u64, 20, 30] {
        let stats = leaving_stats(&log, TimeDelta::minutes(minutes), 1);
        let fractions: Vec<f64> = stats
            .values()
            .filter(|s| s.total > 0)
            .map(|s| s.co_leaving_fraction())
            .collect();
        let cdf = Ecdf::new(fractions).expect("leavings exist");
        println!(
            "  {minutes:>2}-min window: median user co-leaves {:.0}% of the time; \
             only {:.0}% of users co-leave less than half the time",
            cdf.quantile(0.5) * 100.0,
            cdf.fraction_below(0.5) * 100.0
        );
    }

    // --- User typing (Figs. 7/8) ---
    let last_day = campus.config.days - 1;
    let profiles = all_window_profiles(&log, last_day, 15);
    let mut users: Vec<_> = profiles.keys().copied().collect();
    users.sort_unstable();
    let points: Vec<Vec<f64>> = users
        .iter()
        .map(|u| profiles[u].shares().to_vec())
        .collect();
    let gap = gap_statistic(&points, 8, &GapConfig::default(), 1).expect("profiles cluster");
    println!("\nuser typing: gap statistic chooses k = {}", gap.chosen_k);

    // --- The learned social model (Table I) ---
    let model = SocialModel::learn(
        &log,
        &S3Config {
            fixed_k: Some(4),
            ..S3Config::default()
        },
        1,
    );
    let t = model.type_matrix();
    println!("type co-leave matrix (diagonal = same type):");
    for i in 0..t.k() {
        let row: Vec<String> = (0..t.k()).map(|j| format!("{:.3}", t.get(i, j))).collect();
        println!("  type{}: [{}]", i + 1, row.join(", "));
    }
    println!(
        "  diagonal mean {:.3} > off-diagonal mean {:.3} → same-type users co-leave more",
        t.diagonal_mean(),
        t.off_diagonal_mean()
    );

    // --- How well does the model recover the planted groups? ---
    let truth = &campus.ground_truth;
    let mut in_group_delta = Vec::new();
    let mut random_delta = Vec::new();
    for group in truth.groups.iter().take(30) {
        for (i, &u) in group.members.iter().enumerate() {
            for &v in group.members.iter().skip(i + 1).take(3) {
                in_group_delta.push(model.delta(u, v));
            }
        }
    }
    for i in 0..300u32 {
        random_delta.push(model.delta(
            s3_wlan_lb::types::UserId::new(i),
            s3_wlan_lb::types::UserId::new(999 - i),
        ));
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    println!(
        "\nsocial index δ: planted group pairs {:.3} vs random pairs {:.3}",
        mean(&in_group_delta),
        mean(&random_delta)
    );
}
