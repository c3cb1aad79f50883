//! Quickstart: enroll and verify a PassPoints password under both
//! discretization schemes, and see where they disagree.
//!
//! Run with: `cargo run --example quickstart`

use graphical_passwords::crypto::hex;
use graphical_passwords::discretization::GridId;
use graphical_passwords::geometry::{ImageDims, Point};
use graphical_passwords::passwords::prelude::*;

/// What the server stores for one account (§3.2): the clear grid
/// identifier of each click, and one salted, iterated hash.
fn describe(stored: &StoredPassword) -> String {
    let grid_ids: Vec<String> = stored
        .clicks
        .iter()
        .map(|click| match click.grid_id {
            GridId::Centered { dx, dy } => format!("(dx {dx}, dy {dy})"),
            GridId::Robust { grid_index } => format!("grid {grid_index}"),
            GridId::Static => "static".to_string(),
        })
        .collect();
    format!(
        "user {:?}, {}\n  grid identifiers: {}\n  hash: h^{} = {}",
        stored.username,
        stored.config.to_header(),
        grid_ids.join(", "),
        stored.hash.iterations,
        hex::encode(&stored.hash.digest)
    )
}

fn main() {
    let clicks = graphical_passwords::example_clicks();

    // A PassPoints deployment with Centered Discretization (9-pixel
    // guaranteed tolerance) on the paper's 451x331 study image.
    let centered =
        GraphicalPasswordSystem::passpoints(ImageDims::STUDY, DiscretizationConfig::centered(9));
    // The same deployment with the prior scheme, Robust Discretization,
    // at the same guaranteed tolerance.
    let robust =
        GraphicalPasswordSystem::passpoints(ImageDims::STUDY, DiscretizationConfig::robust(9.0));

    println!(
        "Original click-points: {:?}\n",
        clicks.iter().map(|p| p.to_string()).collect::<Vec<_>>()
    );

    let stored_centered = centered.enroll("alice", &clicks).expect("enroll centered");
    let stored_robust = robust.enroll("alice", &clicks).expect("enroll robust");

    println!(
        "What the server stores (Centered Discretization):\n  {}\n",
        describe(&stored_centered)
    );
    println!(
        "What the server stores (Robust Discretization):\n  {}\n",
        describe(&stored_robust)
    );

    // Replay a few login attempts at increasing distance from the original
    // click-points and show each scheme's decision.
    println!(
        "{:>10}  {:>22}  {:>22}",
        "offset px", "centered (r=9)", "robust (r=9, 54x54)"
    );
    for offset in [0.0, 4.0, 9.0, 10.0, 14.0, 20.0, 27.0, 30.0] {
        let attempt: Vec<Point> = clicks
            .iter()
            .map(|p| ImageDims::STUDY.clamp_point(&p.offset(offset, offset)))
            .collect();
        let c = centered.verify(&stored_centered, &attempt).unwrap();
        let r = robust.verify(&stored_robust, &attempt).unwrap();
        println!(
            "{offset:>10}  {:>22}  {:>22}",
            if c { "accepted" } else { "rejected" },
            if r { "accepted" } else { "rejected" }
        );
    }

    println!();
    let c_scheme = DiscretizationConfig::centered(9).build();
    let r_scheme = DiscretizationConfig::robust(9.0).build();
    println!(
        "Centered: grid {}x{} squares, accepts up to {} px, {} possible grid identifiers",
        c_scheme.grid_square_size(),
        c_scheme.grid_square_size(),
        c_scheme.maximum_accepted_distance(),
        c_scheme.num_grid_identifiers()
    );
    println!(
        "Robust:   grid {}x{} squares, accepts up to {} px, {} possible grid identifiers",
        r_scheme.grid_square_size(),
        r_scheme.grid_square_size(),
        r_scheme.maximum_accepted_distance(),
        r_scheme.num_grid_identifiers()
    );
    println!(
        "\nRobust's 6x-larger squares are what the paper's security analysis\n\
         (Table 3, Figures 7-8) charges against it; its off-center tolerance is\n\
         what the usability analysis (Tables 1-2) charges against it."
    );
}
