//! Regenerates the paper's evaluation figures (4-11).
//!
//! ```text
//! cargo run -p refer-bench --release --bin figures -- --fig all --seeds 1,2,3
//! ```
//!
//! Its flags are `FLAGS` below; a usage error prints them and exits 2.
//! The defaults are every figure, seeds 1,2,3, `--scale 0.25` and
//! `--out results`.
//!
//! Figures sharing a sweep (4-5 mobility, 6-7 faults, 8-11 size) reuse the
//! same simulations. Output: one aligned text table per figure on stdout,
//! and under `--out` a JSON dump per sweep plus one SVG per figure, both
//! from the same in-memory result. `--fault-model discovered` replaces
//! the paper's idealized failure knowledge with link-layer
//! ACK-based detection in every system; `byzantine` additionally
//! compromises `--attacker-fraction` of the sensors. `--link-pdr` adds a
//! uniform per-link loss probability. `--degradation` skips the paper
//! figures and instead sweeps the compromised fraction 0..=0.3 under the
//! Byzantine model, printing the robustness degradation table. `--load`
//! sweeps the offered load of a traffic matrix (`--workload`, default
//! all-to-all) and prints REFER's congestion metrics under shortest vs.
//! regular Kautz routing; `--workload`/`--routing`/`--offered-load` also
//! apply to the paper figures for heavy-traffic variants.

use refer_bench::cli::{exit_usage, Args, Command, SHARED};
use refer_bench::{
    figure, render_degradation, render_figure, render_load, run_sweep, Figure, ScenarioFlags,
    Sweep, FIGURES,
};

const FLAGS: Command = Command {
    name: "figures",
    positional: "",
    flags: &[
        &["--fig N|all", "--seeds 1,2,3", "--scale F", "--out DIR", "--no-out", "--quiet"],
        &["--degradation", "--load"],
        SHARED,
    ],
};

/// What one `figures` run does, read from its flags.
struct Run {
    figs: Vec<u32>,
    seeds: Vec<u64>,
    out: Option<String>,
    quiet: bool,
    scenario: ScenarioFlags,
    degradation: bool,
    load: bool,
}

impl Run {
    fn read(args: &Args) -> Result<Run, String> {
        let figs = match args.get::<String>("fig")?.as_deref() {
            None | Some("all") => (4..=11).collect(),
            Some(_) => args.list("fig")?.unwrap_or_default(),
        };
        if let Some(id) = figs.iter().find(|&&id| figure(id).is_none()) {
            return Err(format!("no figure {id}; the paper has 4..=11"));
        }
        let out = args.get("out")?.unwrap_or_else(|| "results".to_string());
        Ok(Run {
            figs,
            seeds: args.list("seeds")?.unwrap_or_else(|| vec![1, 2, 3]),
            out: (!args.has("no-out")).then_some(out),
            quiet: args.has("quiet"),
            scenario: ScenarioFlags::read(args, 0.25, 1)?,
            degradation: args.has("degradation"),
            load: args.has("load"),
        })
    }
}

fn main() {
    let run = FLAGS.parse(std::env::args().skip(1)).and_then(|args| Run::read(&args));
    let run = run.unwrap_or_else(|e| exit_usage(&e, &[&FLAGS]));
    // Each mode is a list of sweeps; all three then share one
    // run → print → write loop.
    let sweeps: Vec<Sweep> = if run.degradation {
        eprintln!(
            "Byzantine degradation sweep over {} seed(s) at scale {}",
            run.seeds.len(),
            run.scenario.scale
        );
        vec![Sweep::Attackers]
    } else if run.load {
        eprintln!(
            "Heavy-traffic load sweep ({} workload) over {} seed(s) at scale {}",
            run.scenario.config.traffic.pattern.name(),
            run.seeds.len(),
            run.scenario.scale
        );
        vec![Sweep::Load]
    } else {
        // Every id was checked against `figure` while parsing.
        let figs: Vec<Figure> = run.figs.iter().filter_map(|&id| figure(id)).collect();
        let sweeps: Vec<Sweep> = [Sweep::Mobility, Sweep::Faults, Sweep::Size]
            .into_iter()
            .filter(|&sweep| figs.iter().any(|f| f.sweep == sweep))
            .collect();
        eprintln!(
            "Reproducing {} figure(s) over {} seed(s) at scale {} ({} sweeps)",
            figs.len(),
            run.seeds.len(),
            run.scenario.scale,
            sweeps.len()
        );
        sweeps
    };
    // The requested paper figures a sweep feeds, in the paper's order.
    let wanted = &run.figs;
    let figures_of = |sweep: Sweep| {
        FIGURES
            .iter()
            .filter(move |fig| fig.sweep == sweep && wanted.contains(&fig.id))
    };

    let results: Vec<_> = sweeps
        .into_iter()
        .map(|sweep| {
            let t = std::time::Instant::now();
            let result = run_sweep(sweep, &run.seeds, &run.scenario, |label| {
                if !run.quiet {
                    eprintln!("  done: {label}");
                }
            });
            eprintln!("sweep {sweep:?} finished in {:.1}s", t.elapsed().as_secs_f64());
            result
        })
        .collect();

    for result in &results {
        match result.sweep {
            Sweep::Attackers => println!("{}", render_degradation(result)),
            Sweep::Load => println!("{}", render_load(result)),
            sweep => {
                for fig in figures_of(sweep) {
                    println!("{}", render_figure(fig, result));
                }
            }
        }
    }

    if let Some(out) = &run.out {
        std::fs::create_dir_all(out).expect("create output directory");
        for result in &results {
            let path = format!("{out}/sweep_{}.json", format!("{:?}", result.sweep).to_lowercase());
            std::fs::write(&path, refer_bench::json::to_json(result)).expect("write json");
            eprintln!("wrote {path}");
            for fig in figures_of(result.sweep) {
                let path = format!("{out}/fig{:02}.svg", fig.id);
                std::fs::write(&path, refer_bench::svgplot::figure_svg(fig, result))
                    .expect("write svg");
                eprintln!("wrote {path}");
            }
        }
    }
}
