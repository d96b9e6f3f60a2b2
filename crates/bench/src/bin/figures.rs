//! Regenerates the paper's evaluation figures (4-11).
//!
//! ```text
//! cargo run -p refer-bench --release --bin figures -- [--fig N|all] \
//!     [--seeds 1,2,3] [--scale 0.25] [--out results/] \
//!     [--fault-model oracle|discovered|byzantine] \
//!     [--attacker-fraction F] [--link-pdr P] [--degradation] \
//!     [--load] [--workload paper|all2all|hotspot] \
//!     [--routing shortest|regular] [--offered-load PPS]
//! ```
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

use refer_bench::{
    figure, render_degradation, render_figure, render_load, run_sweep, Figure, ScenarioFlags,
    Sweep, FIGURES,
};

struct Args {
    figs: Vec<u32>,
    seeds: Vec<u64>,
    scale: f64,
    out: Option<String>,
    quiet: bool,
    scenario: ScenarioFlags,
    degradation: bool,
    load: bool,
}

/// Exits with the CLI's usage error code for a malformed flag value.
fn bail(message: String) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

/// Parses one flag value, bailing with the flag's name when it is malformed.
fn parse<T: std::str::FromStr>(flag: &str, v: &str) -> T {
    v.parse().unwrap_or_else(|_| bail(format!("{flag}: cannot parse {v:?}")))
}

/// Parses one comma-separated list, bailing on the first malformed item.
fn parse_list<T: std::str::FromStr>(flag: &str, v: &str) -> Vec<T> {
    v.split(',').map(|s| parse(flag, s)).collect()
}

fn parse_args() -> Args {
    let mut args = Args {
        figs: (4..=11).collect(),
        seeds: vec![1, 2, 3],
        scale: 0.25,
        out: Some("results".to_string()),
        quiet: false,
        scenario: ScenarioFlags::default(),
        degradation: false,
        load: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        // The scenario knobs shared by every CLI live in one parser.
        if args.scenario.accept(&a, &mut it).unwrap_or_else(|e| bail(e)) {
            continue;
        }
        let mut value = || it.next().unwrap_or_else(|| bail(format!("{a} needs a value")));
        match a.as_str() {
            "--fig" => {
                let v = value();
                if v != "all" {
                    args.figs = parse_list("--fig", &v);
                    if let Some(id) = args.figs.iter().find(|&&id| figure(id).is_none()) {
                        bail(format!("no figure {id}; the paper has 4..=11"));
                    }
                }
            }
            "--seeds" => args.seeds = parse_list("--seeds", &value()),
            "--scale" => args.scale = parse("--scale", &value()),
            "--out" => args.out = Some(value()),
            "--no-out" => args.out = None,
            "--quiet" => args.quiet = true,
            "--degradation" => args.degradation = true,
            "--load" => args.load = true,
            other => bail(format!("unknown argument {other:?}")),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    // Each mode is a list of sweeps; all three then share one
    // run → print → write loop.
    let sweeps: Vec<Sweep> = if args.degradation {
        eprintln!(
            "Byzantine degradation sweep over {} seed(s) at scale {}",
            args.seeds.len(),
            args.scale
        );
        vec![Sweep::Attackers]
    } else if args.load {
        eprintln!(
            "Heavy-traffic load sweep ({} workload) over {} seed(s) at scale {}",
            args.scenario.workload.name(),
            args.seeds.len(),
            args.scale
        );
        vec![Sweep::Load]
    } else {
        // Every id was checked against `figure` while parsing.
        let figs: Vec<Figure> = args.figs.iter().filter_map(|&id| figure(id)).collect();
        let sweeps: Vec<Sweep> = [Sweep::Mobility, Sweep::Faults, Sweep::Size]
            .into_iter()
            .filter(|&sweep| figs.iter().any(|f| f.sweep == sweep))
            .collect();
        eprintln!(
            "Reproducing {} figure(s) over {} seed(s) at scale {} ({} sweeps)",
            figs.len(),
            args.seeds.len(),
            args.scale,
            sweeps.len()
        );
        sweeps
    };
    // The requested paper figures a sweep feeds, in the paper's order.
    let wanted = &args.figs;
    let figures_of = |sweep: Sweep| {
        FIGURES
            .iter()
            .filter(move |fig| fig.sweep == sweep && wanted.contains(&fig.id))
    };

    let results: Vec<_> = sweeps
        .into_iter()
        .map(|sweep| {
            let t = std::time::Instant::now();
            let result = run_sweep(sweep, &args.seeds, args.scale, &args.scenario, |label| {
                if !args.quiet {
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

    if let Some(out) = &args.out {
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
