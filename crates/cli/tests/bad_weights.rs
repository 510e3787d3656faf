//! A `--weights` file that does not fit the topology or the scheme is a
//! structured [`CliError::Weights`], never a panic.

use dtr_cli::{run, Args, CliError};
use dtr_graph::weights::DualWeights;
use dtr_graph::WeightVector;

fn args(s: &str) -> Args {
    Args::parse(s.split_whitespace().map(str::to_string)).unwrap()
}

fn tmp(name: &str) -> String {
    std::env::temp_dir()
        .join(format!("dtrctl-badw-{}-{name}", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

fn write(path: &str, w: &DualWeights) {
    std::fs::write(path, serde_json::to_string(w).unwrap()).unwrap();
}

#[test]
fn mismatched_and_unreplicated_weights_are_errors() {
    let topo_p = tmp("topo.json");
    let tm_p = tmp("tm.json");
    let short_p = tmp("short.json");
    let dual_p = tmp("dual.json");
    let out_p = tmp("out.json");
    run(&args(&format!(
        "topo random --nodes 8 --links 32 --seed 3 --out {topo_p}"
    )))
    .unwrap();
    run(&args(&format!(
        "traffic --topo {topo_p} --scale 2 --seed 3 --out {tm_p}"
    )))
    .unwrap();
    // Three weights for a 32-link topology.
    write(
        &short_p,
        &DualWeights::replicated(WeightVector::from_vec(vec![1; 3])),
    );
    // Right length, but the classes differ: not an STR setting.
    let mut dual = DualWeights::replicated(WeightVector::from_vec(vec![1; 32]));
    dual.low = WeightVector::from_vec(vec![2; 32]);
    write(&dual_p, &dual);

    let io = format!("--topo {topo_p} --traffic {tm_p}");
    let budget = "--budget tiny --out";
    let mismatched = [
        format!("reopt {io} --weights {short_p} --changes 2 {budget} {out_p}"),
        format!("robust {io} --weights {short_p} --cap 2 {budget} {out_p}"),
        format!("optimize --robust {io} --weights {short_p} --cap 2 {budget} {out_p}"),
        format!("evaluate {io} --weights {short_p}"),
        format!("simulate {io} --weights {short_p} --duration 0.1 --warmup 0.05"),
        format!("deploy --topo {topo_p} --weights {short_p}"),
    ];
    let unreplicated = [
        format!("reopt {io} --weights {dual_p} --scheme str --changes 2 {budget} {out_p}"),
        format!("robust {io} --weights {dual_p} --scheme str --cap 2 {budget} {out_p}"),
        format!("optimize --robust {io} --weights {dual_p} --scheme str --cap 2 {budget} {out_p}"),
    ];
    for cmd in mismatched.iter().chain(&unreplicated) {
        match run(&args(cmd)) {
            Err(CliError::Weights { .. }) => {}
            other => panic!("{cmd}: expected a weights error, got {other:?}"),
        }
    }
    for p in [topo_p, tm_p, short_p, dual_p, out_p] {
        let _ = std::fs::remove_file(p);
    }
}
