//! Regenerates every gated table and figure of the evaluation — Tables I
//! and IV, Figs. 2 and 5–9, Fig. 10(b), Fig. 11 / Table VII — and rewrites
//! their `BENCH_<figure>.json` dumps (see [`grasp_bench::regenerate`]).

use grasp_core::datasets::Scale;

fn main() {
    let scale = Scale::from_env();
    grasp_bench::banner("every gated table and figure", scale);
    grasp_bench::regenerate(scale);
}
