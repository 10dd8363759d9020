//! Print the plan sets of Q1–Q10 — every alternative's label, rule
//! trace and explain text, then the cost ranking — as deterministic
//! text, to (re)generate `tests/golden/plan_sets_*.txt` or to diff the
//! rewriter's output between two commits.
//!
//! ```sh
//! cargo run --release --example plan_sets -- --scale 20 > tests/golden/plan_sets_scan.txt
//! cargo run --release --example plan_sets -- --scale 20 --indexes > tests/golden/plan_sets_indexed.txt
//! ```

use ordered_unnesting::plan_sets::render;

fn main() {
    let mut scale = 20usize;
    let mut use_indexes = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--scale takes a number"));
            }
            "--indexes" => use_indexes = true,
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    print!("{}", render(scale, use_indexes));
}

fn usage(problem: &str) -> ! {
    eprintln!("{problem}\nusage: plan_sets [--scale N] [--indexes]");
    std::process::exit(2);
}
