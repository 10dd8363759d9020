#![forbid(unsafe_code)]

fn main() {
    let seed = fuzz::env_seed(fuzz::DEFAULT_SEED);
    let cases = fuzz::env_cases(50);
    let t = std::time::Instant::now();
    match fuzz::run_fuzz(seed, cases, &fuzz::GenConfig::default()) {
        Ok(r) => println!(
            "ok: {} cases ({} with updates) in {:?}",
            r.cases,
            r.with_updates,
            t.elapsed()
        ),
        Err(f) => {
            println!("FAILED:\n{f}");
            std::process::exit(1);
        }
    }
}
