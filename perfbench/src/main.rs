//! `efactory-perfbench`: see the crate docs and `README.md`.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(efactory_perfbench::cli::main_with(&args));
}
