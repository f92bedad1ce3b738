//! Result fingerprints recorded at the commit that introduced the
//! benchmark. A run whose seed is listed here must reproduce them: the
//! sweep's result checksum and the explore artifact's FNV-1a hash. Seeds
//! not listed are still checked cell by cell against scalar replays.
//!
//! Regenerate a line with `--workload <sweep|explore> --seed N --golden`.

use crate::common::Ctx;

/// `(workload, seed, fingerprint)`.
const GOLDEN: &[(&str, u64, u64)] = &[
    ("sweep", 0, 0xbc4bd3d979ef8ac3),
    ("sweep", 1, 0x3eda956aee8dc592),
    ("sweep", 2, 0x0ad91114f0e8c648),
    ("sweep", 3, 0xafad24f8bcad9397),
    ("sweep", 4, 0xe1c906f5d452810b),
    ("sweep", 5, 0xcab99c409356f24f),
    ("sweep", 6, 0xddab98df6517a18d),
    ("sweep", 7, 0x8879d5bd6ffc8ce1),
    ("sweep", 8, 0x9cd32b12e72d6809),
    ("sweep", 9, 0xf183f5cf2921da4f),
    ("sweep", 10, 0x27d8441f0f7ef60a),
    ("sweep", 11, 0x6556a8ada86956e0),
    ("sweep", 12, 0x540c822ab1d4ccd5),
    ("sweep", 13, 0x6d85f565dbe413fe),
    ("sweep", 14, 0x4696bf3845544873),
    ("sweep", 15, 0xe9433b64aec6dd2c),
    ("sweep", 16, 0x60e539feaaa681d8),
    ("sweep", 17, 0x3b5f360622f8c592),
    ("sweep", 18, 0xc3692c33a59bea25),
    ("sweep", 19, 0x8fc8c8f3bd716d9f),
    ("sweep", 20, 0xd50534ae1dd05d0e),
    ("explore", 0, 0x34c27ebee8303049),
    ("explore", 1, 0xfed6fd1820c12d7d),
    ("explore", 2, 0x8136109bfab9c24a),
    ("explore", 3, 0x5643773a371183c4),
    ("explore", 4, 0x6b1422f16c54e6f7),
    ("explore", 5, 0xd238518efeb3049e),
    ("explore", 6, 0x7619d9b89a55f12b),
    ("explore", 7, 0xed17f70cea28522a),
    ("explore", 8, 0x5913b70d52cb494b),
    ("explore", 9, 0xf0e32c36799c6e8e),
    ("explore", 10, 0x7037891aa9a98a61),
    ("explore", 11, 0x3526b73601f45faf),
    ("explore", 12, 0x6f1e9dc22f3c8ec0),
    ("explore", 13, 0x15ff80ab3eed28f1),
    ("explore", 14, 0x8fdf4228d00d8b5e),
    ("explore", 15, 0xd34092c7a1600372),
    ("explore", 16, 0x2d0ec8debd0bf538),
    ("explore", 17, 0x1e52df6d3167f412),
    ("explore", 18, 0xd4da4e4bb80c3bfe),
    ("explore", 19, 0xcc2288587d522f39),
    ("explore", 20, 0x6ddb646305b49c3d),
];

/// 1 if `seed` has a recorded fingerprint for `workload` and `got`
/// differs from it, else 0.
pub fn check(ctx: &Ctx, workload: &str, got: u64) -> u64 {
    if ctx.print_golden {
        println!("golden: (\"{workload}\", {}, 0x{got:016x}),", ctx.seed);
    }
    match GOLDEN
        .iter()
        .find(|&&(w, s, _)| w == workload && s == ctx.seed)
    {
        Some(&(_, _, want)) if want != got => {
            eprintln!(
                "{workload}: fingerprint 0x{got:016x} differs from 0x{want:016x} recorded for seed {}",
                ctx.seed
            );
            1
        }
        _ => 0,
    }
}
