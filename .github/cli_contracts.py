"""CI's CLI contracts, one row each: run ``python -W error -m omegadist.cli
ARGV FLAGS`` with PYTHONPATH=src once per flag set, and check its exit code,
the sha256 of its stdout (where pinned) and its peak RSS (where bounded).
Every row runs; then the script exits 1, naming each row that broke, or 0.
Run it from anywhere: ``python .github/cli_contracts.py``."""

import hashlib, os, pathlib, resource, subprocess, sys, time

ROOT = pathlib.Path(__file__).resolve().parent.parent
M2_12, X8 = [f"--m={m}" for m in range(2, 13)], ["--x-max", "100000000"]
W1, W2, SEG = ["--workers", "1"], ["--workers", "2"], ["--segment-size", "1000003"]

# argv, flag sets, exit code, stdout sha256 or None, peak RSS bound in MB or
# None.  The bounded rows run first, so that the children's running
# ru_maxrss bounds each of them from above.
CONTRACTS = [
    # The widest table, 785,940 rows: density formats it a block per modulus
    # and a chunk of rows at a time, so its peak follows the m = 12 block;
    # whole-table row dicts peaked at 426 MB.  The lowest bound runs first.
    (["density", *M2_12, "--x-max", "10000000", "--ratio", "1.001"], [[]], 0,
     "8f64e6af092901574e0b71b219da5cca327e8669a3f0a00bf7bac9bc9352f2da", 88),
    # hall tabulates the envelope from one prime table to x-max; at 1e8 the
    # uint32 table and one pass of 1/p over it stay under 128 MB.  The pin
    # reads the running sum of 1/p over every prime <= 1e8; Tier-1 checks
    # only their count and the last one.
    (["hall", "--m", "3", "--m", "8", *X8], [[]], 0,
     "7572b43e51728e20dc3d8161b648da64709c62131dd41eaea676338f474f5e26", 128),
    # dirichlet-check takes each Euler product to p-max a slice at a time,
    # over every prime <= 1e8.
    (["dirichlet-check", "--m", "3", "--n-max", "1000", "--p-max", "100000000"], [[]], 0,
     "96a83c0c5c14a0265fa288c8010e7be6e1628ab7293ebe43b65d2e20acff38f5", 128),
    # 12,511 checkpoints to 1e8, each envelope row read from the one running
    # sum of 1/p; Tier-1's unsorted x stop at 2 * 10^5.
    (["hall", "--m", "3", *X8, "--ratio", "1.001"], [[]], 0,
     "7e0dd28d3e249c769678743c1f5a1408810a836be9f34fdcb7ecf42c9112b052", None),
    (["selftest"], [[]], 0, None, None),
    # 1..2^24 sieved as one block and trial-divided at every n in it.
    (["selftest", "--x-limit", "16777216"], [[]], 0, None, None),
    (["selftest", "--inject-fault", "--x-limit", "2000"], [[]], 1, None, None),
    # A limit above one block is a usage error, not a run out of memory.
    (["selftest", "--x-limit", "16777217"], [[]], 2, None, None),
    # Checkpoints from the n coprime to 6, lifted by 2^a·3^b, from one worker,
    # two, and segments of 1000003 that put them at other offsets; Tier-1
    # stops at 5000.  The pin holds the last bit of every character fit's
    # residual_rms, which moves if |S_k| is taken other than as abs(complex).
    (["error-growth", *M2_12, *X8], [W1, W2, W1 + SEG], 0,
     "76eb0652245449a48054f4987ade940958ff5a0e4f4a9dc87acf4d3405a3a8aa", None),
    # perfbench's pinned sweep bytes from the serial and pooled stream of the
    # n coprime to 6, whole and in blocks of 1000003 of their values.
    (["density", *M2_12, *X8], [W1, W2, W1 + SEG, W2 + SEG], 0,
     "cd51cc791bc35d8711e40aa14fd3c0b623d2e728c957c9d06d0bc4c3d17ab24a", None),
    # The dense schedule at 1e8: 54,514 checkpoints whose 1,355,696 lift runs
    # are added in chunks through one flat np.add.at each; Tier-1's dense
    # schedules stop at small x.
    (["density", "--m", "3", *X8, "--ratio", "1.0002"], [W1, W2, W1 + SEG], 0,
     "5941aafb0caa274b36c15ac202516afb2636004f0029b0881354859a2e439488", None),
    # From 2^24 segments of 256 groups of 64 sub-blocks each and segments of
    # 1000003 that end in a short sub-block; Tier-1 stops at 3 * 10^5.
    (["race", "--m", "3", *X8], [W1, W2, ["--segment-size", "16777216"], SEG], 0,
     "98e4f2be45ff57fd02296137ad4d61c727d2cbca87ab2aac59b2ca2d810427f7", None),
    # The Liouville race, whose |Delta| = |L(x)| stays small, so the most
    # sub-blocks go to the per-n scan; it ends at L(10^8) = -3884.
    (["race", "--m", "2", *X8], [W1, W2, SEG], 0,
     "fe018c0a37779fdf3144d1d8f96acef450de6b0bf9aeeb2e1945571724b6f2af", None),
    # Every one of the 12 classes occurs below 10^8, so every lane of the
    # sub-block count is live.
    (["race", "--m", "12", *X8], [W1, W2, SEG], 0,
     "84b54410069d112eaa8572bcf4ebcf3527fc03430baa35309f3138e13d8e304e", None),
    # Ω is at most 20 here, so the lane count stops at the largest value,
    # and most of the 2016 pairs race two empty classes.
    (["race", "--m", "64", "--x-max", "2000000"], [W1, W2, SEG], 0,
     "326d07ec5f4dbf2271fe1ff99e9db7c2c6928c8e5a564208bc41f6b1917fd1aa", None),
]

broken = []
for argv, flag_sets, code, digest, rss_mb in CONTRACTS:
    for flags in flag_sets:
        name, start = " ".join(argv + flags), time.perf_counter()
        run = subprocess.run([sys.executable, "-W", "error", "-m", "omegadist.cli", *argv, *flags],
                             cwd=ROOT, env={**os.environ, "PYTHONPATH": "src"}, stdout=subprocess.PIPE)
        seconds = time.perf_counter() - start
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        got = hashlib.sha256(run.stdout).hexdigest()
        print(f"{name}: exit {run.returncode}, {got}, {seconds:.1f} s, peak RSS <= {peak:.1f} MB", flush=True)
        if argv[0] == "selftest":  # its rows are its report
            print(run.stdout.decode(), end="", flush=True)
        if run.returncode != code:
            broken.append(f"{name}: exit {run.returncode}, expected {code}")
        if digest is not None and got != digest:
            broken.append(f"{name}: sha256 {got}, expected {digest}")
        if rss_mb is not None and peak > rss_mb:
            broken.append(f"{name}: peak RSS {peak:.1f} MB, over {rss_mb} MB")
sys.exit("\n".join(["BROKEN:", *broken]) if broken else 0)
