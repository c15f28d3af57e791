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
    # hall tabulates the envelope from one prime table to x-max; at 1e8 the
    # uint32 table and its reciprocal sums stay under 128 MB.
    (["hall", "--m", "3", "--m", "8", *X8], [[]], 0, None, 128),
    # dirichlet-check takes each Euler product to p-max a slice at a time.
    (["dirichlet-check", "--m", "3", "--n-max", "1000", "--p-max", "100000000"], [[]], 0, None, 128),
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
    # From 2^24 segments of 256 count slices each and segments of 1000003
    # that end in a short sub-block; Tier-1 stops at 3 * 10^5.
    (["race", "--m", "3", *X8], [W1, W2, ["--segment-size", "16777216"], SEG], 0,
     "98e4f2be45ff57fd02296137ad4d61c727d2cbca87ab2aac59b2ca2d810427f7", None),
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
