"""Golden CLI outputs: the exit code and the sha256 of stdout, in CSV and in
JSON, for every subcommand at small x.  A change that keeps these digests
keeps every output byte, including the JSON config block and the row order.
"""

import hashlib

import pytest

from omegadist.cli import main

COMMANDS = {
    "density": ["density", "--m", "3", "--m", "4", "--m", "3", "--x-max", "2000"],
    "error-growth": ["error-growth", "--m", "2", "--m", "3", "--x-max", "5000"],
    "hall": ["hall", "--m", "3", "--m", "5"],
    "hall-envelope": ["hall", "--m", "3", "--m", "4", "--x-max", "1000"],
    "dirichlet-check": [
        "dirichlet-check", "--m", "2", "--m", "3", "--n-max", "10000", "--p-max", "10000",
    ],
    "race-all-pairs": ["race", "--m", "3", "--x-max", "3000"],
    "race-one-pair": ["race", "--m", "4", "--j", "1", "--jprime", "3", "--x-max", "3000"],
    # Long races: x spans hundreds of 1024-wide sub-blocks and, in the last
    # case, segments whose length is not a multiple of 1024.
    "race-m2-long": ["race", "--m", "2", "--x-max", "200000"],
    "race-m6-long": ["race", "--m", "6", "--x-max", "300000"],
    "race-one-pair-1031": [
        "race", "--m", "4", "--j", "1", "--jprime", "3", "--x-max", "300000",
        "--segment-size", "1031",
    ],
    "selftest": ["selftest", "--x-limit", "2000"],
    "density-workers": [
        "density", "--m", "5", "--x-max", "5000", "--workers", "2", "--segment-size", "1031",
    ],
}

#: (command, format) -> (exit code, sha256 of stdout).
GOLDEN = {
    ("density", "csv"): (0, "3231f22b55222e290ccee067c3ed66148ed682d3c269b3f270bf0abd7d3f7ed4"),
    ("density", "json"): (0, "5ad98c611304c29a9efc27bc89af2dc9bfa132b601f09260a813be125104aeef"),
    ("error-growth", "csv"): (0, "c1dfe7a8e572d36b020e56e42a31e9929798827c961e8defd8d893f011cf4e9a"),
    ("error-growth", "json"): (0, "ca09ec7d1f3b2c800f9acfaaa820c3d196a4dfa586007c5b14c6ca621c30639b"),
    ("hall", "csv"): (0, "fa9090563f4a69c0c43bd6eb2b6b1f8ef5b654ba8a4aed7be0a093d861f0b2e9"),
    ("hall", "json"): (0, "976c629f89b944768a2b58447296e001add2fc899524d79dd839f2094d5b1f9a"),
    ("hall-envelope", "csv"): (0, "4cab44e45d6783c07b5e32a6a2c72ddd8ba58138ccb3206818fc9b79640c8f30"),
    ("hall-envelope", "json"): (0, "73760d0787c6879ef92747a0c57cb28b82c39349fb5f63a303ca0e5e69a9dc2e"),
    ("dirichlet-check", "csv"): (0, "313db82619eb150b652c327e5b30281b2e3b282b33f16a66cb087f403d234564"),
    ("dirichlet-check", "json"): (0, "9ef36fe513c2b17766b24dae97258eb23bb8f61f93f295cdb0759aa6f6ef4c81"),
    ("race-all-pairs", "csv"): (0, "f04f6f42c1b64a1d2ea5ceeb85cc4bb3bd9908c624f5e719727c64917fc6f9f1"),
    ("race-all-pairs", "json"): (0, "577f978e18b698d27a1fdf668a590e6626f1f4faf83463774054a2efe4052854"),
    ("race-one-pair", "csv"): (0, "edfc4d90ad1a7679a0420c40c4d6de7cdf0552a6c2dd52d55112c4c296c266ae"),
    ("race-one-pair", "json"): (0, "9cd7259601ed3e41c7f3f9b3c34ead6b57f9d2f82af9fec7916e94705e0f5d88"),
    ("race-m2-long", "csv"): (0, "3c74aac3db87e3037f436c24f329bb31232277e7d538f645d0620f004a026f02"),
    ("race-m2-long", "json"): (0, "6e5b866ded31f2b727e0bf7e4ca49e69a846b668aaaf4260f7e1aee1f807f630"),
    ("race-m6-long", "csv"): (0, "b2a1b9516f6b9f3f8a5bb2a0653ec642275682fafd273068e1c98cc3dbab0454"),
    ("race-m6-long", "json"): (0, "2179d561f7ba80481a417b73a8be715604db044975dbda2269bd290430ff87db"),
    ("race-one-pair-1031", "csv"): (0, "10eb8d45df7fc8e0ad76806bbb3aae75781a322bc32c07a0c048a9d378ec0b60"),
    ("race-one-pair-1031", "json"): (0, "81ddaf1be088c116d8dc0355bdd1ad33ae7c3ed9a0d8801e22729f98d08ad9e3"),
    ("selftest", "csv"): (0, "9d602479e73934ee184cd609621d76c9ba3a405e2de9491863bbb236d93fcb1c"),
    ("selftest", "json"): (0, "7ff58c46ba91a12d0650a32e49476cf33aca7b01579120e1b7971920ca47b207"),
    ("density-workers", "csv"): (0, "d95b42cacbe2762e47e5bbf8b8c3b579673c8c80c93ad9085d27675f7f864573"),
    ("density-workers", "json"): (0, "c392c391ceda63a2c4daeaee517a1dece8f2b3ecf5d3a7e565495ece4029c51f"),
}


@pytest.mark.parametrize("name,fmt", list(GOLDEN))
def test_golden_output(capsys, name, fmt):
    code = main(COMMANDS[name] + ["--format", fmt])
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert (code, digest) == GOLDEN[(name, fmt)]
