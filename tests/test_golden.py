"""Byte-level pins of what the CLI prints and writes on the bundled network.

Each case runs one invocation in process, expects exit code 0, and compares
SHA-256 digests of its stdout, with the output paths it echoes replaced by
``OUT`` and ``LP``, and of every file it wrote.  A digest moves with any
printed digit, so a refactor that must keep every number is checked here to
the last place; a change that means to move a number updates the digest and
says why.  The digests hold under any BLAS thread count.
"""

import hashlib

import pytest

from helpers import RecordingSolver
from rlnd.cli import main
from rlnd.multiobjective import THETA_DEFAULT
from rlnd.scenarios import EmissionCap, solve_user


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# argv (OUT and LP stand for the output paths) -> digests of stdout and files
CASES = {
    "solve-system-cost": (
        ["solve", "--model", "system", "--objective", "cost"],
        "6ca8fd397ec82bd6189542ed0633b2daa36efb7175f7e24ea7307da98e541905",
        "21050b906f3a99ef34eac0348e4c49def9eb1b84f66a8c6e7678051fd200cb54",
        "fd417bc5d9d544bcfd9be92e5ce083db710c848f8b43a4f0405275001486483a"),
    "solve-system-emission": (
        ["solve", "--model", "system", "--objective", "emission"],
        "f3720a893844e5e09d2a71277f950396998786738f6ac92ff692a0d6dd07d68f",
        "21050b906f3a99ef34eac0348e4c49def9eb1b84f66a8c6e7678051fd200cb54",
        "4436bdcec4df2179f64ee1c2223e72dd8aa9692f7db412771b609294c94fe42b"),
    "solve-user-cost": (
        ["solve", "--model", "user", "--objective", "cost"],
        "50bc08efed67ed9fe4ddc883b2bb81a6d0226d3a45b355ed2c41c50fa4206a1b",
        "9a21b9015e5230c32ea0726959b6970b391d36e3d5a752c1cde345be3dd47c53",
        "c446f5746640618b18d4f30f162a6dd25955966e8273a9468fa59b914efb7cd8"),
    "solve-user-emission": (
        ["solve", "--model", "user", "--objective", "emission"],
        "663ba7a4523fd49b9e06a45b491d47d7dfab0edcf1c55620fa14bb43a3ef6639",
        "9a21b9015e5230c32ea0726959b6970b391d36e3d5a752c1cde345be3dd47c53",
        "e5bcc358e9ded18b7de64f2127df4d84199fcae50d8e712178933f5cf0f9388d"),
    "pareto-system": (
        ["pareto", "--model", "system", "--points", "10"],
        "b26c32bcc6780380b41de8b65d4ee6073f017e5b2ddca13f3fd2c4c3c3b13266",
        "4202dd36075982bb683ec4432f02df4b5d792a1dac91cd5a81db8023397580bf", None),
    "pareto-user": (
        ["pareto", "--model", "user", "--points", "10"],
        "6e0326837f5ca837200526b1f161d52657b75947918cd552ec12ba00547005a2",
        "7342ef65a5063b61575a33f7d282aa64b019fe6b08eed76b4f7a0be6083b8697", None),
    "scenario-cost": (
        ["scenario", "--name", "all", "--objective", "cost"],
        "c9b63e1fda4b0d2fbdb4e1310f1b335ef32d03cda6999608448658775169b12b",
        "d425698bb5292151e3b95bd04d0d82cfa3d2aa8c5d4bdd4c6b71618692cd97c7", None),
    "scenario-emission": (
        ["scenario", "--name", "all", "--objective", "emission"],
        "a94e67659727b40134dde4c163de36e1222659fb3308e7bf27f9810dcf2cd3fb",
        "7a2a87224e7e764ce036f96ed017be2f019d11ae94c4c9af10fc4804cf5f28b1", None),
    "robust-gamma-1": (
        ["robust", "--gamma", "1"],
        "3a41e5cdf9f0e01b44d6313df02706ac4ae68b4bea439c8140a614ed304e90bf",
        "21050b906f3a99ef34eac0348e4c49def9eb1b84f66a8c6e7678051fd200cb54",
        "d64343c3a80085768c88574b2180c0168a625a5f50a19a979e5e862c8730c806"),
}


@pytest.mark.parametrize("name", CASES)
def test_cli_output_is_byte_identical(name, tmp_path, capsys):
    argv, stdout, output, lp = CASES[name]
    paths = {"OUT": tmp_path / "out.csv", "LP": tmp_path / "models.lp"}
    argv = [*argv, "--output", str(paths["OUT"])]
    if lp is not None:
        argv += ["--dump-lp", str(paths["LP"])]
    assert main(argv) == 0
    text = capsys.readouterr().out
    for placeholder, path in paths.items():
        text = text.replace(str(path), placeholder)
    assert _sha(text.encode("utf-8")) == stdout
    assert _sha(paths["OUT"].read_bytes()) == output
    if lp is not None:
        assert _sha(paths["LP"].read_bytes()) == lp


def test_capped_user_phase_one_model_is_byte_identical(bundled):
    """Phase one of a capped two-phase solve holds the collection-emission
    epsilon row; its LP text pins that row and the augmented objective."""
    solver = RecordingSolver()
    cap = EmissionCap(0, 54574.5, THETA_DEFAULT, held_back=37343.0)
    solve_user(bundled, "cost", solver, cap=cap)
    text = solver.solves[0][0].to_lp_format()
    assert "\\ tag: epsilon[0]" in text
    assert _sha(text.encode("utf-8")) == (
        "7dd2db62a809301d49897072639dba27f1d3046fa37329227233175b1019e990")
