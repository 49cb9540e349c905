"""The 4-block instance held as int rows.

``lift_three_block`` and ``flip_for_kernel_work`` build int rows; on seeded
instances with A0 != 0 and random column flips they must give the instances
that the Matrix-based code in ``fourblock_reference`` gives, with the same
blocks, delta and types of b, cx, cy, ux and uy.  Files written from an
instance read back to the same instance and the same bytes, and malformed
instances raise the same ValueError messages, which the CLI reports with
exit code 2.
"""

import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

import fourblock_reference as reference
from steinitz import fileio
from steinitz.blockip import (FourBlockInstance, flip_for_kernel_work, lift_point,
                              lift_three_block)
from steinitz.cli import main
from steinitz.generate import GenerationError, gen_four_block
from steinitz.linalg import Matrix
from steinitz.verify import PIPELINE_SHAPES


def _full_instances():
    """Seeded instances whose A0 is not zero, with their planted points."""
    out = []
    for k, shape in enumerate(PIPELINE_SHAPES + ((1, 1, 2, 1, 3), (2, 2, 2, 3, 2))):
        for seed in range(4):
            try:
                inst, pt = gen_four_block(*shape, 1 + (k + seed) % 3, 4000 + 37 * k + seed,
                                          scale=(None, 24)[seed % 2])
            except GenerationError:
                continue
            if not inst.A0.is_zero():
                out.append((inst, pt))
    return out


CASES = _full_instances()


def _assert_same(got, want):
    """The same instance, with the same entry types in its vectors."""
    assert got == want
    assert (got.A0, got.B, got.A, got.C, got.delta) == (want.A0, want.B, want.A, want.C,
                                                        want.delta)
    for name in ("b", "cx", "cy", "ux", "uy"):
        assert [type(v) for v in getattr(got, name)] == [type(v) for v in getattr(want, name)]
    blocks = got.integer_form
    assert all(type(a) is int for rows in (blocks.A0, *blocks.B, *blocks.A, *blocks.C)
               for row in rows for a in row)


def test_cases_have_nonzero_a0():
    assert len(CASES) >= 20
    assert len({(inst.s0, inst.s, inst.t0, inst.t, inst.n) for inst, _ in CASES}) >= 6


def test_lift_matches_matrix_reference():
    for inst, pt in CASES:
        lifted = lift_three_block(inst)
        _assert_same(lifted, reference.lift_three_block(inst))
        assert lifted.A0.is_zero() and lift_three_block(lifted) is lifted
        lx, ly = lift_point(inst, pt.x, pt.y)
        assert all(v == 0 for v in lifted.H_matrix().mul_vec(tuple(lx) + tuple(ly)))


def test_flip_matches_matrix_reference():
    rng = random.Random(17)
    flipped = 0
    for inst, _ in CASES:
        for base in (inst, lift_three_block(inst)):
            for _ in range(3):
                flips = tuple(rng.random() < 0.5 for _ in range(base.x_dim + base.y_dim))
                _assert_same(flip_for_kernel_work(base, flips),
                             reference.flip_for_kernel_work(base, flips))
                flipped += any(flips)
    assert flipped >= 100


def _instances_to_write():
    inst, _ = CASES[0]
    lifted = lift_three_block(inst)
    flipped = flip_for_kernel_work(lifted, [k % 2 == 0 for k in range(lifted.x_dim +
                                                                       lifted.y_dim)])
    rational = FourBlockInstance.make(
        inst.A0, list(inst.B), list(inst.A), list(inst.C), inst.b,
        tuple(F(c, 3) for c in inst.cx), inst.cy, tuple(F(7, 2) for _ in inst.ux),
        (None,) + tuple(inst.uy[1:]))
    return [inst for inst, _ in CASES] + [lifted, flipped, rational]


def test_fourblock_file_round_trip_is_byte_identical(tmp_path):
    first, second = tmp_path / "a.4blk", tmp_path / "b.4blk"
    for inst in _instances_to_write():
        fileio.write_fourblock(inst, str(first))
        again = fileio.read_fourblock(str(first))
        assert again == inst
        fileio.write_fourblock(again, str(second))
        assert first.read_bytes() == second.read_bytes()


def _edited_file(tmp_path, edit):
    """A generated instance's file with edit applied to its lines."""
    inst, _ = gen_four_block(1, 1, 1, 2, 2, 2, 6)
    path = tmp_path / "inst.4blk"
    fileio.write_fourblock(inst, str(path))
    lines = path.read_text().splitlines()
    edit(lines, inst)
    path.write_text("\n".join(lines) + "\n")
    return path


def _set_header_delta(lines, inst):
    lines[0] = lines[0].rsplit(" ", 1)[0] + f" {inst.delta + 1}"


def _halve_first_a_entry(lines, inst):
    row = lines.index("A 1") + 1
    lines[row] = " ".join(["1/2"] + lines[row].split()[1:])


def _halve_first_b_entry(lines, inst):
    row = lines.index("b") + 1
    lines[row] = " ".join(["1/2"] + lines[row].split()[1:])


@pytest.mark.parametrize("edit,message", [
    (_set_header_delta, "delta=3 but largest absolute entry is 2"),
    (_halve_first_a_entry, "blocks must have integer entries"),
    (_halve_first_b_entry, "b must be integer"),
])
def test_bad_fourblock_files_raise_named_errors(tmp_path, capsys, edit, message):
    path = _edited_file(tmp_path, edit)
    with pytest.raises(ValueError) as err:
        fileio.read_fourblock(str(path))
    assert str(err.value) == message
    for argv in (["proximity", "--input", str(path)],
                 ["graver", "--input", str(path), "--box", "1"]):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def _blocks():
    """The blocks of a valid (1, 1, 1, 2, 2) instance, as Matrix."""
    return (Matrix.from_rows([[1]]), [Matrix.from_rows([[0]])] * 2,
            [Matrix.from_rows([[1, -1]])] * 2, [Matrix.from_rows([[2, 0]])] * 2)


@pytest.mark.parametrize("change,message", [
    (lambda A0, B, A, C: (A0, [B[0], Matrix.from_rows([[0, 1]])], A, C), "B[1] shape mismatch"),
    (lambda A0, B, A, C: (A0, B, [A[0], Matrix.from_rows([[1, -1, 0]])], C),
     "A[1] shape mismatch"),
    (lambda A0, B, A, C: (A0, B, A, [Matrix.from_rows([[1]]), C[1]]), "C[0] shape mismatch"),
    (lambda A0, B, A, C: (A0, B[:1], A, C), "block count mismatch"),
    (lambda A0, B, A, C: (Matrix.from_rows([[F(1, 2)]]), B, A, C),
     "blocks must have integer entries"),
])
def test_malformed_blocks_raise_named_errors(change, message):
    A0, B, A, C = change(*_blocks())
    with pytest.raises(ValueError) as err:
        FourBlockInstance.make(A0, B, A, C, (0,) * 3, (0,), (0,) * 4, (1,), (1,) * 4)
    assert str(err.value) == message


@pytest.mark.parametrize("field,value,message", [
    ("s0", 2, "A0 shape mismatch"),
    ("t", 3, "A[0] shape mismatch"),
    ("n", 3, "block count mismatch"),
    ("t0", 0, "all block dimensions must be positive"),
    ("b", (0, 0), "b dimension mismatch"),
    ("cx", (0, 0), "x objective/bound dimension mismatch"),
    ("uy", (1,), "y objective/bound dimension mismatch"),
    ("delta", 3, "delta=3 but largest absolute entry is 2"),
])
def test_replaced_fields_are_checked(field, value, message):
    A0, B, A, C = _blocks()
    inst = FourBlockInstance.make(A0, B, A, C, (0,) * 3, (0,), (0,) * 4, (1,), (1,) * 4)
    assert inst.delta == 2
    with pytest.raises(ValueError) as err:
        replace(inst, **{field: value})
    assert str(err.value) == message
