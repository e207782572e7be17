import hashlib
import json
from dataclasses import replace

import pytest

from rpencil import glie, poisson, quadratic, rmatrix
from rpencil.cli import main
from rpencil.commpoly import Poly
from rpencil.freealg import FreeElement
from rpencil.linalg import SubspaceBasis
from rpencil.poisson import PoissonStructure
from rpencil.quadratic import QuadraticPresentation
from rpencil.scalars import DEFAULT_ASSIGNMENT, Scalar
from rpencil.suites import SUITES, SuiteError, run_suite


def _names(report):
    return [c["name"] for c in report["checks"]]


def test_unknown_suite():
    with pytest.raises(SuiteError):
        run_suite("nosuch")
    with pytest.raises(SuiteError):
        run_suite("glie", mode="approximate")
    with pytest.raises(SuiteError):
        run_suite("glie", n=1)


@pytest.mark.parametrize("suite", [s for s in SUITES if s != "all"])
def test_suites_pass_n2(suite):
    report = run_suite(suite, 2, None, "exact", 0)
    assert report["verdict"] == "pass", [
        c["name"] for c in report["checks"] if not c["pass"]
    ]


def test_all_suite_collects_everything():
    full = run_suite("all", 2, None, "fast", 0)
    assert full["verdict"] == "pass"
    combined = []
    for suite in SUITES:
        if suite != "all":
            combined.extend(_names(run_suite(suite, 2, None, "fast", 0)))
    assert _names(full) == combined


def test_reports_are_deterministic():
    a = run_suite("pencil-type2", 2, None, "fast", 3)
    b = run_suite("pencil-type2", 2, None, "fast", 3)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_seed_changes_random_pairs():
    a = run_suite("pencil-type2", 2, None, "fast", 0)
    b = run_suite("pencil-type2", 2, None, "fast", 1)
    pairs = lambda r: next(
        c["details"]["pairs"] for c in r["checks"] if c["name"] == "pencil-jacobi-random"
    )
    assert pairs(a) != pairs(b)
    assert a["verdict"] == b["verdict"] == "pass"


def test_glie_report_has_table_diff():
    report = run_suite("glie", 2, None, "exact", 0)
    diff = next(c for c in report["checks"] if c["name"] == "printed-table-diff")
    entries = diff["details"]["entries"]
    assert len(entries) == 16
    assert any("note" in e for e in entries)
    zero_rows = [e for e in entries if e["printed"] == "0"]
    assert all(e["match"] for e in zero_rows)


def test_glie_report_overlap_displays():
    report = run_suite("glie", 2, None, "exact", 0)
    check = next(
        c for c in report["checks"] if c["name"] == "display-elements-in-overlap"
    )
    assert check["pass"]
    displays = check["details"]["displays"]
    assert len(displays) == 4
    assert all(d["lhs_in_overlap"] for d in displays)
    # one printed equality does not hold as stated; the diff records it
    assert sum(1 for d in displays if d["sides_equal"]) == 3
    assert all(
        d["sides_equal"] or d["difference"] != "0" for d in displays
    )


def test_mode_agreement_n2():
    for suite in SUITES:
        exact = run_suite(suite, 2, None, "exact", 0)
        fast = run_suite(suite, 2, None, "fast", 0)
        assert [(c["name"], c["pass"]) for c in exact["checks"]] == [
            (c["name"], c["pass"]) for c in fast["checks"]
        ]


def test_glie_builds_one_overlap_space(monkeypatch):
    # the overlap-dimension, oracle, axiom and display checks share the
    # overlap space of the one bracket a run builds
    import rpencil.glie as glie_mod

    real = glie_mod.overlap_space
    calls = []

    def counted(i):
        calls.append(i)
        return real(i)

    monkeypatch.setattr(glie_mod, "overlap_space", counted)
    assert run_suite("glie", 2, None, "fast", 0)["verdict"] == "pass"
    assert len(calls) == 1


def test_pencil_type2_computes_three_trivectors_and_one_gl_bracket(monkeypatch):
    # [Q,Q], [L,L] and [L,Q] settle Jacobi, compatibility and every random
    # pencil by bilinearity; gl-not-compatible reads one [gl, Q] at n=2
    real = poisson.schouten_bracket
    calls = []

    def counted(p1, p2):
        calls.append((p1, p2))
        return real(p1, p2)

    monkeypatch.setattr(poisson, "schouten_bracket", counted)
    text = json.dumps(run_suite("pencil-type2", 3, None, "fast", 0), sort_keys=True, indent=2)
    digest = hashlib.sha256((text + "\n").encode()).hexdigest()
    assert digest == _REPORT_SHA256[("pencil-type2", 3, "fast")]
    assert len(calls) == 4


def test_glie_runs_make_no_intersect_call(monkeypatch):
    # the overlap-oracle-agreement check certifies the overlap by a rank
    # test; the Zassenhaus intersection is a reference for the tests only
    import sys

    from rpencil import linalg

    real = linalg.intersect
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return real(a, b)

    for name, module in list(sys.modules.items()):
        if name.startswith("rpencil") and getattr(module, "intersect", None) is real:
            monkeypatch.setattr(module, "intersect", counted)
    assert run_suite("glie", 2, None, "exact", 0)["verdict"] == "pass"
    assert run_suite("glie", 3, None, "fast", 0)["verdict"] == "pass"
    assert calls == []


def test_glie_fast_builds_bracket_at_the_point(monkeypatch):
    # fast mode specializes the bracket's inputs, so every bracket it builds,
    # the run's own and those of the constructor checks, is already rational
    import rpencil.glie as glie_mod

    real = glie_mod.GeneralizedLieBracket.__post_init__
    built = []

    def recorded(self):
        built.append(self)
        real(self)

    def symbolic(n):
        raise AssertionError(f"fast mode built the symbolic type2_bracket({n})")

    monkeypatch.setattr(glie_mod.GeneralizedLieBracket, "__post_init__", recorded)
    monkeypatch.setattr(glie_mod, "type2_bracket", symbolic)
    assert run_suite("glie", 3, None, "fast", 0)["verdict"] == "pass"
    assert built
    for g in built:
        for row in g.matrix.rows:
            assert all(v.specialize(DEFAULT_ASSIGNMENT) == v for v in row.values())


def test_editing_a_built_bracket_reaches_no_later_run():
    # builders keep no state between calls, so a caller that edits what one
    # returned leaves the next run's report as it was
    before = run_suite("glie", 2, None, "fast", 0)
    glie.type2_bracket(2).matrix.rows[0][1] = Scalar(5)
    assert run_suite("glie", 2, None, "fast", 0) == before
    assert before["verdict"] == "pass"


@pytest.mark.parametrize("suite", ["pencil-type1", "pencil-type2"])
@pytest.mark.parametrize("n", [2, 3])
def test_pencil_fast_run_is_the_exact_run(suite, n):
    # the pencil suites have no parameters: fast mode changes only the label
    exact = run_suite(suite, n, None, "exact", 0)
    fast = run_suite(suite, n, None, "fast", 0)
    assert exact["parameters"].pop("mode") == "exact"
    assert fast["parameters"].pop("mode") == "fast"
    assert fast == exact


# sha256 of the report bytes as `rpencil run` prints them, at seed 0 and the
# default degree (3 from n=4 on)
_REPORT_SHA256 = {
    ("pencil-type1", 2, "exact"): "fdde73355fbef83e25b9ffa71c67ad74e2da9f40deac116e0e7b9251433a6f5d",
    ("pencil-type1", 2, "fast"): "fe82764c5f15da1c792862a660375822c32e450cc7f744d450a24c094123fdb4",
    ("pencil-type1", 3, "exact"): "036bbe5bb1185576afabc6da327aab57b8d1cc82a8d53d334d6f563df1048b0c",
    ("pencil-type1", 3, "fast"): "bac18b85dcc396c70dd2492a3629352f87183a47fa294471d57b9d522826ef8e",
    ("pencil-type2", 2, "exact"): "69687ee5bb5a561938465a80e08d8d143760983116f6140c86ef7fdfa5311b47",
    ("pencil-type2", 2, "fast"): "48de8de4751fbf3fb500a2606ce69c229e8325f5f0b431d9ec4c2be74156fa80",
    ("pencil-type2", 3, "exact"): "b0ec69f4708b6c6695b088fe6174733777bce98b93e02986ba2170b20a8619b9",
    ("pencil-type2", 3, "fast"): "a78a29450e443d4a9ea8c0940b94e4890d0d340f41ddaccbcc9d3aeb6e49def7",
    ("pencil-type2", 4, "fast"): "47481886e26dc375ef446e890bf3ccbeedcd3e2e7092b826e9f227897a43247f",
    ("pencil-type2", 4, "exact"): "fdbc9f57f1450ff488df2244b5145150baab4adca27af2596509edb1967f5d31",
    ("pencil-type2", 5, "fast"): "f0500ce807be00fbeec7edc83eb379d17dfe3ac7ab9bfb14fa9ffbc18ec3f1b4",
    ("pencil-type2", 5, "exact"): "c8b41e909eaa215a81b9083a99c91749ef20bd85536423f2c9da8be9a63ed164",
    ("pencil-type2", 6, "fast"): "fe26a602e60b674635ae9681c85cab4feb06f9e8c7abcaa406abcccabe418697",
    ("pencil-type2", 6, "exact"): "e87179bac42b06cea983becbf1f02c903d89e8db86f2568cca80df6135ee763c",
    ("quantum-type2", 2, "exact"): "4d79ed030848fb2b9c46550bfa65ba9b6c6a412eb879130a1fbdfa6ecaeeff1d",
    ("quantum-type2", 2, "fast"): "4aefdd939f88d65466a746c07f2a8f632343afb0bd8cba624ffb2fea572ce1f1",
    ("quantum-type2", 3, "exact"): "3da0c4a96572a609f91ddbd688ea675cb4c9eb4b795be16c42d3c20b0557b98e",
    ("quantum-type2", 3, "fast"): "bc715070c4d6b107f6072bd932efc7a625f59803a14cd6aa0317de47de2d38e0",
    ("quantum-type2", 4, "fast"): "63e5030641befaed7fd4b80aa964f269d30525483a244cf9a93408ef985db2f7",
    ("quantum-type2", 4, "exact"): "a5e54a000daeefd5b8e89e2aac2d4a9fa49666b3d4093d3076a9eb327638f2c5",
    ("quantum-type2", 5, "fast"): "27c61b347df7aa4ccb19702b4840b54546cef77762216ca110a329793d0c21af",
    ("quantum-type2", 5, "exact"): "9af37231175235743c18371e5e6034695b9a8623a8030d63821dc6eb05076782",
    ("quantum-type2", 6, "fast"): "a17ab88f5c2a55bbbb4c159c75e6a74a18c5d2660a288755f9e50daba52c2cf3",
    ("glie", 2, "exact"): "2ae7066ac54ad8d4e82c2e072c89ab449a16f9d2c47d32e4396af68f6840c1ca",
    ("glie", 2, "fast"): "5d364b10dc00964615309e99733b8dac1539e5c08eab22bb247c0808dc7bc3d0",
    ("glie", 3, "exact"): "8cc99e354d97289cfc1f5d15b22f2ea5a66f13aced03630c568117b69b0165b2",
    ("glie", 3, "fast"): "743a9d001ae250e572674c64cc2cdfba7d17fa673e458153c3ec37497dab6dc1",
    ("glie", 4, "fast"): "e90a4c74d0617df1d09d11201e7c04e629dd26bf232f32865437296703b7a03a",
    ("glie", 4, "exact"): "b3ee39411b1ba87a124c99ec3eeb841ea58e4f2fc6292bb9957378a94d15876a",
    ("glie", 5, "fast"): "848808547c2578a5ef909f38f2e124a157ad3d9d0b2d42af95c4e96683542713",
    ("glie", 5, "exact"): "363aa719e526754bb9865f3f3883ff16da9e235e2b67ebfa4cb16055f9a5cda0",
}


@pytest.mark.parametrize("suite,n,mode", sorted(_REPORT_SHA256))
def test_pencil_report_bytes_pinned(suite, n, mode):
    text = json.dumps(run_suite(suite, n, None, mode, 0), sort_keys=True, indent=2) + "\n"
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == _REPORT_SHA256[(suite, n, mode)]


# the same for quantum-type2 fast at the degree frontier, keyed by (n, degree)
_QUANTUM_FRONTIER_SHA256 = {
    (3, 6): "0ecb132d0f650e65547678615f422257523519bc74d2d1d489e30f1dcc750763",
    (3, 8): "89a48b3f0275de0f1f0e5aa79109d3dca41042595760a417ae6a1d94a0bc21b3",
    (4, 5): "43109d488f03783a4a7a4522ac8431082a4d55b14c1a98c13db57aa48467ed9b",
    (4, 8): "d0c9e0d1b624db62f3bdb2e8e05cd1a643a10fada13a222858a23d468db13eaf",
    (5, 5): "5af61be587790edb2612514ca4b8cc50f2858269b1e8ee7a859c4285600c56ef",
}


@pytest.mark.parametrize("n,degree", sorted(_QUANTUM_FRONTIER_SHA256))
def test_quantum_frontier_report_bytes_pinned(n, degree):
    report = run_suite("quantum-type2", n, degree, "fast", 0)
    assert report["verdict"] == "pass"
    flatness = [c["details"] for c in report["checks"] if "dims" in c["details"]]
    assert len(flatness) == 2
    assert all(d["dims"] == d["expected"] for d in flatness)
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == _QUANTUM_FRONTIER_SHA256[(n, degree)]


def _add_entries(field, *changes):
    """A builder whose result has value added to entry (i, j) of its matrix
    field, for each (i, j, value) of changes."""
    def defect(build):
        def defective(n):
            built = build(n)
            mat = getattr(built, field).copy()
            for i, j, value in changes:
                mat.add_to(i, j, value)
            return replace(built, **{field: mat})
        return defective
    return defect


def _scale_first_pair(k):
    """A Poisson builder with its first table entry multiplied by k."""
    def defect(build):
        def defective(n):
            p = build(n)
            key = next(iter(p.table))
            return PoissonStructure(p.generators, {**p.table, key: p.table[key] * k})
        return defective
    return defect


def _add_generator(i, j, name):
    """A Poisson builder with generator name added to its table entry (i, j)."""
    def defect(build):
        def defective(n):
            p = build(n)
            g = Poly.generator(p.generators, name)
            return PoissonStructure(p.generators, {**p.table, (i, j): p.entry(i, j) + g})
        return defective
    return defect


def _empty_table(build):
    """A Poisson builder whose table is empty."""
    def defective(n):
        return PoissonStructure(build(n).generators, {})
    return defective


def _add_aa_to_first_relation(build):
    """A presentation builder with a*a added to its relation 0."""
    def defective(n):
        p = build(n)
        aa = FreeElement.word(p.generators, (0, 0))
        return QuadraticPresentation(p.generators, (p.relations[0] + aa,) + p.relations[1:])
    return defective


def _bump_first_overlap_row(build):
    """An overlap space whose first row has 1 added to its last entry.  The
    row keeps its support, so it stays in its block of the certificate's
    rows and leaves that block's span."""
    def defective(i):
        s = build(i)
        row = dict(s.rows[0])
        last = next(reversed(row))
        row[last] += 1
        return SubspaceBasis(s.ambient_dim, [row, *s.rows[1:]])
    return defective


# One defect planted in a builder that the suites call, at n=2 fast, and the
# checks it fails.  Two checks no defect can fail, by construction:
# vanishes-on-i-plus (a bracket that does not vanish on I_plus is never built)
# and printed-table-diff (informational).  No row reaches these yet:
# schouten-nonzero-sl2..4, sp2-closes, sp4-closes, sp2-poisson,
# sp2-compatible-symplectic, eigen-direct-sum, axiom-8, enveloping-ideal,
# table-vanishes-at-classical-point and jacobi-form-rejects-random.  The
# classical_glie defect adds x_0 to [x_0, x_1] and subtracts it from
# [x_1, x_0] (column N = 4), so the bracket still vanishes on the symmetric
# I_plus.
_PLANTED = [
    ("quantum-type2", rmatrix, "hecke_s", _add_entries("mat", (0, 0, 1)),
     {"qybe", "hecke-relation", "s-matrix-reference", "qybe-induced", "eigen-dimensions",
      "relation-span"}),
    ("pencil-type2", poisson, "sd_quadratic", _scale_first_pair(2),
     {"jacobi-quadratic", "compatible", "pencil-jacobi-random", "linearization",
      "sklyanin-consistency"}),
    ("pencil-type2", poisson, "linearized", _scale_first_pair(3),
     {"compatible", "pencil-jacobi-random", "linearization", "double-lie-identity"}),
    ("pencil-type2", poisson, "gl_bracket", _scale_first_pair(2), {"double-lie-identity"}),
    ("pencil-type2", poisson, "linearized", _add_generator(0, 3, "a"),
     {"compatible", "double-lie-identity", "jacobi-linear", "linearization",
      "pencil-jacobi-random"}),
    ("pencil-type2", poisson, "gl_bracket", _empty_table,
     {"double-lie-identity", "gl-not-compatible"}),
    ("pencil-type1", poisson, "constant_symplectic", _scale_first_pair(2),
     {"sp4-compatible-symplectic"}),
    ("pencil-type1", rmatrix, "canonical_r", _add_entries("mat", (0, 1, 1)),
     {"modified-r-sl2", "modified-r-sl3", "modified-r-sl4"}),
    ("pencil-type1", rmatrix, "canonical_r_sp", _add_entries("mat", (0, 1, 1)),
     {"modified-r-sp2", "modified-r-sp4", "sp4-poisson", "sp4-compatible-symplectic"}),
    ("quantum-type2", quadratic, "jhq", _add_aa_to_first_relation,
     {"filtered-flatness-pbw", "diagonal-shift"}),
    ("glie", quadratic, "jhq", _add_aa_to_first_relation,
     {"overlap-dimension", "display-elements-in-overlap", "koszul-evidence"}),
    ("glie", rmatrix, "hecke_s", _add_entries("mat", (0, 0, 1)), {"splitting"}),
    ("glie", glie, "classical_glie", _add_entries("matrix", (0, 1, 1), (0, 4, -1)),
     {"jacobi-form-classical"}),
    ("quantum-type2", quadratic, "a0q", _add_aa_to_first_relation,
     {"relation-span", "graded-flatness", "filtered-flatness-pbw", "diagonal-shift"}),
    ("glie", glie, "overlap_space", _bump_first_overlap_row,
     {"overlap-oracle-agreement", "axiom-7", "display-elements-in-overlap"}),
]


def _planted_ids(rows):
    """suite-builder for each row; a later row on the same builder gets -2, -3, ..."""
    seen, ids = {}, []
    for suite, _, builder, *_ in rows:
        base = f"{suite}-{builder}"
        seen[base] = seen.get(base, 0) + 1
        ids.append(base if seen[base] == 1 else f"{base}-{seen[base]}")
    return ids


@pytest.mark.parametrize(
    "suite, module, builder, defect, failing", _PLANTED, ids=_planted_ids(_PLANTED),
)
def test_planted_defect_fails_its_checks(monkeypatch, capsys, suite, module, builder,
                                         defect, failing):
    monkeypatch.setattr(module, builder, defect(getattr(module, builder)))
    assert main(["run", "--suite", suite, "--n", "2", "--mode", "fast"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "fail"
    assert {c["name"] for c in report["checks"] if not c["pass"]} == failing
