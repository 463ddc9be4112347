"""The four benchmark workloads: inputs, one instance, and the correctness gate.

Each workload is a closed loop with one client: the next instance starts when
the previous one has finished.  Inputs come from the run's seed only.  The
loop runs whole passes; a pass is a fixed list of instance shapes (generator
kind, dimension, command) with fresh seeded values, so every run measures the
same mix whatever its seed, and a run never stops half way through the mix.

The gate checks every instance.  Exact quantities are compared with
references the benchmark computes itself with plain numpy: the norm of
p(T1, T2), the pair digest, defect ranks and operator norms.  Colligation
unitarity and the dilation residuals are compared with fixed tolerances or
with their computed bounds.  The grid-dependent sups (``sup_variety``,
``sup_bidisc``) are checked only through the chain inequality, never against
frozen values, so a sharper variety sup is not counted as a failure.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field

import numpy as np

# functions that spans.py wraps are called through an andovar module, never
# through a name imported here, so that traced runs reach the wrappers
import andovar as av
import andovar.matrix_core as mc
from andovar import variety
from andovar.pair_analysis import GENERATOR_KINDS
from andovar.vn import DEFAULT_N_THETA, BivariatePolynomial, vn_report

import spans

RADIUS = 0.9
# Diagonal pairs that reach the dilation get T1 rescaled to this spectral
# radius.  That fixes the truncation degree at N = 93 (0.8**93 < 1e-9) on
# every seed; at the generator's radius the largest of dim random moduli
# sets N, which moved between 76 and 172 and the dense cost (rows**3) by 20x
# from one seed to the next.
DILATION_RHO = 0.8

# gate tolerances
LHS_RTOL = 1e-9           # ||p(T1,T2)|| against the power-sum reference
NORM_ATOL = 1e-9          # operator norms reported by `check`
UNITARITY_TOL = 1e-9      # colligation unitarity (build_colligation's own check)
INNER_TOL = 1e-6          # boundary unitarity of Psi (acceptance criterion 5)
SKIP_RATE_MAX = 0.01      # skipped boundary thetas (acceptance criterion 5)
SYMMETRY_TOL = 1e-6       # swap symmetry (acceptance criterion 10)
RESIDUAL_ATOL = 1e-9      # residual <= computed bound + this (criterion 6)
MPSI_RESTRICTED_TOL = 1e-6  # restricted MPsi isometry residual (dilation tests)

CSV_HEADER = "theta,re_z1,im_z1,re_z2,im_z2,kind,residual"

# ROADMAP item 2 reproduction: a pole of Psi sits next to the circle, the
# 720-theta grid misses it and sup_variety reads 0.038 where the true
# sup is close to 2.  Kept verbatim so a true bound shows its cost here.
NEAR_POLE_T1 = np.array([[0.001907 - 0.579179j]])
NEAR_POLE_T2 = np.array([[0.274619 + 0.961444j]])
NEAR_POLE_COEFFS = np.array([[1.0, np.exp(1.8326j)]])


@dataclass
class Instance:
    label: str
    T1: np.ndarray
    T2: np.ndarray
    coeffs: np.ndarray | None = None
    ref: dict = field(default_factory=dict)
    args: list = field(default_factory=list)   # CLI arguments (cli-cold)


# ---------------------------------------------------------------------------
# references, computed without the library
# ---------------------------------------------------------------------------

def random_coeffs(rng: np.random.Generator, degree: int) -> np.ndarray:
    """Complex normal coefficients of a polynomial of total degree ``degree``."""
    c = rng.normal(size=(degree + 1, degree + 1)) + 1j * rng.normal(size=(degree + 1, degree + 1))
    j = np.arange(degree + 1)
    return c * ((j[:, None] + j[None, :]) <= degree)


def lhs_reference(T1, T2, coeffs) -> float:
    """||sum c[j][k] T1^j T2^k|| from explicit matrix powers."""
    n = T1.shape[0]
    pow1 = [np.eye(n, dtype=complex)]
    pow2 = [np.eye(n, dtype=complex)]
    for _ in range(coeffs.shape[0] - 1):
        pow1.append(pow1[-1] @ T1)
    for _ in range(coeffs.shape[1] - 1):
        pow2.append(pow2[-1] @ T2)
    total = np.zeros((n, n), complex)
    for j, row in enumerate(coeffs):
        for k, c in enumerate(row):
            if c != 0:
                total += c * (pow1[j] @ pow2[k])
    return float(np.linalg.norm(total, 2))


def digest_reference(T1, T2) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(T1, dtype=complex).tobytes())
    h.update(np.ascontiguousarray(T2, dtype=complex).tobytes())
    return h.hexdigest()[:16]


def defect_rank(T) -> int:
    w = np.linalg.eigvalsh(np.eye(T.shape[0]) - T @ T.conj().T)
    return int(np.sum(w > 1e-10 * max(1.0, float(w[-1]))))


def pinned_diag_pair(dim: int, seed: int):
    T1, T2 = av.generate_pair("diag", dim, seed, radius=RADIUS)
    return T1 * (DILATION_RHO / np.max(np.abs(np.diag(T1)))), T2


def vn_instance(label, T1, T2, coeffs) -> Instance:
    return Instance(label, T1, T2, coeffs, ref={
        "lhs": lhs_reference(T1, T2, coeffs),
        "digest": digest_reference(T1, T2),
    })


def seeds_for(seed: int, pass_index: int, count: int) -> list[int]:
    rng = np.random.default_rng([seed, pass_index])
    return [int(s) for s in rng.integers(0, 2 ** 31, size=count)]


# ---------------------------------------------------------------------------
# gate
# ---------------------------------------------------------------------------

def _le(problems, name, value, bound):
    if not value <= bound:  # NaN fails
        problems.append(f"{name}={value!r} above {bound!r}")


def check_vn(s: dict, ref: dict) -> list[str]:
    problems = []
    if not abs(s["lhs"] - ref["lhs"]) <= LHS_RTOL * max(1.0, ref["lhs"]):
        problems.append(f"lhs={s['lhs']!r} differs from reference {ref['lhs']!r}")
    if s["pair_digest"] != ref["digest"]:
        problems.append(f"pair_digest {s['pair_digest']} != {ref['digest']}")
    _le(problems, "lhs", s["lhs"], s["sup_variety"] + s["slack"])
    _le(problems, "sup_variety", s["sup_variety"], s["sup_bidisc"] + s["slack"])
    if s["skipped_thetas"] >= s["n_theta"]:
        problems.append("every theta skipped")
    return problems


def check_dilation(p: dict, r1: int) -> list[str]:
    problems = []
    _le(problems, "res_z", p["res_z"], p["bound_z"] + RESIDUAL_ATOL)
    _le(problems, "res_psi", p["res_psi"], p["bound_psi"] + RESIDUAL_ATOL)
    _le(problems, "compression_t1", p["compression_t1"], p["bound_t1"] + RESIDUAL_ATOL)
    _le(problems, "compression_t2", p["compression_t2"], p["bound_t2"] + RESIDUAL_ATOL)
    # Pi* Pi = I - T1^(N+1) T1*^(N+1), so the defect is the squared tail
    _le(problems, "isometry_defect", p["isometry_defect"], p["tail_bound"] ** 2 + RESIDUAL_ATOL)
    if p["minimality_defect"] != 0:
        problems.append(f"minimality_defect={p['minimality_defect']}")
    if not np.isnan(p["mpsi_isometry_restricted"]):
        _le(problems, "mpsi_isometry_restricted", p["mpsi_isometry_restricted"],
            MPSI_RESTRICTED_TOL)
    if p["rows"] != (p["N"] + 1) * r1:
        problems.append(f"rows={p['rows']} but N={p['N']}, r1={r1}")
    return problems


def vn_summary(rep) -> dict:
    return {
        "lhs": rep.lhs, "sup_variety": rep.sup_variety, "sup_bidisc": rep.sup_bidisc,
        "slack": rep.slack, "pair_digest": rep.pair_digest,
        "skipped_thetas": rep.skipped_thetas, "n_theta": rep.sampling["n_theta"],
    }


def vn_corruptions(s: dict) -> list[dict]:
    return [dict(s, lhs=s["lhs"] * (1 + 1e-6) + 1e-6),
            dict(s, pair_digest="0" * 16)]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    rss_of_children = False   # peak RSS is the workload process's own

    def __init__(self, seed: int, root: str):
        self.seed = seed
        self.root = root

    def close(self):
        pass

    def run_traced(self, inst: Instance, recorder: spans.Recorder):
        with recorder:
            raw = self.run(inst)
        return raw, recorder.collect()


class CertifySmall(Workload):
    """ContractionPair.create + vn_report at the default grids, dims 2-8."""

    DEGREE = 4
    REGULAR = 21       # every (kind, dim) pair of 3 kinds x dims 2..8 once
    NEAR_UNIT = 2      # diagonal pairs with ||T2|| within 1e-4 of 1

    def instances(self, k: int) -> list[Instance]:
        rng = np.random.default_rng([self.seed, k, 1])
        seeds = seeds_for(self.seed, k, self.REGULAR + self.NEAR_UNIT)
        out = []
        for i in range(self.REGULAR):
            kind, dim = GENERATOR_KINDS[i % 3], 2 + i % 7
            T1, T2 = av.generate_pair(kind, dim, seeds[i], radius=RADIUS)
            out.append(vn_instance(f"{kind}-{dim}", T1, T2, random_coeffs(rng, self.DEGREE)))
        edge = [vn_instance("near-pole", NEAR_POLE_T1, NEAR_POLE_T2, NEAR_POLE_COEFFS)]
        for j in range(self.NEAR_UNIT):
            dim = 2 + (3 * k + 4 * j) % 7
            T1, T2 = av.generate_pair("diag", dim, seeds[self.REGULAR + j], radius=RADIUS)
            gap = rng.uniform(1e-5, 1e-4)
            T2 = T2 * ((1.0 - gap) / np.max(np.abs(np.diag(T2))))
            edge.append(vn_instance(f"near-unit-diag-{dim}", T1, T2,
                                    random_coeffs(rng, self.DEGREE)))
        for pos, inst in zip((0, 8, 16), edge):
            out.insert(pos, inst)
        return out

    def edge_share(self) -> float:
        return (1 + self.NEAR_UNIT) / (1 + self.NEAR_UNIT + self.REGULAR)

    def warm_up(self) -> Instance:
        T1, T2 = av.generate_pair("diag", 2, self.seed, radius=RADIUS)
        return vn_instance("warm-up", T1, T2, random_coeffs(np.random.default_rng(self.seed), 2))

    def run(self, inst):
        pair = av.ContractionPair.create(inst.T1, inst.T2)
        return vn_report(pair, BivariatePolynomial(inst.coeffs))

    def summarize(self, inst, rep):
        return vn_summary(rep)

    def check(self, inst, s):
        problems = check_vn(s, inst.ref)
        if s["n_theta"] != DEFAULT_N_THETA:
            problems.append(f"n_theta={s['n_theta']}")
        return problems

    def corruptions(self, s):
        return vn_corruptions(s)


class VarietyLarge(Workload):
    """The `variety` command, boundary_scan, symmetry_residual and a
    degree-12 vn_report on dims 16, 24 and 32."""

    # the median falls among the dim-24 instances; two of them per pass
    # double the samples it rests on
    DIMS = (16, 24, 32, 24)
    DEGREE = 12
    N_THETA = 720

    def _instance(self, label, kind, dim, seed, rng, degree):
        T1, T2 = av.generate_pair(kind, dim, seed, radius=RADIUS)
        inst = vn_instance(label, T1, T2, random_coeffs(rng, degree))
        inst.ref["r1"] = defect_rank(T1)
        return inst

    def instances(self, k):
        rng = np.random.default_rng([self.seed, k, 1])
        seeds = seeds_for(self.seed, k, len(self.DIMS))
        out = []
        for j, dim in enumerate(self.DIMS):
            kind = GENERATOR_KINDS[(k + j) % 3]
            out.append(self._instance(f"{kind}-{dim}", kind, dim, seeds[j], rng, self.DEGREE))
        return out

    def warm_up(self):
        return self._instance("warm-up", "diag", 4, self.seed,
                              np.random.default_rng(self.seed), 4)

    def run(self, inst):
        pair = av.ContractionPair.create(inst.T1, inst.T2)
        d1 = av.defect(pair.T1, pair.tol.rank)
        d2 = av.defect(pair.T2, pair.tol.rank)
        coll = av.build_colligation(pair, d1, d2)
        split = av.canonical_split(mc.adjoint(coll.A), tol_pure=pair.tol.pure)
        sample = av.boundary_samples(coll, split, self.N_THETA)
        csv = variety.sample_to_csv(sample)
        scan = av.boundary_scan(av.adjoint_transfer(coll), self.N_THETA)
        sym = av.symmetry_residual(pair, n_samples=8)
        rep = vn_report(pair, BivariatePolynomial(inst.coeffs))
        return coll, sample, csv, scan, sym, rep

    def summarize(self, inst, raw):
        coll, sample, csv, scan, sym, rep = raw
        return dict(
            vn_summary(rep),
            unitarity=coll.unitarity_residual(),
            points=len(sample), kept=len(sample.theta_grid),
            csv_header=csv[:csv.find("\n")], csv_rows=csv.count("\n") - 1,
            scan_total=len(scan.thetas) + len(scan.skipped),
            scan_skipped=len(scan.skipped), scan_deviation=scan.max_deviation(),
            symmetry=sym,
        )

    def check(self, inst, s):
        problems = check_vn(s, inst.ref)
        _le(problems, "unitarity", s["unitarity"], UNITARITY_TOL)
        if s["points"] != s["kept"] * inst.ref["r1"]:
            problems.append(f"{s['points']} variety points for {s['kept']} thetas, r1={inst.ref['r1']}")
        if s["csv_header"] != CSV_HEADER:
            problems.append("csv header")
        if s["csv_rows"] != s["points"]:
            problems.append(f"csv has {s['csv_rows']} rows for {s['points']} points")
        if s["scan_total"] != self.N_THETA:
            problems.append(f"scan covered {s['scan_total']} thetas")
        _le(problems, "scan skip rate", s["scan_skipped"] / self.N_THETA, SKIP_RATE_MAX)
        _le(problems, "boundary unitarity deviation", s["scan_deviation"], INNER_TOL)
        _le(problems, "symmetry_residual", s["symmetry"], SYMMETRY_TOL)
        return problems

    def corruptions(self, s):
        return vn_corruptions(s) + [
            dict(s, unitarity=1e-6),
            dict(s, csv_rows=s["csv_rows"] - 1),
            dict(s, symmetry=1e-3),
        ]


class Dilate(Workload):
    """build_dilation and its residual checks on dims 4-8."""

    DIMS = tuple(range(4, 9))

    def _instance(self, label, kind, dim, seed):
        if kind == "diag":
            T1, T2 = pinned_diag_pair(dim, seed)
        else:
            T1, T2 = av.generate_pair(kind, dim, seed, radius=RADIUS)
        return Instance(label, T1, T2, ref={"r1": defect_rank(T1)})

    def instances(self, k):
        # five dense diagonal instances and two small ones per pass, so the
        # median sits inside the dense group
        seeds = seeds_for(self.seed, k, len(self.DIMS) + 2)
        out = [self._instance(f"diag-{d}", "diag", d, s) for d, s in zip(self.DIMS, seeds)]
        tri = self.DIMS[k % 5]
        jordan = self.DIMS[(k + 2) % 5]
        out.insert(1, self._instance(f"triangular-commuting-{tri}", "triangular-commuting",
                                     tri, seeds[-2]))
        out.insert(4, self._instance(f"jordan-poly-{jordan}", "jordan-poly", jordan, seeds[-1]))
        return out

    def warm_up(self):
        return self._instance("warm-up", "diag", 2, self.seed)

    def run(self, inst):
        """The `andovar dilate` sequence, in the command's order."""
        pair = av.ContractionPair.create(inst.T1, inst.T2)
        tol = pair.tol
        d1 = av.defect(pair.T1, tol.rank)
        d2 = av.defect(pair.T2, tol.rank)
        coll = av.build_colligation(pair, d1, d2)
        dil = av.build_dilation(pair, coll, d1, tol_trunc=tol.trunc, tol_pure=tol.pure)
        inter = av.intertwining_residuals(dil, pair)
        comp = av.compression_residuals(dil, pair)
        iso = av.mpsi_isometry_residual(dil, coll)
        return coll, {
            "N": dil.N, "rows": dil.rows, "tail_bound": dil.tail_bound,
            "isometry_defect": mc.operator_norm(mc.adjoint(dil.Pi) @ dil.Pi - np.eye(dil.n)),
            "res_z": inter.res_z, "res_psi": inter.res_psi,
            "bound_z": inter.bound_z, "bound_psi": inter.bound_psi,
            "compression_t1": comp.res_t1, "compression_t2": comp.res_t2,
            "bound_t1": comp.bound_t1, "bound_t2": comp.bound_t2,
            "minimality_defect": av.minimality_defect(dil),
            "mpsi_isometry_restricted": iso.restricted,
        }

    def summarize(self, inst, raw):
        coll, payload = raw
        return dict(payload, unitarity=coll.unitarity_residual())

    def check(self, inst, s):
        problems = check_dilation(s, inst.ref["r1"])
        _le(problems, "unitarity", s["unitarity"], UNITARITY_TOL)
        return problems

    def corruptions(self, s):
        return [dict(s, minimality_defect=1),
                dict(s, res_z=s["bound_z"] + 1e-6),
                dict(s, unitarity=1e-6)]


def _matrix_json(M) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in M]


class CliCold(Workload):
    """Fresh `python -m andovar.cli` processes: check, vn, variety, dilate."""

    rss_of_children = True
    DIM = 4
    DEGREE = 4
    COMMANDS = ("check", "vn", "variety", "dilate")
    SKIPPED = re.compile(r"skipped thetas: (\d+)")

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                     "cli_traced.py")
        rng = np.random.default_rng([seed, 0, 1])
        seeds = seeds_for(seed, 0, len(GENERATOR_KINDS))
        self.pairs = []
        for kind, s in zip(GENERATOR_KINDS, seeds):
            if kind == "diag":
                T1, T2 = pinned_diag_pair(self.DIM, s)
            else:
                T1, T2 = av.generate_pair(kind, self.DIM, s, radius=RADIUS)
            self.pairs.append(self._write(kind, T1, T2, random_coeffs(rng, self.DEGREE)))

    def _write(self, kind, T1, T2, coeffs):
        pair_file = os.path.join(self.tmp, f"{kind}.pair.json")
        poly_file = os.path.join(self.tmp, f"{kind}.poly.json")
        with open(pair_file, "w", encoding="utf-8") as fh:
            json.dump({"n": T1.shape[0], "T1": _matrix_json(T1), "T2": _matrix_json(T2)}, fh)
        with open(poly_file, "w", encoding="utf-8") as fh:
            json.dump({"coeffs": _matrix_json(coeffs)}, fh)
        inst = vn_instance(kind, T1, T2, coeffs)
        inst.ref.update(
            r1=defect_rank(T1), r2=defect_rank(T2),
            norms=[float(np.linalg.norm(T1, 2)), float(np.linalg.norm(T2, 2))],
            pair_file=pair_file, poly_file=poly_file,
        )
        return inst

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def _command(self, cmd, base: Instance) -> Instance:
        args = [cmd, base.ref["pair_file"]]
        if cmd == "vn":
            args.append(base.ref["poly_file"])
        return Instance(f"{cmd}-{base.label}", base.T1, base.T2, base.coeffs,
                        ref=base.ref, args=args)

    def instances(self, k):
        return [self._command(cmd, base) for base in self.pairs for cmd in self.COMMANDS]

    def warm_up(self):
        return self._command("check", self.pairs[0])

    def _spawn(self, argv):
        return subprocess.run(argv, capture_output=True, text=True, env=self.env,
                              cwd=self.root, timeout=120, check=False)

    def run(self, inst):
        return self._spawn([sys.executable, "-m", "andovar.cli", *inst.args])

    def run_traced(self, inst, recorder):
        out = os.path.join(self.tmp, "spans.json")
        proc = self._spawn([sys.executable, self.launcher, out, *inst.args])
        with open(out, encoding="utf-8") as fh:
            collected = json.load(fh)
        os.remove(out)
        return proc, collected

    def summarize(self, inst, proc):
        s = {"command": inst.args[0], "returncode": proc.returncode}
        if proc.returncode != 0:
            return s
        if s["command"] == "variety":
            found = self.SKIPPED.search(proc.stderr)
            s.update(csv_header=proc.stdout[:proc.stdout.find("\n")],
                     csv_rows=proc.stdout.count("\n") - 1,
                     skipped=int(found.group(1)) if found else -1)
        else:
            s["payload"] = json.loads(proc.stdout)
        return s

    def check(self, inst, s):
        if s["returncode"] != 0:
            return [f"exit code {s['returncode']}"]
        ref, cmd = inst.ref, s["command"]
        if cmd == "check":
            p, problems = s["payload"], []
            for j in range(2):
                if not abs(p["norms"][j] - ref["norms"][j]) <= NORM_ATOL:
                    problems.append(f"norm T{j + 1}={p['norms'][j]!r}, reference {ref['norms'][j]!r}")
            if p["defect_ranks"] != [ref["r1"], ref["r2"]]:
                problems.append(f"defect ranks {p['defect_ranks']}")
            return problems
        if cmd == "vn":
            p = s["payload"]
            return check_vn(dict(p, n_theta=p["grids"]["n_theta"]), ref)
        if cmd == "variety":
            problems = []
            if s["csv_header"] != CSV_HEADER:
                problems.append("csv header")
            kept = DEFAULT_N_THETA - s["skipped"]
            if s["skipped"] < 0 or s["csv_rows"] != kept * ref["r1"]:
                problems.append(f"{s['csv_rows']} csv rows, {s['skipped']} skipped, r1={ref['r1']}")
            _le(problems, "skip rate", s["skipped"] / DEFAULT_N_THETA, SKIP_RATE_MAX)
            return problems
        # the command prints no compression bounds; rebuild them from the
        # tail norms as compression_residuals does
        p = dict(s["payload"])
        T1s = inst.T1.conj().T
        tail_prev = float(np.linalg.norm(np.linalg.matrix_power(T1s, p["N"]), 2))
        p["bound_t1"] = p["tail_bound"] * tail_prev
        p["bound_t2"] = p["tail_bound"] ** 2 + p["res_psi"]
        return check_dilation(p, ref["r1"])

    def corruptions(self, s):
        bad = [dict(s, returncode=3)]
        if "payload" in s:
            bad.append(dict(s, payload=dict(s["payload"], norms=[2.0, 2.0])))
        return bad


WORKLOADS = {
    "certify-small": CertifySmall,
    "variety-large": VarietyLarge,
    "dilate": Dilate,
    "cli-cold": CliCold,
}
