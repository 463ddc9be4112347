"""Command-line surface.

Exit codes: 0 success, 1 usage or parse error, 2 validation failure,
3 numeric failure.  BLAS parallelism is capped by the BLAS library's own
environment variables (OPENBLAS_NUM_THREADS, OMP_NUM_THREADS); all
library-level grid reductions are order-fixed and sequential, so outputs
are reproducible for a fixed seed regardless of the cap.
"""

from __future__ import annotations

import math
import sys

import click
import numpy as np

from . import matrix_core as mc
from . import serialize
from .dilation import (
    build_dilation,
    compression_residuals,
    intertwining_residuals,
    minimality_defect,
    mpsi_isometry_residual,
)
from .errors import AndovarError, InputError, NumericError, ValidationError
from .pair_analysis import (
    DEFAULT_TOL,
    GENERATOR_KINDS,
    ContractionPair,
    Tolerances,
    generate_pair,
)
from .transfer import analyze, boundary_scan
from .variety import boundary_samples, sample_to_csv, sample_to_svg
from .vn import (
    DEFAULT_N_THETA,
    DEFAULT_TORUS_GRID,
    BivariatePolynomial,
    vn_report,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3


# each tolerance flag, the Tolerances field it overrides, and its help text
_TOL_FLAGS = (
    ("--tol-commute", "commute", "Commutation tolerance"),
    ("--tol-contract", "contract", "Contractivity tolerance"),
    ("--tol-pure", "pure", "Purity margin on the spectral radius"),
    ("--rank-tol", "rank", "Defect rank threshold"),
    ("--tol-trunc", "trunc", "Hardy-space truncation tail target"),
)


def _tolerances(ctx_params: dict) -> Tolerances:
    overrides = {}
    for flag, name, _ in _TOL_FLAGS:
        value = ctx_params.get(flag[2:].replace("-", "_"))
        if value is None:
            continue
        if not math.isfinite(value) or value < 0:
            raise click.UsageError(f"{flag} must be >= 0 and finite")
        overrides[name] = value
    return Tolerances(**overrides)


def _tol_options(fn):
    fn = click.option("--strict", is_flag=True, help="Halve every tolerance.")(fn)
    for flag, name, text in reversed(_TOL_FLAGS):
        default = getattr(DEFAULT_TOL, name)
        shown = f"{DEFAULT_TOL.commute_for(1):g} * dim" if default is None else f"{default:g}"
        fn = click.option(flag, type=float, default=None,
                          help=f"{text} (default {shown}).")(fn)
    return fn


def _read_text(path: str, what: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {what} file {path}: {exc}") from exc


def _read_pair(path: str, params: dict) -> ContractionPair:
    """Validate the pair file under the tolerance flags; ``--strict`` halves
    the tolerances at the pair's dimension."""
    tol = _tolerances(params)
    T1, T2 = serialize.pair_from_json(_read_text(path, "pair"))
    if params.get("strict"):
        tol = tol.halved(T1.shape[0])
    return ContractionPair.create(T1, T2, tol)


def _write_output(text: str, output: str | None):
    if not output:
        click.echo(text, nl=False)
        return
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write output file {output}: {exc}") from exc


@click.group()
def cli():
    """Dilation, inner-multiplier and variety computations for commuting
    contractive matrix pairs."""


@cli.command()
@click.argument("pair_file", type=click.Path())
@_tol_options
def check(pair_file, **params):
    """Validate a pair file; print the analysis report as JSON."""
    report = _read_pair(pair_file, params).report
    click.echo(serialize.dumps(report.to_dict()), nl=False)


@cli.command()
@click.argument("pair_file", type=click.Path())
@click.option("--output", "-o", type=click.Path(), default=None)
@_tol_options
def colligation(pair_file, output, **params):
    """Build the canonical unitary colligation; emit blocks and bases."""
    coll = analyze(_read_pair(pair_file, params)).coll
    payload = coll.to_dict()
    payload["unitarity_residual"] = coll.unitarity_residual()
    _write_output(serialize.dumps(payload), output)


@cli.command()
@click.argument("pair_file", type=click.Path())
@click.option("--theta-samples", type=int, default=DEFAULT_N_THETA, show_default=True)
@click.option("--output", "-o", type=click.Path(), default=None,
              help="Destination (stdout if omitted).")
@click.option("--format", "fmt", type=click.Choice(["csv", "svg"]), default="csv",
              show_default=True, help="Output format.")
@_tol_options
def variety(pair_file, theta_samples, output, fmt, **params):
    """Sample the variety boundary; write CSV or a static scatter SVG."""
    pair = _read_pair(pair_file, params)
    pair.require_pure(1)
    analysis = analyze(pair)
    sample = boundary_samples(analysis.coll, analysis.split, theta_samples)
    render = sample_to_csv if fmt == "csv" else sample_to_svg
    _write_output(render(sample), output)
    n_v0 = sample.k * len(sample.theta_grid)
    # "skipped thetas: 0" is constant: perfbench/ reads it; it goes with ROADMAP item 5
    click.echo(f"# V0 points: {n_v0}, V1 points: {len(sample) - n_v0}, "
               "skipped thetas: 0", err=True)


@cli.command()
@click.argument("pair_file", type=click.Path())
@click.argument("poly_file", type=click.Path())
@click.option("--theta-samples", type=int, default=DEFAULT_N_THETA, show_default=True)
@click.option("--torus-grid", type=int, default=DEFAULT_TORUS_GRID, show_default=True)
@click.option("--output", "-o", type=click.Path(), default=None)
@_tol_options
def vn(pair_file, poly_file, theta_samples, torus_grid, output, **params):
    """Certify the norm chain for a polynomial; emit the report as JSON."""
    pair = _read_pair(pair_file, params)
    p = BivariatePolynomial(serialize.poly_from_json(_read_text(poly_file, "polynomial")))
    report = vn_report(pair, p, n_theta=theta_samples, torus_grid=torus_grid)
    _write_output(serialize.dumps(report.to_dict()), output)


@cli.command()
@click.argument("pair_file", type=click.Path())
@click.option("--truncation", default="auto", show_default=True,
              help="Truncation degree: 'auto' or an explicit integer.")
@click.option("--dump", type=click.Path(), default=None,
              help="Write Pi/Mz/MPsi matrices as JSON for debugging.")
@_tol_options
def dilate(pair_file, truncation, dump, **params):
    """Build the truncated dilation; print residuals and bounds as JSON."""
    pair = _read_pair(pair_file, params)
    coll = analyze(pair).coll
    if truncation == "auto":
        N = None
    else:
        try:
            N = int(truncation)
        except ValueError:
            raise click.UsageError("--truncation must be 'auto' or an integer")
    dil = build_dilation(pair, coll, pair.report.defects[0], N=N)
    inter = intertwining_residuals(dil, pair)
    comp = compression_residuals(dil, pair)
    iso = mpsi_isometry_residual(dil, coll)
    payload = {
        "N": dil.N,
        "rows": dil.rows,
        "tail_bound": dil.tail_bound,
        "truncation_capped": dil.tail_bound >= pair.tol.trunc,
        "isometry_defect": mc.operator_norm(
            mc.adjoint(dil.Pi) @ dil.Pi - np.eye(dil.n)),
        "res_z": inter.res_z,
        "res_psi": inter.res_psi,
        "bound_z": inter.bound_z,
        "bound_psi": inter.bound_psi,
        "compression_t1": comp.res_t1,
        "compression_t2": comp.res_t2,
        "minimality_defect": minimality_defect(dil),
        "mpsi_isometry_raw": iso.raw,
        "mpsi_isometry_restricted": iso.restricted,
        "q_eff": iso.q_eff,
    }
    # the dump is written first: past the dense row limit or on an
    # unwritable path the command fails with nothing on stdout
    if dump:
        matrices = {"Pi": dil.Pi, "Mz": dil.Mz, "MPsi": dil.MPsi}
        _write_output(serialize.dumps(
            {name: serialize.matrix_to_nested(M) for name, M in matrices.items()}), dump)
    click.echo(serialize.dumps(payload), nl=False)


@cli.command()
@click.argument("kind", type=click.Choice(GENERATOR_KINDS))
@click.option("--dim", type=int, default=4, show_default=True)
@click.option("--seed", type=int, default=42, show_default=True)
@click.option("--radius", type=float, default=0.9, show_default=True,
              help="Norm bound keeping the pair strictly contractive.")
@click.option("--output", "-o", type=click.Path(), default=None)
def gen(kind, dim, seed, radius, output):
    """Generate an exactly-commuting contractive test pair."""
    T1, T2 = generate_pair(kind, dim, seed, radius=radius)
    _write_output(serialize.pair_to_json(T1, T2), output)


@cli.command()
@click.argument("name", type=click.Choice(["shift"]))
@click.option("--m", "m", type=int, default=2, show_default=True,
              help="Fiber dimension of the zero pair.")
def demo(name, m):
    """Canned end-to-end scenario on the pair of zero matrices on C^m.

    The colligation is [[0, W], [I, 0]] with the convention W = I, the
    multiplier is z -> z W*, and the variety is the diagonal z2 = z1.
    """
    if m < 1:
        raise click.UsageError("--m must be >= 1")
    Z = np.zeros((m, m), complex)
    pair = ContractionPair.create(Z, Z)
    analysis = analyze(pair)
    coll = analysis.coll
    sample = boundary_samples(coll, analysis.split, 90)
    diag_dev = np.abs(sample.values - np.exp(1j * sample.theta_grid)[:, None])
    p = BivariatePolynomial(np.array([[0, -1], [1, 0]], complex))  # z1 - z2
    report = vn_report(pair, p)
    scan = boundary_scan(analysis.psi, 90)
    payload = {
        "m": m,
        "colligation": {
            "A_norm": mc.operator_norm(coll.A),
            "B_equals_identity": bool(mc.operator_norm(coll.B - np.eye(m)) < 1e-12),
            "C_equals_identity": bool(mc.operator_norm(coll.C - np.eye(m)) < 1e-12),
            "D_norm": mc.operator_norm(coll.D),
        },
        "psi_symbol": "z * W^* with W = I",
        "variety": "diagonal z2 = z1",
        "max_diagonal_deviation": float(np.max(diag_dev)),
        "boundary_unitarity_deviation": scan.max_deviation(),
        "vn": report.to_dict(),
    }
    click.echo(serialize.dumps(payload), nl=False)


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.UsageError as exc:
        exc.show()
        return EXIT_USAGE
    except click.Abort:
        return EXIT_USAGE
    except InputError as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_USAGE
    except ValidationError as exc:
        click.echo(serialize.dumps({
            "error": str(exc),
            "details": exc.details,
        }), nl=False)
        return EXIT_VALIDATION
    except NumericError as exc:
        click.echo(f"numeric failure: {exc}", err=True)
        return EXIT_NUMERIC
    except AndovarError as exc:
        click.echo(f"failure: {exc}", err=True)
        return EXIT_NUMERIC
    return EXIT_OK


def entry():  # console-script target
    sys.exit(main())


if __name__ == "__main__":
    entry()
