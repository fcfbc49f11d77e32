"""Command-line front end.

Subcommands: ``rates`` (closed-form bounds at a point), ``thresholds``
(security-threshold curves to CSV, optionally SVG), ``converge``
(finite-squeezing engines against their closed-form targets), ``verify``
(dilation-based protocol rate against the closed form), ``simulate`` (seeded
protocol Monte Carlo, JSON out), and ``classify`` (region flags at a point).

Exit codes: 0 on success, 1 on domain errors (values outside the supported
physics, e.g. tau = 1 or negative noise), 2 on flag errors (unknown,
missing, or malformed flags).  Every error message names the offending flag.
Floats are printed with 12 significant digits; the GAUSSKEY_PRECISION
environment variable overrides the printed precision (output formatting
only, never the computation and never the fixed CSV schema).
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import asdict

import click

from . import __version__
from .channels import make_canonical
from .engines import ENGINES, PORT_MODELS, convergence_table, protocol_rate_numeric
from .errors import GaussKeyError
from .rates import r_rev, rate_report
from .sim import SimConfig, rounds_to_csv, simulate
from .thresholds import ThresholdCurve, classify, curve_to_csv, sweep


def _digits() -> int:
    raw = os.environ.get("GAUSSKEY_PRECISION")
    if raw is None:
        return 12
    try:
        d = int(raw)
    except ValueError:
        return 12
    return min(max(d, 1), 17)


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.{_digits()}g}"
    return str(x)


def _jsonable(value, digits: int):
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        if math.isfinite(value):
            return float(f"{value:.{digits}g}")
        return value
    if isinstance(value, dict):
        return {k: _jsonable(v, digits) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v, digits) for v in value]
    return value


def _emit_json(obj: dict, pretty: bool = False):
    prepared = _jsonable(obj, _digits())
    if pretty:
        click.echo(json.dumps(prepared, indent=2))
    else:
        click.echo(json.dumps(prepared, separators=(",", ":")))


def _fail_domain(exc: GaussKeyError, fallback: str):
    """Print ``exc`` under the flags named by its field, else ``fallback``; exit 1."""
    if exc.field is None:
        label = fallback
    else:
        label = "/".join("--" + name.replace("_", "-") for name in exc.field.split("/"))
    click.echo(f"error: {label}: {exc}", err=True)
    sys.exit(1)


@click.group()
@click.version_option(version=__version__, prog_name="gausskey")
def cli():
    """Secret-key rate bounds for one-mode Gaussian bosonic channels.

    Channels are parameterized by their transmission --tau (tau = 1
    unsupported) and thermal noise, given either as the environment
    temperature --nbar or as the scaled noise --eps = 2*nbar*|1-tau|.
    All rates are in bits per channel use.
    """


@cli.command()
@click.option("--tau", type=float, required=True, help="Channel transmission (tau != 1).")
@click.option("--nbar", type=float, default=None, help="Environment temperature (mean photon number).")
@click.option("--eps", type=float, default=None, help="Scaled thermal noise 2*nbar*|1-tau|.")
@click.option("--json", "as_json", is_flag=True, help="Emit a JSON object instead of text.")
def rates(tau, nbar, eps, as_json):
    """Closed-form rate bounds e_r, q1g, r_rev at one channel point."""
    if (nbar is None) == (eps is None):
        raise click.UsageError("exactly one of --nbar and --eps is required")
    try:
        ch = make_canonical(tau, nbar=nbar, eps=eps)
        report = rate_report(ch)
    except GaussKeyError as exc:
        _fail_domain(exc, "--tau")
    if as_json:
        _emit_json(report.as_dict())
        return
    click.echo(
        f"channel: tau={_fmt(ch.tau)} nbar={_fmt(ch.nbar)} "
        f"eps={_fmt(ch.eps)} class={ch.class_label}"
    )
    click.echo(f"e_r    = {_fmt(report.e_r)}")
    click.echo(f"q1g    = {_fmt(report.q1g)}")
    click.echo(f"r_rev  = {_fmt(report.r_rev)}")
    click.echo(f"lambda = {_fmt(report.lam)}")
    click.echo(f"w      = {_fmt(report.w)}")
    if report.e_r > 0.0:
        click.echo(f"bound: K_rev >= E_R = {_fmt(report.e_r)} > 0")


@cli.command()
@click.option("--tau-min", type=float, default=0.05, show_default=True, help="Grid start.")
@click.option("--tau-max", type=float, default=2.5, show_default=True, help="Grid end.")
@click.option("--steps", type=int, default=200, show_default=True, help="Grid points.")
@click.option("--tol", type=float, default=1e-9, show_default=True, help="Threshold tolerance on eps.")
@click.option("--out", type=click.Path(dir_okay=False, writable=True), required=True,
              help="CSV output path (schema: tau,eps_q,eps_r,eps_rev).")
@click.option("--svg", type=click.Path(dir_okay=False, writable=True), default=None,
              help="Also write an SVG plot of the three curves.")
def thresholds(tau_min, tau_max, steps, tol, out, svg):
    """Security-threshold curves eps_q, eps_r, eps_rev over a tau grid."""
    try:
        curve = sweep(tau_min, tau_max, steps, tol=tol)
    except GaussKeyError as exc:
        _fail_domain(exc, "--tau-min/--tau-max")
    with open(out, "w", newline="") as fh:
        fh.write(curve_to_csv(curve))
    click.echo(f"wrote {len(curve.rows)} rows to {out}")
    if svg is not None:
        with open(svg, "w", newline="") as fh:
            fh.write(_curve_svg(curve))
        click.echo(f"wrote plot to {svg}")


@cli.command()
@click.option("--tau", type=float, required=True, help="Channel transmission (tau != 1).")
@click.option("--nbar", type=float, required=True, help="Environment temperature.")
@click.option("--mu-list", required=True,
              help="Comma-separated source variances, e.g. 1,10,100,1000.")
@click.option("--engine", type=click.Choice(ENGINES), default="rci",
              show_default=True, help="Which finite-squeezing engine to run.")
@click.option("--json", "as_json", is_flag=True, help="Emit a JSON object instead of text.")
def converge(tau, nbar, mu_list, engine, as_json):
    """Finite-squeezing engine values against the closed-form target.

    The protocol engine uses the trusted discarded-port model, the one that
    matches the closed-form homodyne rate.
    """
    tokens = [t.strip() for t in mu_list.split(",") if t.strip()]
    if not tokens:
        raise click.UsageError("--mu-list must contain at least one value")
    try:
        mus = [float(t) for t in tokens]
    except ValueError:
        raise click.UsageError(f"--mu-list: could not parse {mu_list!r} as floats")
    try:
        ch = make_canonical(tau, nbar=nbar)
        rows = convergence_table(ch, mus, engine=engine)
    except GaussKeyError as exc:
        _fail_domain(exc, "--mu-list")
    if as_json:
        _emit_json(
            {
                "tau": ch.tau,
                "nbar": ch.nbar,
                "engine": engine,
                "rows": [asdict(r) for r in rows],
            }
        )
        return
    click.echo(f"engine={engine} tau={_fmt(ch.tau)} nbar={_fmt(ch.nbar)}")
    click.echo("mu value target gap")
    for r in rows:
        click.echo(f"{_fmt(r.mu)} {_fmt(r.value)} {_fmt(r.target)} {_fmt(r.gap)}")


@cli.command()
@click.option("--tau", type=float, required=True, help="Channel transmission (0 < tau, tau != 1).")
@click.option("--nbar", type=float, required=True, help="Environment temperature.")
@click.option("--mu", type=float, required=True, help="Source variance (> 1).")
@click.option("--ports", type=click.Choice(PORT_MODELS), required=True,
              help="Whether the discarded beam-splitter port stays out of the eavesdropper's hands.")
@click.option("--json", "as_json", is_flag=True, help="Emit a JSON object instead of text.")
def verify(tau, nbar, mu, ports, as_json):
    """Dilation-based protocol rate against the closed form at one point."""
    try:
        ch = make_canonical(tau, nbar=nbar)
        numeric = protocol_rate_numeric(ch, mu, port_model=ports)
    except GaussKeyError as exc:
        _fail_domain(exc, "--tau/--mu")
    closed = r_rev(ch)
    diff = abs(numeric - closed)
    if as_json:
        _emit_json(
            {
                "tau": ch.tau,
                "nbar": ch.nbar,
                "mu": mu,
                "ports": ports,
                "numeric_rate": numeric,
                "closed_form": closed,
                "abs_diff": diff,
            }
        )
        return
    click.echo(f"tau={_fmt(ch.tau)} nbar={_fmt(ch.nbar)} mu={_fmt(mu)} ports={ports}")
    click.echo(f"numeric_rate = {_fmt(numeric)}")
    click.echo(f"closed_form  = {_fmt(closed)}")
    click.echo(f"abs_diff     = {_fmt(diff)}")


@cli.command("simulate")
@click.option("--tau", type=float, required=True, help="Channel transmission (tau != 1).")
@click.option("--nbar", type=float, required=True, help="Environment temperature.")
@click.option("--mu", type=float, required=True, help="Source variance (>= 1).")
@click.option("--rounds", type=int, required=True, help="Number of protocol rounds.")
@click.option("--seed", type=int, required=True, help="64-bit generator seed.")
@click.option("--mode", type=click.Choice(["memory", "sifted"]), required=True,
              help="Basis handling: broadcast (memory) or independent choices (sifted).")
@click.option("--rounds-csv", type=click.Path(dir_okay=False, writable=True), default=None,
              help="Also write one CSV row per round (basis_b,basis_a,kept,x_a,x_b).")
@click.option("--json", "as_json", is_flag=True, help="Single-line JSON instead of indented.")
def simulate_cmd(tau, nbar, mu, rounds, seed, mode, rounds_csv, as_json):
    """Seeded homodyne-protocol Monte Carlo; emits run statistics as JSON."""
    try:
        cfg = SimConfig(tau=tau, nbar=nbar, mu=mu, rounds=rounds, seed=seed, mode=mode)
        if rounds_csv is not None:
            stats, rec = simulate(cfg, keep_rounds=True)
            with open(rounds_csv, "w", newline="") as fh:
                fh.write(rounds_to_csv(rec))
        else:
            stats = simulate(cfg)
    except GaussKeyError as exc:
        _fail_domain(exc, "--mu/--rounds")
    _emit_json({**asdict(cfg), **stats.as_dict()}, pretty=not as_json)


@cli.command("classify")
@click.option("--tau", type=float, required=True, help="Channel transmission (tau != 1).")
@click.option("--eps", type=float, required=True, help="Scaled thermal noise 2*nbar*|1-tau|.")
@click.option("--json", "as_json", is_flag=True, help="Emit a JSON object instead of text.")
def classify_cmd(tau, eps, as_json):
    """Region flags at one (tau, eps) point."""
    try:
        label = classify(tau, eps)
    except GaussKeyError as exc:
        _fail_domain(exc, "--tau/--eps")
    flags = asdict(label)
    region = _region_text(label)
    if as_json:
        _emit_json({"tau": tau, "eps": eps, **flags, "region": region})
        return
    click.echo(f"tau={_fmt(tau)} eps={_fmt(eps)}")
    width = max(map(len, flags))
    for name, value in flags.items():
        click.echo(f"{name:<{width}} = {value}")
    click.echo(f"region: {region}")


def _region_text(label) -> str:
    if label.reverse_beats_antidegradability:
        if label.e_r_positive:
            return "antidegradable; K_rev ≥ E_R > 0"
        return "antidegradable; K_rev ≥ R_rev > 0"
    parts = ["antidegradable" if label.antidegradable else "not antidegradable"]
    if label.e_r_positive:
        parts.append("E_R > 0")
    if label.q1g_positive:
        parts.append("q1g > 0")
    if label.r_rev_positive:
        parts.append("R_rev > 0")
    if len(parts) == 1:
        parts.append("all rate bounds zero")
    return "; ".join(parts)


def _curve_svg(curve: ThresholdCurve) -> str:
    """Hand-built SVG plot of the three threshold curves.

    Lines are split across the excluded tau = 1 gap.  Styling: eps_q thin
    solid, eps_r thick solid, eps_rev dashed.
    """
    width, height, margin = 720, 480, 60.0
    rows = curve.rows
    xs = [r.tau for r in rows]
    xmin, xmax = min(xs), max(xs)
    if xmax == xmin:
        xmin, xmax = xmin - 0.5, xmax + 0.5
    ymax = max(max(r.eps_q, r.eps_r, r.eps_rev) for r in rows)
    ymax = 1.05 * max(ymax, 1e-6)

    def sx(t: float) -> float:
        return margin + (t - xmin) / (xmax - xmin) * (width - 2 * margin)

    def sy(e: float) -> float:
        return height - margin - e / ymax * (height - 2 * margin)

    def polylines(series: str, style: str) -> list[str]:
        out, seg = [], []
        prev_tau = None
        for r in rows:
            if prev_tau is not None and prev_tau < 1.0 < r.tau:
                if len(seg) >= 2:
                    out.append(_polyline(seg, style))
                seg = []
            seg.append((sx(r.tau), sy(getattr(r, series))))
            prev_tau = r.tau
        if len(seg) >= 2:
            out.append(_polyline(seg, style))
        return out

    def _polyline(points, style) -> str:
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
        return f'<polyline fill="none" {style} points="{coords}"/>'

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
        f'height="{height - 2 * margin}" fill="none" stroke="black"/>',
    ]
    for i in range(6):
        t = xmin + i * (xmax - xmin) / 5
        e = i * ymax / 5
        parts.append(
            f'<line x1="{sx(t):.2f}" y1="{height - margin}" x2="{sx(t):.2f}" '
            f'y2="{height - margin + 6}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{sx(t):.2f}" y="{height - margin + 20}" font-size="12" '
            f'text-anchor="middle">{t:.3g}</text>'
        )
        parts.append(
            f'<line x1="{margin - 6}" y1="{sy(e):.2f}" x2="{margin}" '
            f'y2="{sy(e):.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{margin - 10}" y="{sy(e) + 4:.2f}" font-size="12" '
            f'text-anchor="end">{e:.3g}</text>'
        )
    parts.append(
        f'<text x="{width / 2}" y="{height - 15}" font-size="14" '
        f'text-anchor="middle">tau</text>'
    )
    parts.append(
        f'<text x="18" y="{height / 2}" font-size="14" text-anchor="middle" '
        f'transform="rotate(-90 18 {height / 2})">eps</text>'
    )
    styles = {
        "eps_q": 'stroke="black" stroke-width="1"',
        "eps_r": 'stroke="black" stroke-width="2.5"',
        "eps_rev": 'stroke="black" stroke-width="1.5" stroke-dasharray="6 4"',
    }
    for series, style in styles.items():
        parts.extend(polylines(series, style))
    legend_y = margin + 18
    for series, style in styles.items():
        parts.append(
            f'<line x1="{width - margin - 150}" y1="{legend_y}" '
            f'x2="{width - margin - 110}" y2="{legend_y}" {style}/>'
        )
        parts.append(
            f'<text x="{width - margin - 100}" y="{legend_y + 4}" '
            f'font-size="12">{series}</text>'
        )
        legend_y += 18
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def main():
    cli()


if __name__ == "__main__":
    main()
