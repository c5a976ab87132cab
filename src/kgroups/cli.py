"""Command-line interface.

Subcommands: fit (cluster a CSV), bench (replicated mixture benchmarks),
dermatology (the UCI case study), validate (score two label files).

Exit codes: 0 success, 2 input error, 3 ingestion error, 4 internal numeric
invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import io as kio
from .dermatology import (
    find_dermatology,
    fetch_dermatology,
    load_dermatology,
    run_dermatology,
)
from .errors import IngestionError, InputError, KGroupsError, NumericInvariantError
from .harness import (
    ALGORITHMS,
    DESIGNS,
    SWEEP_PARAMS,
    ExperimentSpec,
    emit_outputs,
    run_experiment,
)
from .indices import ContingencyTable, index_report
from .solver import fit, fit_mode


def _add_fit(sub):
    p = sub.add_parser("fit", help="cluster a numeric CSV file")
    p.add_argument("--input", required=True, help="input CSV (optional header)")
    p.add_argument("--k", type=int, required=True, help="number of clusters")
    p.add_argument("--alpha", type=float, default=1.0, help="distance exponent in (0,2]")
    p.add_argument("--mode", choices=ALGORITHMS, default="kgroups_first")
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--max-passes", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--truth-last", action="store_true",
                   help="treat the last column as ground-truth labels")
    p.add_argument("--out-dir", default="kgroups_out")


def _add_bench(sub):
    p = sub.add_parser("bench", help="run a replicated mixture benchmark")
    p.add_argument("--spec", help="experiment spec file (JSON; TOML on Python 3.11+)")
    p.add_argument("--design", choices=DESIGNS)
    p.add_argument("--sweep-param", choices=SWEEP_PARAMS)
    p.add_argument("--sweep-values", help="comma-separated, strictly increasing")
    p.add_argument("--algorithms", default=",".join(ALGORITHMS))
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--alpha", type=float, default=None,
                   help="k-groups exponent (default: design policy)")
    p.add_argument("--separation", type=float, default=3.0)
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--restarts", type=int, default=5)
    p.add_argument("--max-passes", type=int, default=50)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out-dir", default="kgroups_out")
    p.add_argument("--prefix", default="experiment")
    p.add_argument("--format", default="csv,json,svg",
                   help="comma-separated subset of csv,json,svg")


def _add_dermatology(sub):
    p = sub.add_parser("dermatology", help="run the dermatology case study")
    p.add_argument("--path", help="local dermatology.data file")
    p.add_argument("--fetch", action="store_true", help="download the file first")
    p.add_argument("--url", default=None)
    p.add_argument("--sha256", default=None, help="expected content hash")
    p.add_argument("--algorithms", default=",".join(ALGORITHMS))
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=None, help="also write a CSV/JSON report here")


def _add_validate(sub):
    p = sub.add_parser("validate", help="score two label CSVs against each other")
    p.add_argument("--truth", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--json", action="store_true", help="emit one JSON object")


def _parse_list(text, cast=str):
    items = [t.strip() for t in text.split(",") if t.strip()]
    if not items:
        raise InputError(f"empty list argument: {text!r}")
    return [cast(t) for t in items]


def _cmd_fit(args) -> int:
    x, truth = kio.read_data_csv(args.input, truth_last=args.truth_last)
    cfg = fit_mode(algorithm=args.mode).config(
        k=args.k,
        alpha=args.alpha,
        restarts=args.restarts,
        max_passes=args.max_passes,
        rng_seed=args.seed,
    )
    result = fit(x, cfg)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    kio.write_labels_csv(out / "labels.csv", result.partition.labels)
    payload = {
        "k": cfg.k,
        "alpha": cfg.alpha,
        "mode": cfg.mode,
        "within": result.within,
        "passes": result.passes,
        "moves": result.moves,
        "seed": result.seed,
        "per_restart_within": result.per_restart_within,
        "sizes": result.partition.sizes.tolist(),
    }
    if truth is not None:
        table = ContingencyTable.from_labels(truth, result.partition.labels)
        payload["indices"] = index_report(table).as_dict()
    (out / "fit.json").write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    print(f"within={result.within!r} passes={result.passes} moves={result.moves}")
    if "indices" in payload:
        idx = payload["indices"]
        print(
            "diag={diag:.4f} kappa={kappa:.4f} rand={rand:.4f} crand={crand:.4f}".format(
                **idx
            )
        )
    print(f"wrote {out / 'labels.csv'} and {out / 'fit.json'}")
    return 0


def _load_spec_file(path) -> dict:
    text = Path(path).read_bytes()
    if str(path).endswith(".toml"):
        try:
            import tomllib
        except ModuleNotFoundError as exc:
            raise InputError(
                "TOML spec files need Python 3.11+; use JSON on this interpreter"
            ) from exc
        return tomllib.loads(text.decode())
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not valid JSON ({exc})") from exc


def _cmd_bench(args) -> int:
    if args.spec:
        raw = _load_spec_file(args.spec)
        if not isinstance(raw, dict):
            raise InputError(f"{args.spec}: expected a table/object at top level")
        raw.setdefault("algorithms", tuple(ALGORITHMS))
        try:
            spec = ExperimentSpec(**{k: (tuple(v) if isinstance(v, list) else v) for k, v in raw.items()})
        except TypeError as exc:
            raise InputError(f"{args.spec}: {exc}") from exc
    else:
        if not (args.design and args.sweep_param and args.sweep_values):
            raise InputError("bench needs --spec or all of --design/--sweep-param/--sweep-values")
        spec = ExperimentSpec(
            design=args.design,
            sweep_param=args.sweep_param,
            sweep_values=tuple(_parse_list(args.sweep_values, float)),
            algorithms=tuple(_parse_list(args.algorithms)),
            reps=args.reps,
            base_seed=args.seed,
            n=args.n,
            k=args.k,
            alpha=args.alpha,
            separation=args.separation,
            dim=args.dim,
            restarts=args.restarts,
            max_passes=args.max_passes,
        )
    formats = tuple(_parse_list(args.format))
    result = run_experiment(spec, workers=max(1, args.workers))
    paths = emit_outputs(result, args.out_dir, formats=formats, prefix=args.prefix)
    for kind in sorted(paths):
        print(f"{kind}: {paths[kind]}")
    return 0


def _cmd_dermatology(args) -> int:
    path = Path(args.path) if args.path else find_dermatology()
    if args.fetch:
        dest = path if path is not None else Path("data/dermatology.data")
        kwargs = {"url": args.url} if args.url else {}
        path = fetch_dermatology(dest, **kwargs)
        print(f"fetched {path}")
    if path is None or not Path(path).is_file():
        raise IngestionError(
            "no dermatology data file found; pass --path, set "
            "KGROUPS_DERMATOLOGY_DATA, or use --fetch"
        )
    sample = load_dermatology(path, expected_sha256=args.sha256)
    algorithms = _parse_list(args.algorithms)
    reports = run_dermatology(
        sample, algorithms=algorithms, restarts=args.restarts, seed=args.seed
    )
    print(f"n={sample.data.shape[0]} attributes={sample.data.shape[1]} classes={int(sample.truth.max()) + 1}")
    print("algorithm,diag,kappa,rand,crand")
    for name in algorithms:
        r = reports[name]
        print(f"{name},{r.diag:.4f},{r.kappa:.4f},{r.rand:.4f},{r.crand:.4f}")
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        rows = [{"algorithm": a, **reports[a].as_dict()} for a in algorithms]
        (out / "dermatology.json").write_text(
            json.dumps({"rows": rows, "seed": args.seed, "restarts": args.restarts},
                       sort_keys=True, indent=2) + "\n"
        )
        lines = ["algorithm,diag,kappa,rand,crand"] + [
            f"{a},{reports[a].diag!r},{reports[a].kappa!r},{reports[a].rand!r},{reports[a].crand!r}"
            for a in algorithms
        ]
        (out / "dermatology.csv").write_text("\n".join(lines) + "\n")
        print(f"wrote {out / 'dermatology.csv'} and {out / 'dermatology.json'}")
    return 0


def _cmd_validate(args) -> int:
    truth = kio.read_labels_csv(args.truth)
    pred = kio.read_labels_csv(args.pred)
    table = ContingencyTable.from_labels(truth, pred)
    report = index_report(table)
    if args.json:
        print(json.dumps(report.as_dict(), sort_keys=True))
    else:
        print("diag,kappa,rand,crand")
        print(f"{report.diag!r},{report.kappa!r},{report.rand!r},{report.crand!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgroups",
        description="Energy-distance clustering (k-groups) and its benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_fit(sub)
    _add_bench(sub)
    _add_dermatology(sub)
    _add_validate(sub)
    return parser


_COMMANDS = {
    "fit": _cmd_fit,
    "bench": _cmd_bench,
    "dermatology": _cmd_dermatology,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except NumericInvariantError as exc:
        print(f"numeric invariant violation: {exc}", file=sys.stderr)
        return 4
    except IngestionError as exc:
        print(f"ingestion error: {exc}", file=sys.stderr)
        return 3
    except (InputError, KGroupsError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
