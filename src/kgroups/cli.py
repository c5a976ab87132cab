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
from dataclasses import asdict, fields
from pathlib import Path

from . import io as kio
from .dermatology import (
    DERMATOLOGY_URL,
    find_dermatology,
    fetch_dermatology,
    load_dermatology,
    run_dermatology,
)
from .errors import IngestionError, InputError, KGroupsError, NumericInvariantError
from .harness import (
    DESIGNS,
    SWEEP_PARAMS,
    ExperimentSpec,
    check_formats,
    csv_text,
    emit_outputs,
    run_experiment,
)
from .indices import INDEX_NAMES, ContingencyTable, index_report
from .solver import ALGORITHMS, FitConfig, _check_algorithms, fit, fit_config


def _add_fit(sub):
    # a FitConfig flag left out takes the FitConfig default
    p = sub.add_parser("fit", help="cluster a numeric CSV file",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--input", required=True, help="input CSV (optional header)")
    p.add_argument("--k", type=int, required=True, help="number of clusters")
    p.add_argument("--alpha", type=float, help="distance exponent in (0,2]")
    p.add_argument("--mode", choices=ALGORITHMS, default="kgroups_first")
    p.add_argument("--restarts", type=int)
    p.add_argument("--max-passes", type=int)
    p.add_argument("--seed", type=int, dest="rng_seed", metavar="SEED")
    p.add_argument("--truth-last", action="store_true", default=False,
                   help="treat the last column as ground-truth labels")
    p.add_argument("--out-dir", default="kgroups_out")


def _add_bench(sub):
    # a flag left out takes the default of the ExperimentSpec field,
    # run_experiment or emit_outputs parameter it names
    p = sub.add_parser("bench", help="run a replicated mixture benchmark",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--spec", default=None,
                   help="experiment spec file (JSON; TOML on Python 3.11+); "
                        "excludes the flags that set spec fields")
    p.add_argument("--design", choices=DESIGNS)
    p.add_argument("--sweep-param", choices=SWEEP_PARAMS)
    p.add_argument("--sweep-values", type=_parse_list,
                   help="comma-separated, strictly increasing")
    p.add_argument("--algorithms", type=_parse_list)
    p.add_argument("--reps", type=int)
    p.add_argument("--seed", type=int, dest="base_seed", metavar="SEED")
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--alpha", type=float, help="k-groups exponent (default: design policy)")
    p.add_argument("--separation", type=float)
    p.add_argument("--dim", type=int)
    p.add_argument("--restarts", type=int)
    p.add_argument("--max-passes", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--out-dir", default="kgroups_out")
    p.add_argument("--prefix")
    p.add_argument("--format", type=_parse_list, dest="formats", metavar="FORMAT",
                   help="comma-separated subset of csv,json,svg")


def _add_dermatology(sub):
    p = sub.add_parser("dermatology", help="run the dermatology case study")
    p.add_argument("--path", help="local dermatology.data file")
    p.add_argument("--fetch", action="store_true", help="download the file first")
    p.add_argument("--url", default=DERMATOLOGY_URL)
    p.add_argument("--sha256", default=None, help="expected content hash")
    p.add_argument("--algorithms", type=_parse_list, default=tuple(ALGORITHMS))
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=None, help="also write a CSV/JSON report here")


def _add_validate(sub):
    p = sub.add_parser("validate", help="score two label CSVs against each other")
    p.add_argument("--truth", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--json", action="store_true", help="emit one JSON object")


def _parse_list(text) -> list:
    items = [t.strip() for t in text.split(",") if t.strip()]
    if not items:
        raise InputError(f"empty list argument: {text!r}")
    return items


def _given(args, names) -> dict:
    """The parsed flags among `names`; a flag left out is absent."""
    return {name: value for name, value in vars(args).items() if name in names}


def _cmd_fit(args) -> int:
    x, truth = kio.read_data_csv(args.input, truth_last=args.truth_last)
    settings = _given(args, {f.name for f in fields(FitConfig)})
    cfg = fit_config(settings.pop("mode"), **settings)
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
        "converged": result.converged,
        "seed": result.seed,
        "per_restart_within": result.per_restart_within,
        "sizes": result.partition.sizes.tolist(),
    }
    if truth is not None:
        table = ContingencyTable.from_labels(truth, result.partition.labels)
        payload["indices"] = asdict(index_report(table))
    (out / "fit.json").write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    print(f"within={result.within!r} passes={result.passes} moves={result.moves}")
    if not result.converged:
        print(f"warning: the best restart stopped at max_passes={cfg.max_passes} before it converged",
              file=sys.stderr)
    if "indices" in payload:
        print(" ".join(f"{name}={value:.4f}" for name, value in payload["indices"].items()))
    print(f"wrote {out / 'labels.csv'} and {out / 'fit.json'}")
    return 0


def _load_spec_file(path) -> dict:
    text = Path(path).read_bytes()
    toml = str(path).endswith(".toml")
    if toml:
        try:
            import tomllib
        except ModuleNotFoundError as exc:
            raise InputError(
                "TOML spec files need Python 3.11+; use JSON on this interpreter"
            ) from exc
    try:
        raw = tomllib.loads(text.decode()) if toml else json.loads(text)
    except ValueError as exc:  # also UnicodeDecodeError and tomllib.TOMLDecodeError
        raise InputError(f"{path}: not valid {'TOML' if toml else 'JSON'} ({exc})") from exc
    if not isinstance(raw, dict):
        raise InputError(f"{path}: expected a table/object at top level")
    return raw


def _cmd_bench(args) -> int:
    settings = _given(args, {f.name for f in fields(ExperimentSpec)})
    if args.spec:
        if settings:
            raise InputError(f"--spec excludes the spec flags; got {', '.join(settings)}")
        settings = _load_spec_file(args.spec)
    try:
        spec = ExperimentSpec(**settings)
    except (TypeError, ValueError) as exc:  # a missing, unknown or mistyped field
        raise InputError(f"{args.spec or 'bench'}: {exc}") from exc
    check_formats(**_given(args, {"formats"}))  # before any fit runs
    result = run_experiment(spec, **_given(args, {"workers"}))
    paths = emit_outputs(result, args.out_dir, **_given(args, {"formats", "prefix"}))
    for kind in sorted(paths):
        print(f"{kind}: {paths[kind]}")
    return 0


def _cmd_dermatology(args) -> int:
    _check_algorithms(args.algorithms)  # before the data file is read
    path = Path(args.path) if args.path else find_dermatology()
    if args.fetch:
        dest = path if path is not None else Path("data/dermatology.data")
        path = fetch_dermatology(dest, url=args.url)
        print(f"fetched {path}")
    if path is None or not Path(path).is_file():
        raise IngestionError(
            "no dermatology data file found; pass --path, set "
            "KGROUPS_DERMATOLOGY_DATA, or use --fetch"
        )
    sample = load_dermatology(path, expected_sha256=args.sha256)
    reports = run_dermatology(
        sample, algorithms=args.algorithms, restarts=args.restarts, seed=args.seed
    )
    print(f"n={sample.data.shape[0]} attributes={sample.data.shape[1]} classes={int(sample.truth.max()) + 1}")
    columns = ("algorithm", *INDEX_NAMES)
    rows = [{"algorithm": a, **asdict(reports[a])} for a in args.algorithms]
    rounded = [{c: v if c == "algorithm" else f"{v:.4f}" for c, v in row.items()} for row in rows]
    print(csv_text(rounded, columns), end="")
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "dermatology.json").write_text(
            json.dumps({"rows": rows, "seed": args.seed, "restarts": args.restarts},
                       sort_keys=True, indent=2) + "\n"
        )
        (out / "dermatology.csv").write_text(csv_text(rows, columns))
        print(f"wrote {out / 'dermatology.csv'} and {out / 'dermatology.json'}")
    return 0


def _cmd_validate(args) -> int:
    truth = kio.read_labels_csv(args.truth)
    pred = kio.read_labels_csv(args.pred)
    table = ContingencyTable.from_labels(truth, pred)
    report = index_report(table)
    if args.json:
        print(json.dumps(asdict(report), sort_keys=True))
    else:
        print(csv_text([asdict(report)], INDEX_NAMES), end="")
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
    try:
        args = build_parser().parse_args(argv)  # list flags raise InputError
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
