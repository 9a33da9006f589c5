"""Command-line entry point: gen | pretrain | embed | probe | gradcheck | selftest.

Exit codes: 0 success, 1 validation error (bad inputs or flags), 2 runtime
failure, a path that cannot be read or written among them. Every path is an
explicit flag and every run with a fixed --seed writes byte-identical outputs.
"""

from __future__ import annotations

import argparse
import sys

from .datagen import GenConfig, generate_corpus, verify_marginal_equality
from .errors import RuntimeFailure, ValidationError
from .gradcheck import PASS_BOUND, format_gradcheck_report, run_gradcheck
from .inference import (
    DEFAULT_R_VIEWS,
    average_mil_embed,
    embed_banks,
    embed_dataset,
    export_embeddings_csv,
    load_embeddings,
    save_embeddings,
)
from .probe import (
    align_labels,
    bootstrap_eval,
    format_report_table,
    load_labels_csv,
    write_report_csv,
)
from .selfcheck import run_selftest
from .training import (load_model, load_train_config, pretrain,
                       train_config_from_values)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="slidessl",
        description="Self-supervised slide representations from tile-embedding "
                    "banks. Tile coordinates are binned on a 224-pixel grid.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = sub.add_parser("gen", help="generate a synthetic corpus of banks")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--slides", type=int, required=True, help="number of slides")
    gen.add_argument("--classes", type=int, default=2, help="classes (default 2)")
    gen.add_argument("--tiles", type=int, default=256,
                     help="tiles per slide (default 256)")
    gen.add_argument("--augs", type=int, default=50,
                     help="augmentation slices per bank, K (default 50)")
    gen.add_argument("--dim", type=int, default=16,
                     help="feature dimension (default 16)")
    gen.add_argument("--extent", type=int, default=4096,
                     help="coordinate span in pixels (default 4096)")
    gen.add_argument("--prototypes", type=int, default=2,
                     help="tile prototypes (default 2)")
    gen.add_argument("--nuisance", type=float, default=0.0,
                     help="per-slide nuisance vector norm (default 0)")
    gen.add_argument("--aug-noise", type=float, default=0.1,
                     help="noise added to augmented slices (default 0.1)")
    gen.add_argument("--tile-noise", type=float, default=0.3,
                     help="per-tile feature noise (default 0.3)")
    gen.add_argument("--aug-strength", type=float, default=0.3,
                     help="rotation angle of augmentation transforms (default 0.3)")
    gen.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    gen.add_argument("--verify", action="store_true",
                     help="also print the class-marginal equality statistic")

    pre = sub.add_parser("pretrain", help="contrastive pretraining over banks")
    pre.add_argument("--banks", required=True, help="directory of .gsb banks")
    pre.add_argument("--checkpoint", required=True, help="checkpoint output path")
    pre.add_argument("--config", help="key=value config file; flags override it")
    pre.add_argument("--epochs", type=int, help="training epochs (default 1000)")
    pre.add_argument("--tiles", type=int, help="tiles per view, T (default 5)")
    pre.add_argument("--batch", type=int, help="slides per batch (default 16)")
    pre.add_argument("--tau", type=float,
                     help="contrastive temperature (default 0.5)")
    pre.add_argument("--lr", type=float, help="Adam learning rate (default 1e-3)")
    pre.add_argument("--no-shared-aug", action="store_true",
                     help="sample each tile's augmentation slice independently")
    pre.add_argument("--no-slide-aug", action="store_true",
                     help="disable slide-level geometric augmentation")
    pre.add_argument("--seed", type=int, help="random seed (default 0)")
    pre.add_argument("--resume", action="store_true",
                     help="continue from the checkpoint if it exists")
    pre.add_argument("--report", help="optional JSON training report path")
    pre.add_argument("--log", help="per-epoch loss CSV "
                                   "(default: alongside the checkpoint)")

    emb = sub.add_parser("embed", help="embed every bank with a trained model")
    emb.add_argument("--banks", required=True, help="directory of .gsb banks")
    emb.add_argument("--checkpoint", help="trained checkpoint "
                                          "(not needed with --avgmil)")
    emb.add_argument("--out", required=True, help="embedding file (.gse)")
    emb.add_argument("--csv", help="also export the matrix as CSV")
    emb.add_argument("--views", type=int, default=DEFAULT_R_VIEWS,
                     help="views averaged per slide, R (default 50)")
    emb.add_argument("--tiles", type=int,
                     help="tiles per view, T (default: value the checkpoint "
                          "was trained with, normally 5)")
    emb.add_argument("--avgmil", action="store_true",
                     help="mean-tile baseline instead of the trained model")
    emb.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    emb.add_argument("--threads", type=int,
                     help="at least 1; accepted and ignored: slides embed one "
                          "at a time")

    prb = sub.add_parser("probe", help="linear probe embeddings against labels")
    prb.add_argument("--embeddings", required=True, help="embedding file (.gse)")
    prb.add_argument("--labels", required=True, help="slide_id,label CSV")
    prb.add_argument("--out", help="report CSV path")
    prb.add_argument("--budget", nargs="+", default=["all"],
                     help="training label budgets: 'all', a fraction like "
                          "0.25, or a count like 50 (default: all)")
    prb.add_argument("--splits", type=int, default=10,
                     help="stratified train/test splits (default 10)")
    prb.add_argument("--l2", type=float, default=1e-3,
                     help="probe regularization (default 1e-3)")
    prb.add_argument("--norm", choices=("l2", "standard"), default="l2",
                     help="embedding normalization (default l2)")
    prb.add_argument("--task", default="task", help="task name in the report")
    prb.add_argument("--seed", type=int, default=0, help="random seed (default 0)")

    grd = sub.add_parser(
        "gradcheck",
        help="finite-difference check of every backward pass (bound 1e-4)")
    grd.add_argument("--instances", type=int, default=20,
                     help="random instances per op (default 20)")
    grd.add_argument("--seed", type=int, default=0, help="random seed (default 0)")

    sub.add_parser("selftest", help="run the built-in property checks")
    return parser


def _parse_budget(text: str):
    if text == "all":
        return "all"
    try:
        return int(text) if text.isdigit() else float(text)
    except ValueError:
        raise ValidationError(f"budget must be 'all', a fraction, or a count, "
                              f"got '{text}'") from None


def cmd_gen(args) -> int:
    cfg = GenConfig(
        n_slides=args.slides, n_classes=args.classes, n_tiles=args.tiles,
        n_augs=args.augs, feat_dim=args.dim, grid_extent=args.extent,
        n_prototypes=args.prototypes, nuisance_strength=args.nuisance,
        aug_noise=args.aug_noise, tile_noise=args.tile_noise,
        aug_strength=args.aug_strength, seed=args.seed)
    out = generate_corpus(cfg, args.out)
    print(f"wrote {out['n_slides']} banks to {out['out_dir']}")
    if args.verify:
        print(f"marginal-equality statistic: {verify_marginal_equality(args.out):.3f}")
    return 0


def cmd_pretrain(args) -> int:
    base = load_train_config(args.config) if args.config else None
    flags = {"epochs": args.epochs, "tiles": args.tiles,
             "batch_size": args.batch, "temperature": args.tau,
             "seed": args.seed, "adam.lr": args.lr,
             "shared_aug": False if args.no_shared_aug else None,
             "slide_aug": False if args.no_slide_aug else None}
    cfg = train_config_from_values(
        {k: v for k, v in flags.items() if v is not None}, base)
    report = pretrain(cfg, args.banks, args.checkpoint,
                      resume=args.resume, log_path=args.log,
                      report_path=args.report)
    if report["final_loss"] is None:
        ran = f"no epoch ran: the checkpoint is at epoch {report['epochs']}"
    else:
        ran = (f"trained {report['epochs']} epochs over {report['banks']} banks; "
               f"final loss {report['final_loss']:.4f}")
    print(f"{ran}; checkpoint {args.checkpoint}")
    return 0


def cmd_embed(args) -> int:
    if args.threads is not None and args.threads < 1:
        raise ValidationError(f"embed needs at least 1 thread, got {args.threads}")
    if args.avgmil:
        ids, matrix, failures = embed_banks(
            args.banks, lambda _, bank: average_mil_embed(bank), dim=0)
    else:
        if not args.checkpoint:
            raise ValidationError("embed needs --checkpoint (or --avgmil)")
        model, _ = load_model(args.checkpoint)
        ids, matrix, failures = embed_dataset(
            args.banks, model, tiles=args.tiles, r_views=args.views,
            seed=args.seed)

    save_embeddings(args.out, ids, matrix)
    if args.csv:
        export_embeddings_csv(args.csv, ids, matrix)
    print(f"embedded {len(ids)} slides -> {args.out}")
    for sid, msg in failures:
        print(f"failed: {sid}: {msg}", file=sys.stderr)
    if failures:
        raise RuntimeFailure(f"{len(failures)} slide(s) failed to embed")
    return 0


def cmd_probe(args) -> int:
    ids, matrix = load_embeddings(args.embeddings)
    labels = align_labels(ids, load_labels_csv(args.labels))
    reports = []
    for raw in args.budget:
        reports.append(bootstrap_eval(
            matrix, labels, budget=_parse_budget(raw), splits=args.splits,
            seed=args.seed, l2=args.l2, normalization=args.norm,
            task=args.task))
    if args.out:
        write_report_csv(args.out, reports)
    print(format_report_table(reports))
    return 0


def cmd_gradcheck(args) -> int:
    results = run_gradcheck(n_instances=args.instances, seed=args.seed)
    print(format_gradcheck_report(results))
    return 0 if all(err < PASS_BOUND for err in results.values()) else 2


def cmd_selftest(_args) -> int:
    return 0 if run_selftest() else 2


COMMANDS = {
    "gen": cmd_gen,
    "pretrain": cmd_pretrain,
    "embed": cmd_embed,
    "probe": cmd_probe,
    "gradcheck": cmd_gradcheck,
    "selftest": cmd_selftest,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeFailure, OSError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
