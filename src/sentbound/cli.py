"""Command-line interface: train, segment, eval, synth.

Exit codes: 0 success, 1 usage error, 2 data or contract error
(including a path that cannot be read or written, and a text input that
is not UTF-8, as every one must be), 3 numeric failure during training.
An optional line-oriented "key = value" config file sets the same
options as the flags: each line whose key is one of the command's options
parses as that flag, placed before the command line's own flags, so the
command line wins. A key that is another command's option is skipped,
so one file can serve every command; any other key is a usage error.
A line whose first non-blank character is '#' is a comment, and so is
the rest of a line from a '#' that follows whitespace; any other '#' is
part of the value (corpus = a#b names a#b).
Every run logs its fully resolved configuration.

`segment` writes --output only after a successful prediction. It reads
plain tokens, which carry no prosody and no PoS tags. Without --alpha
it therefore segments with the lexical model alone (alpha 1.0) and
warns when the stored alpha is below 1; an explicit --alpha below 1 is
a data error. It also warns when the model was trained on PoS tags,
since every token gets the unknown-tag row.
`train` and `eval` warn when --embeddings is given to a feature set
without an embeddings part, and do not read the file. They also warn
when --alpha is given to a feature set with one family, and name the
alpha used instead (1 for lexical features alone, 0 for prosody alone).
`eval` warns that a train/test run does not use --folds.
"""

import argparse
import logging
import re
import sys
from dataclasses import asdict, fields
from pathlib import Path

from .corpus import (
    LABEL_B,
    LabeledText,
    PLACEHOLDER_TAG,
    SynthSpec,
    corpus_checksum,
    labels_from_punctuation,
    read_corpus,
    synth_generate,
    text_lines,
    write_corpus,
)
from .errors import ContractError, ModelFileError, NumericError, ParseError
from .evaluation import (
    EvalConfig,
    cross_validated_eval,
    machine_line,
    render_table,
    resolve_alpha,
    robustness_eval,
    train_segmenter,
)
from .features import load_embeddings
from .model import Hyperparams, load_model, parse_feature_set, save_model
from .numerics.network import VARIANTS
from .training import TrainConfig

log = logging.getLogger("sentbound")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises usage errors instead of exiting."""

    def error(self, message):
        raise _UsageError(message)


# ------------------------------------------------------------- config file


def load_config_file(path):
    """Parse "key = value" lines into a dict of strings; a '#' at the start
    of a line or after whitespace starts a comment."""
    values = {}
    for line_no, raw in enumerate("".join(text_lines(path)).splitlines(), 1):
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError("expected 'key = value'", str(path), line_no)
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


# ------------------------------------------------------------------ parser


def _add_common(parser):
    parser.add_argument("--seed", type=int, default=0, help="master random seed")
    parser.add_argument("--config", type=str, default=None,
                        help="key = value config file; flags take precedence")
    parser.add_argument("--log-level", type=str, default="warning",
                        choices=["debug", "info", "warning", "error"])


def _add_model_knobs(parser):
    parser.add_argument("--variant", default="rcnn", choices=VARIANTS)
    parser.add_argument("--features", default=None,
                        help="embeddings|pos|prosody and + combinations, or all")
    parser.add_argument("--epochs", type=int, default=20)
    parser.add_argument("--batch-size", type=int, default=8)
    parser.add_argument("--bucket-width", type=int, default=50)
    parser.add_argument("--eta", type=float, default=0.001,
                        help="learning rate (paper grid: 0.01, 0.003, 0.001)")
    parser.add_argument("--conv-filters", type=int, default=None,
                        help="override conv filter count for both models")
    parser.add_argument("--rec-units", type=int, default=None,
                        help="override recurrent units for both models")
    parser.add_argument("--alpha", type=float, default=None,
                        help="fix the fusion weight instead of tuning")


def build_parser():
    """The top-level parser and its subcommand parsers by name."""
    parser = _Parser(prog="sentbound",
                     description="Sentence boundary detection for speech transcripts")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p_train = sub.add_parser("train", help="train a segmenter and save it")
    p_train.add_argument("--corpus", required=True, help="tsv corpus file or directory")
    p_train.add_argument("--embeddings", default=None,
                         help="pretrained word embedding file")
    p_train.add_argument("--out", required=True, help="model output path")
    _add_model_knobs(p_train)
    _add_common(p_train)
    p_train.set_defaults(func=cmd_train)

    p_seg = sub.add_parser("segment", help="insert boundaries into a token file")
    p_seg.add_argument("--model", required=True)
    p_seg.add_argument("--input", required=True, help="whitespace token file")
    p_seg.add_argument("--emit", default="text", choices=["text", "tsv"])
    p_seg.add_argument("--alpha", type=float, default=None,
                       help="fusion weight (1.0 = lexical only); token input has "
                            "no prosody, so the default is 1.0 with a warning "
                            "when the stored weight is below 1")
    p_seg.add_argument("--output", default=None, help="write here instead of stdout")
    _add_common(p_seg)
    p_seg.set_defaults(func=cmd_segment)

    p_eval = sub.add_parser("eval", help="cross-validated or cross-corpus evaluation")
    p_eval.add_argument("--corpus", default=None, help="corpus for k-fold evaluation")
    p_eval.add_argument("--train-corpus", default=None)
    p_eval.add_argument("--test-corpus", default=None)
    p_eval.add_argument("--embeddings", default=None)
    p_eval.add_argument("--folds", type=int, default=None, help="folds of a --corpus run (5)")
    p_eval.add_argument("--report", default=None,
                        help="basename for .txt and .tsv report files")
    _add_model_knobs(p_eval)
    _add_common(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_synth = sub.add_parser("synth", help="generate a synthetic corpus")
    p_synth.add_argument("--texts", type=int, default=None)
    p_synth.add_argument("--mean-sentence-len", type=float, default=13.0)
    p_synth.add_argument("--cue-token", default="então")
    p_synth.add_argument("--cue-reliability", type=float, default=1.0)
    p_synth.add_argument("--cue-offset", type=int, default=0)
    p_synth.add_argument("--prosody-cue-strength", type=float, default=0.0)
    p_synth.add_argument("--vocab-size", type=int, default=50)
    p_synth.add_argument("--sentences-per-text", type=float, default=8.0)
    p_synth.add_argument("--name", default="synth")
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.add_argument("--from-manifest", default=None,
                         help="regenerate from a previously written manifest")
    _add_common(p_synth)
    p_synth.set_defaults(func=cmd_synth)
    return parser, dict(sub.choices)


def _resolved(args):
    skip = {"func", "command"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _hyperparams(args):
    shared = {"eta": args.eta}
    for key in ("conv_filters", "rec_units"):
        if getattr(args, key) is not None:
            shared[key] = getattr(args, key)
    return Hyperparams.lexical(**shared), Hyperparams.prosodic(**shared)


def _eval_config(args, feature_set, folds=EvalConfig.folds):
    lex_hp, pros_hp = _hyperparams(args)
    word_table = None
    if args.embeddings and not feature_set.words:
        log.warning("feature set %r has no embeddings part: %s is not used",
                    feature_set.name, args.embeddings)
    elif args.embeddings:
        word_table = load_embeddings(args.embeddings)
    config = EvalConfig(
        train=TrainConfig(
            epochs=args.epochs,
            batch_size=args.batch_size,
            bucket_width=args.bucket_width,
            seed=args.seed,
        ),
        lexical_hp=lex_hp,
        prosodic_hp=pros_hp,
        folds=folds,
        alpha=args.alpha,
        word_table=word_table,
    )
    if args.alpha is not None and not (feature_set.has_lexical and feature_set.prosody):
        log.warning("feature set %r has one family: --alpha %g is not used, alpha is %g",
                    feature_set.name, args.alpha, resolve_alpha(feature_set, config, ()))
    return config


def _write_manifest(path, entries):
    lines = [f"{k} = {v}" for k, v in entries.items()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _epoch_log(path):
    """Empty the file at path; return a train_model log callback appending to it."""
    path.write_text("", encoding="utf-8")

    def write(epoch, mean_loss, elapsed_ms):
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"{epoch}\t{mean_loss!r}\t{elapsed_ms:.1f}\n")

    return write


# ---------------------------------------------------------------- commands


def cmd_train(args):
    corpus = read_corpus(args.corpus)
    if args.features is None:
        feature_set = parse_feature_set("all" if corpus.has_prosody else "embeddings+pos")
    else:
        feature_set = parse_feature_set(args.features)
    if not feature_set.has_lexical:
        raise _UsageError("train needs a lexical feature (prosody-only is eval-only)")
    config = _eval_config(args, feature_set)
    out = Path(args.out)
    kinds = ("lexical", "prosodic") if feature_set.prosody else ("lexical",)
    logs = {k: _epoch_log(out.with_suffix(out.suffix + f".{k}.log")) for k in kinds}
    segmenter = train_segmenter(corpus, args.variant, feature_set, config, logs=logs)
    save_model(segmenter, out)
    _write_manifest(
        out.with_suffix(out.suffix + ".manifest"),
        {
            **_resolved(args),
            "features": feature_set.name,
            "alpha": segmenter.alpha,
            "corpus_checksum": corpus_checksum(corpus),
        },
    )
    log.info("wrote model to %s (alpha=%s)", out, segmenter.alpha)
    return EXIT_OK


def _read_segment_input(path):
    raw = "".join(text_lines(path)).split()
    if not raw:
        return None
    tokens, _ = labels_from_punctuation(raw)
    return LabeledText(
        id=Path(path).stem,
        tokens=tokens,
        pos_tags=[PLACEHOLDER_TAG] * len(tokens),
        labels=["NB"] * len(tokens),
    )


def cmd_segment(args):
    segmenter = load_model(args.model)
    text = _read_segment_input(args.input)
    out = ""
    if text is not None:
        alpha = args.alpha
        if alpha is None and segmenter.alpha < 1.0:
            log.warning("token input has no prosody: segmenting with the lexical "
                        "model alone (alpha 1.0, stored alpha %g)", segmenter.alpha)
            alpha = 1.0
        if segmenter.lexical.tag_tokens is not None:  # every input tag is <notag>
            log.warning("the model was trained with PoS tags but the input has "
                        "none; every token gets the unknown-tag row")
        labels, fused = segmenter.predict_probs(text, alpha=alpha)
        rows = zip(text.tokens, labels, fused)
        if args.emit == "text":
            out = " ".join(token + " ." * (label == LABEL_B) for token, label, _ in rows) + "\n"
        else:
            out = "".join(f"{token}\t{row[1]:.6f}\t{label}\n" for token, label, row in rows)
    if args.output:  # written only now, so a failed run leaves the file as it was
        Path(args.output).write_text(out, encoding="utf-8")
    else:
        sys.stdout.write(out)
    return EXIT_OK


def cmd_eval(args):
    if bool(args.corpus) == bool(args.train_corpus or args.test_corpus):
        raise _UsageError("pass either --corpus or the --train-corpus/--test-corpus pair")
    feature_set = parse_feature_set(args.features or "embeddings+pos")
    if args.corpus:
        corpus = read_corpus(args.corpus)
        folds = EvalConfig.folds if args.folds is None else args.folds
        config = _eval_config(args, feature_set, folds=folds)
        report = cross_validated_eval(corpus, args.variant, feature_set, config)
    else:
        if not (args.train_corpus and args.test_corpus):
            raise _UsageError("--train-corpus and --test-corpus go together")
        if args.folds is not None:
            log.warning("a train/test run has no folds: --folds %d is not used", args.folds)
        train_c = read_corpus(args.train_corpus)
        test_c = read_corpus(args.test_corpus)
        config = _eval_config(args, feature_set)
        report = robustness_eval(
            train_c, test_c, config, variant=args.variant, feature_set=feature_set
        )
    table = render_table(report)
    line = machine_line(report)
    print(table)
    print(line)
    if args.report:
        Path(args.report + ".txt").write_text(table + "\n", encoding="utf-8")
        Path(args.report + ".tsv").write_text(line + "\n", encoding="utf-8")
    return EXIT_OK


def cmd_synth(args):
    if args.from_manifest:
        manifest = load_config_file(args.from_manifest)
        try:
            spec = SynthSpec(**{f.name: f.type(manifest[f.name]) for f in fields(SynthSpec)})
        except (KeyError, ValueError) as exc:
            raise ParseError(f"missing or malformed entry: {exc}", args.from_manifest) from exc
    else:
        if args.texts is None or args.texts < 1:
            raise _UsageError("--texts must be a positive integer")
        spec = SynthSpec(
            n_texts=args.texts,
            mean_sentence_len=args.mean_sentence_len,
            boundary_cue_token=args.cue_token,
            cue_reliability=args.cue_reliability,
            prosody_cue_strength=args.prosody_cue_strength,
            vocab_size=args.vocab_size,
            seed=args.seed,
            cue_offset=args.cue_offset,
            mean_sentences_per_text=args.sentences_per_text,
            name=args.name,
        )
    corpus = synth_generate(spec)
    out = Path(args.out)
    write_corpus(corpus, out, one_file_per_text=True)
    _write_manifest(out / "synth.manifest", asdict(spec))
    log.info("wrote %d texts to %s", len(corpus), out)
    return EXIT_OK


# -------------------------------------------------------------------- main


def _config_flags(path, commands, command):
    """The file's lines whose key is an option of `command`, as --option=value;
    a key that is no command's option is an error."""
    options = {name: {a.dest: a.option_strings[0] for a in p._actions
                      if a.option_strings and a.dest != "help"}
               for name, p in commands.items()}
    values = load_config_file(path)
    unknown = set(values).difference(*options.values())
    if unknown:
        raise _UsageError(f"unknown config keys: {sorted(unknown)}")
    return [f"{options[command][k]}={v}" for k, v in values.items() if k in options[command]]


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            parser.print_help()
            return EXIT_USAGE
        if args.config:
            # the file's flags go before the command line's, which win
            at = argv.index(args.command) + 1
            argv[at:at] = _config_flags(args.config, commands, args.command)
            args = parser.parse_args(argv)
        logging.basicConfig(level=args.log_level.upper())
        log.info("resolved config: %s", _resolved(args))
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, ContractError, ModelFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
