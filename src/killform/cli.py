"""Command-line front end: group specs in, per-class reports out.

Subcommands
-----------
survey       one row per nontrivial conjugacy class: size, character value,
             reality, irreducibility, lambda_max, signature, nondegeneracy
decompose    eigenvalue-tagged irreducible decomposition of one class module
casimir      the Casimir of a nondegenerate class form, as an exact rational
             combination of e and class sums
spectrogram  (class, eigenvalue, multiplicity) rows for every class

survey and spectrogram analyze one class of each inverse pair {C, C^-1}; the
other takes the same row under its own label.

Reports are byte-stable: equal inputs and flags produce equal output bytes
(class order is the deterministic group order; no timestamps).  Conjecture
warnings are findings, not failures: they never change the exit code.
Exit codes: 0 clean, 2 build/compute failure, 4 partial report (some class
rows carry an error marker).
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

from .characters import CharTable, character_table, eigenspace_decomposition, integrality_audit
from .errors import ElementNotInGroup, KillformError, SingularMatrix
from .groups import DEFAULT_ELEMENT_CAP, ConjClass, Group, build_named_group
from .killing import MATRIX_CAP, analyze, casimir, killing_matrix
from .perms import Perm

_LABEL_RE = re.compile(r"^(\d+)([A-Za-z]+)$")
_CYCLE_NAME_RE = re.compile(r"^(\d+(?:-\d+)*)-cycles$")
_TYPE_RE = re.compile(r"^\d+(?:,\d+)+$")


def fmt_value(value: float, integral: bool) -> str:
    return str(round(value)) if integral else f"{value:.6f}"


def _fmt_bool(b: bool) -> str:
    return "true" if b else "false"


def nontrivial_classes(G: Group) -> list[ConjClass]:
    return [c for c in G.classes() if not c.is_trivial()]


def _class_containing(G: Group, rep: Perm, what: str) -> ConjClass:
    try:
        C = G.classes()[G.class_index_of(rep)]
    except ElementNotInGroup:
        C = None
    if C is None or C.is_trivial():
        raise ValueError(f"{what} is not in a nontrivial class of {G.name}")
    return C


def resolve_class(G: Group, selector: str) -> ConjClass:
    """An ATLAS-style label (2A), a representative ((1,2)(3,4) or digits 1234),
    a cycle type (2,1,1), or a name like 2-cycles / 2-2-cycles."""
    text = selector.strip()
    classes = nontrivial_classes(G)
    m = _LABEL_RE.match(text)
    if m:
        wanted = f"{m.group(1)}{m.group(2).upper()}"
        for c in classes:
            if c.label == wanted:
                return c
        raise ValueError(f"{G.name} has no class labelled {wanted}")

    cycle_type = None
    if text.startswith("("):
        return _class_containing(G, Perm.parse(text, G.degree), text)
    elif _CYCLE_NAME_RE.match(text):
        cycle_type = tuple(int(p) for p in _CYCLE_NAME_RE.match(text).group(1).split("-"))
    elif _TYPE_RE.match(text):
        cycle_type = tuple(int(p) for p in text.split(","))
    elif text.isdigit():
        # "4" means the 4-cycles; "1234" spells out the points of one cycle
        if int(text) <= G.degree and len(text) <= 2:
            cycle_type = (int(text),)
        else:
            rep = Perm.parse("(" + ",".join(text) + ")", G.degree)
            return _class_containing(G, rep, f"cycle ({text})")
    else:
        raise ValueError(f"unrecognized class selector {selector!r}")

    full = tuple(sorted(cycle_type, reverse=True))
    pad = G.degree - sum(full)
    if pad < 0:
        raise ValueError(f"cycle type {full} does not fit degree {G.degree}")
    full = full + (1,) * pad
    hits = [c for c in classes if c.representative.cycle_type() == full]
    if not hits:
        raise ValueError(f"{G.name} has no class of cycle type {selector!r}")
    if len(hits) > 1:
        labels = ", ".join(c.label for c in hits)
        raise ValueError(f"cycle type {selector!r} is ambiguous in {G.name}: use a label ({labels})")
    return hits[0]


# ------------------------------------------------------------------- reports

SURVEY_COLUMNS = ["class", "size", "chi", "real", "irreducible", "components",
                  "lambda_max", "sig_pos", "sig_neg", "sig_zero", "nondegenerate"]


@dataclass
class SurveyRow:
    class_label: str
    class_size: int
    chi_on_class: int | None = None
    is_real: bool | None = None
    irreducible: bool | None = None
    components: int | None = None
    lambda_max: int | None = None
    signature: tuple | None = None
    nondegenerate: bool | None = None
    error: str | None = None

    def cells(self) -> list[str]:
        if self.error is not None:
            return [self.class_label, str(self.class_size), f"ERROR({self.error})"] + [""] * 8
        p, n, z = self.signature
        return [self.class_label, str(self.class_size), str(self.chi_on_class),
                _fmt_bool(self.is_real), _fmt_bool(self.irreducible), str(self.components),
                str(self.lambda_max), str(p), str(n), str(z), _fmt_bool(self.nondegenerate)]


@dataclass
class Report:
    command: str
    group_name: str
    group_order: int
    seed: int
    columns: list = field(default_factory=list)
    rows: list = field(default_factory=list)          # lists of cell strings
    blocks: list = field(default_factory=list)        # extra markdown lines
    warnings: list = field(default_factory=list)
    exit_code: int = 0

    def _json_rows(self):
        return [dict(zip(self.columns, r)) for r in self.rows]

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return json.dumps({
                "command": self.command,
                "group": self.group_name,
                "order": self.group_order,
                "seed": self.seed,
                "rows": self._json_rows(),
                "notes": self.blocks,
                "warnings": self.warnings,
            }, indent=2) + "\n"
        if fmt == "csv":
            out = [f"# killform {self.command}: {self.group_name} (order {self.group_order})",
                   f"# seed: {self.seed}"]
            out.append(",".join(self.columns))
            out.extend(",".join(r) for r in self.rows)
            out.extend(f"# note: {b}" for b in self.blocks)
            out.extend(f"# warning: {w}" for w in self.warnings)
            return "\n".join(out) + "\n"
        # markdown
        out = [f"# killform {self.command}: {self.group_name} (order {self.group_order})",
               "", f"seed: {self.seed}", ""]
        if self.rows:
            out.append("| " + " | ".join(self.columns) + " |")
            out.append("|" + "---|" * len(self.columns))
            out.extend("| " + " | ".join(r) + " |" for r in self.rows)
        else:
            out.append("(no nontrivial classes)")
        if self.blocks:
            out.append("")
            out.extend(self.blocks)
        if self.warnings:
            out.append("")
            out.extend(f"warning: {w}" for w in self.warnings)
        return "\n".join(out) + "\n"


def _survey_one(G: Group, C: ConjClass, matrix_cap: int, seed: int) -> SurveyRow:
    try:
        K = killing_matrix(G, C, cap=matrix_cap)
        a = analyze(K, seed=seed).analysis
        return SurveyRow(
            class_label=C.label, class_size=C.size, chi_on_class=a.chi_on_class,
            is_real=a.is_real, irreducible=a.component_count == 1,
            components=a.component_count, lambda_max=a.lambda_max,
            signature=a.signature.astuple(), nondegenerate=a.nondegenerate)
    except KillformError as exc:
        return SurveyRow(class_label=C.label, class_size=C.size,
                         error=type(exc).__name__)


def _conjecture_warnings(G: Group, classes: list, rows: list) -> list:
    out = []
    for C, row in zip(classes, rows):
        if row.error is not None:
            continue
        if C.element_order > 2 and not row.irreducible:
            out.append(f"conjecture violation: non-involution class {row.class_label} of "
                       f"{G.name} has a reducible Killing form ({row.components} components)")
        if not row.is_real:
            continue
        if not row.nondegenerate:
            out.append(f"conjecture violation: real class {row.class_label} of "
                       f"{G.name} has a degenerate Killing form")
        p, n, z = row.signature
        if C.element_order == 2 and (n or z):
            out.append(f"conjecture violation: involution class {row.class_label} of "
                       f"{G.name} is not positive definite (signature {row.signature})")
        if C.element_order > 2 and p != n:
            out.append(f"conjecture violation: real class {row.class_label} of "
                       f"{G.name} has nonzero signature {row.signature}")
    return out


def _per_class(fn, relabel, G: Group, classes: list, jobs: int) -> list:
    """[fn(C) for C in classes], on `jobs` threads when jobs > 1, calling fn
    once per inverse pair.  Inversion maps C onto C^-1 and carries one form
    onto the other, K_{C^-1}(a^-1, b^-1) = |Z(ba) ∩ C| = K_C(a, b), so the
    later class C of a pair takes relabel(r, C) of its partner's result r.
    relabel returns None when r is an error, and C then runs on its own."""
    def run(todo: list) -> dict:
        if jobs > 1:
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                return dict(zip(todo, pool.map(fn, todo)))
        return {C: fn(C) for C in todo}

    partner, seen, all_classes = {}, set(), G.classes()
    for C in classes:
        inverse = all_classes[G.class_index_of(C.representative.inverse())]
        if inverse in seen:
            partner[C] = inverse
        seen.add(C)
    results = run([C for C in classes if C not in partner])
    for C, inverse in partner.items():
        row = relabel(results[inverse], C)
        if row is not None:
            results[C] = row
    results.update(run([C for C in classes if C not in results]))
    return [results[C] for C in classes]


def cmd_survey(group_spec: str, cap: int = DEFAULT_ELEMENT_CAP,
               matrix_cap: int = MATRIX_CAP, jobs: int = 1, seed: int = 0) -> Report:
    G = build_named_group(group_spec, cap=cap)
    classes = nontrivial_classes(G)
    rows = _per_class(lambda C: _survey_one(G, C, matrix_cap, seed),
                      lambda row, C: None if row.error else replace(row, class_label=C.label),
                      G, classes, jobs)
    report = Report(command="survey", group_name=G.name, group_order=G.order, seed=seed,
                    columns=SURVEY_COLUMNS, rows=[r.cells() for r in rows],
                    warnings=_conjecture_warnings(G, classes, rows))
    if any(r.error is not None for r in rows):
        report.exit_code = 4
    return report


def _load_table(G: Group, char_table_path: str | None) -> CharTable:
    if char_table_path:
        with open(char_table_path, "r", encoding="utf-8") as fh:
            try:
                return CharTable.from_json(fh.read())
            except (ValueError, RecursionError) as exc:  # RecursionError: JSON nested too deep
                raise ValueError(f"{char_table_path}: not a valid character table: {exc}") from exc
    return character_table(G)


def cmd_decompose(group_spec: str, class_selector: str,
                  cap: int = DEFAULT_ELEMENT_CAP, matrix_cap: int = MATRIX_CAP,
                  char_table: str | None = None, seed: int = 0) -> Report:
    G = build_named_group(group_spec, cap=cap)
    C = resolve_class(G, class_selector)
    T = _load_table(G, char_table)
    K = killing_matrix(G, C, cap=matrix_cap)
    D = eigenspace_decomposition(K, T)
    findings = integrality_audit(D, T)
    columns = ["class", "eigenvalue", "dim", "irreps", "integral"]
    rows = []
    for e in D.entries:
        summands = " + ".join(f"{T.irrep_labels[i]}" for i, m in enumerate(e.mults)
                              for _ in range(m))
        rows.append([C.label, fmt_value(e.value, e.integral), str(e.dim),
                     summands, _fmt_bool(e.integral)])
    blocks = [f"decomposition: {D.render()}"]
    blocks.extend(f"audit: {f}" for f in findings)
    for e in D.entries:
        if e.integral and not e.certified:
            # the row keeps the float flag, so that reports stay byte-stable
            print(f"warning: {C.label} eigenvalue {e.value:.6f} is flagged integral, but "
                  f"{round(e.value)} is not an eigenvalue (exact rank)", file=sys.stderr)
    return Report(command="decompose", group_name=G.name, group_order=G.order,
                  seed=seed, columns=columns, rows=rows, blocks=blocks)


def cmd_casimir(group_spec: str, class_selector: str,
                cap: int = DEFAULT_ELEMENT_CAP, matrix_cap: int = MATRIX_CAP,
                seed: int = 0) -> Report:
    G = build_named_group(group_spec, cap=cap)
    C = resolve_class(G, class_selector)
    K = killing_matrix(G, C, cap=matrix_cap)
    try:
        expansion = casimir(K)
    except SingularMatrix as exc:
        raise SingularMatrix(
            f"class {C.label} of {G.name} has a degenerate Killing form; "
            f"the Casimir needs a nondegenerate one ({exc})") from exc
    columns = ["term", "coefficient"]
    rows = [["e", str(expansion.e_coeff)]]
    rows.extend([f"theta[{label}]", str(coef)]
                for label, coef in sorted(expansion.theta_coeffs.items()))
    return Report(command="casimir", group_name=G.name, group_order=G.order,
                  seed=seed, columns=columns, rows=rows,
                  blocks=[f"casimir: {expansion}"])


def cmd_spectrogram(group_spec: str, cap: int = DEFAULT_ELEMENT_CAP,
                    matrix_cap: int = MATRIX_CAP, jobs: int = 1, seed: int = 0) -> Report:
    G = build_named_group(group_spec, cap=cap)
    classes = nontrivial_classes(G)

    def one(C: ConjClass) -> list:
        try:
            K = killing_matrix(G, C, cap=matrix_cap)
            return [[C.label, fmt_value(e.value, e.integral), str(e.multiplicity)]
                    for e in K.spectrum()]
        except KillformError as exc:
            return [[C.label, f"ERROR({type(exc).__name__})", ""]]

    def relabel(chunk: list, C: ConjClass) -> list | None:
        return None if chunk[0][1].startswith("ERROR(") else [[C.label] + r[1:] for r in chunk]

    rows = [row for chunk in _per_class(one, relabel, G, classes, jobs) for row in chunk]
    report = Report(command="spectrogram", group_name=G.name, group_order=G.order,
                    seed=seed, columns=["class", "eigenvalue", "multiplicity"], rows=rows)
    if any(r[1].startswith("ERROR(") for r in rows):
        report.exit_code = 4
    return report


# ----------------------------------------------------------------- arg plumbing

def _positive_int(text: str) -> int:
    """An argparse type: an integer >= 1, so that bad input exits 2."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="killform",
        description="Killing forms of conjugacy-class calculi on finite groups.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, with_jobs=True):
        sp.add_argument("group", help='group spec: S5, A6, PSL(2,7), PSL(3,3), file:PATH')
        sp.add_argument("--format", "-f", choices=("csv", "json", "md"), default="md")
        sp.add_argument("--cap", type=_positive_int, default=DEFAULT_ELEMENT_CAP,
                        help="element cap for group enumeration")
        sp.add_argument("--matrix-cap", type=_positive_int, default=MATRIX_CAP,
                        help="dimension cap for class matrices")
        sp.add_argument("--seed", type=int, default=0,
                        help="seed for randomized rank certificates (recorded in the header)")
        if with_jobs:
            sp.add_argument("--jobs", type=_positive_int, default=1, help="parallel class workers")

    sp = sub.add_parser("survey", help="per-class analysis table")
    common(sp)
    sp = sub.add_parser("decompose", help="eigenspace-to-irreducibles decomposition of one class")
    common(sp, with_jobs=False)
    sp.add_argument("selector", help='class: label (2A), type (2,1,1), name (2-cycles), or rep ((1,2)(3,4))')
    sp.add_argument("--char-table", default=None, help="import a character table JSON instead of computing one")
    sp = sub.add_parser("casimir", help="Casimir element of one nondegenerate class form")
    common(sp, with_jobs=False)
    sp.add_argument("selector", help="class selector, as for decompose")
    sp = sub.add_parser("spectrogram", help="(class, eigenvalue, multiplicity) data rows")
    common(sp)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "survey":
            report = cmd_survey(args.group, cap=args.cap,
                                matrix_cap=args.matrix_cap, jobs=args.jobs, seed=args.seed)
        elif args.command == "decompose":
            report = cmd_decompose(args.group, args.selector, cap=args.cap,
                                   matrix_cap=args.matrix_cap, char_table=args.char_table,
                                   seed=args.seed)
        elif args.command == "casimir":
            report = cmd_casimir(args.group, args.selector, cap=args.cap,
                                 matrix_cap=args.matrix_cap, seed=args.seed)
        else:
            report = cmd_spectrogram(args.group, cap=args.cap,
                                     matrix_cap=args.matrix_cap, jobs=args.jobs, seed=args.seed)
    except (KillformError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(report.render(args.format))
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
