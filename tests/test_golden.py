"""Golden digests: every method's and every divisor spec's result and trace,
byte for byte.

Each digest is a sha256 over one JSON line per (id, y): the id, the year,
the raw value, the sign convention, the residue and the full trace as
`to_jsonable` writes it.  A change to any step's kind, wording, operands or
result changes the digest.  The pinned values were computed on the code
before the per-spec divisor plans and the C-level step constructor.

The traced-`dow` digest hashes one JSON line per (date, method, pipeline):
the date, the ids, the weekday number and the answer's trace as
`to_jsonable` writes it, so it pins the assembly's steps and wording too.
"""

import hashlib
import json

from ydow.arith import SignConvention
from ydow.dates import CivilDate, month_length
from ydow.divisor import BUILTIN_DIVISOR_SPECS, NotRepresentableError, derive_divisor_formula, eval_divisor
from ydow.pipeline import PipelineId, dow
from ydow.registry import METHODS

METHODS_DIGEST = "3e2069b050032981d60536bf11bbaebbc7515a3fe735a5986498bf66d8f7136a"
SPECS_DIGEST = "f6d80a6c22996b00a89b0605eea8d4dd7d347751229a06a75a9fc2d9750d100c"
DOW_DIGEST = "bd42e9c0921394759f3841ae15761ba97e9745dbb003e629b10c5c36ae52fe93"


def digest(rows) -> str:
    h = hashlib.sha256()
    for key, y, res in rows:
        line = [key, y, res.raw, res.convention.value, res.residue, res.trace.to_jsonable()]
        h.update(json.dumps(line).encode() + b"\n")
    return h.hexdigest()


def derivable_specs() -> list:
    specs = []
    for d in range(2, 29):
        for convention in SignConvention:
            try:
                specs.append(derive_divisor_formula(d, convention))
            except NotRepresentableError:
                pass
    return specs


def test_method_traces_match_the_golden_digest():
    rows = [(mid, y, desc.func(y)) for mid, desc in METHODS.items() for y in range(100)]
    assert len(rows) == 1400
    assert digest(rows) == METHODS_DIGEST


def test_divisor_traces_match_the_golden_digest():
    specs = derivable_specs()
    assert len(specs) == 40
    specs += BUILTIN_DIVISOR_SPECS.values()
    rows = [(repr(spec), y, eval_divisor(spec, y)) for spec in specs for y in range(100)]
    assert digest(rows) == SPECS_DIGEST


def test_dow_traces_match_the_golden_digest():
    dates = [CivilDate(y, m, d) for y in (2000, 2001, 2100, 2200, 2300) for m in range(1, 13)
             for d in (1, 15, month_length(y, m))]
    answers = [dow(date, mid, pipeline) for date in dates for mid in METHODS for pipeline in PipelineId]
    assert len(answers) == 5040
    h = hashlib.sha256()
    for res in answers:
        line = [str(res.date), res.method_id, res.pipeline.value, int(res.weekday), res.trace.to_jsonable()]
        h.update(json.dumps(line).encode() + b"\n")
    assert h.hexdigest() == DOW_DIGEST
