"""Guards on what the ``segfuse`` package exports and where it builds maps."""

import inspect
from pathlib import Path

import segfuse

from helpers import names_in, owners


def test_every_exported_function_is_named_by_another_module_or_a_criterion():
    # A public function that no other module of the package and no
    # acceptance criterion names serves no command and no claim: delete it
    # or give it a user.  Types are exempt.
    criteria = names_in(Path(__file__).parent / "test_acceptance.py")
    functions = {name: fn for name, fn in vars(segfuse).items() if inspect.isfunction(fn)}
    assert {"unify", "channel_fuse", "measure_teacher"} <= functions.keys()
    unused = [name for name, fn in functions.items()
              if name not in criteria
              and not {m for m, _ in owners({name})} - {"__init__", fn.__module__.split(".")[-1]}]
    assert unused == []


def test_probability_maps_are_built_only_from_the_members():
    # The student's probabilities leave distill only as student_blocks' row
    # blocks; a ProbMap holds the members' probabilities alone.
    assert owners({"ProbMap"}, calls=True) == [("distill", "average_fuse"), ("synth", "soften")]
