"""The artifact table: one entry per artifact module, run in the paper's order."""

import inspect
import json
from argparse import Namespace

import repro.eval
from repro import exp
from repro.__main__ import main
from repro.eval import ARTIFACTS

#: ``repro reproduce``'s artifacts, in the order it has always run them.
REPRODUCE_ORDER = [
    "Table 1", "Table 2", "Table 3", "Figure 2", "Figure 4", "Figure 5",
    "Figure 8", "Figure 9", "Sec 6.2", "Sec 5.3", "Transition matrix",
]


def test_artifact_table_has_one_entry_per_module_in_reproduce_order(
        capsys, tmp_path):
    modules = [name for name in repro.eval.__all__
               if inspect.ismodule(getattr(repro.eval, name))]
    assert sorted(entry.module for entry in ARTIFACTS) == sorted(modules)

    # each entry's spec name is its store directory
    options = Namespace(seed=0, runs=1, missions=2, requests=5, cell_size=2,
                        ftms=["pbr"], resources=["cpu"], factors=[4.0],
                        slo_ms=30.0)
    store = exp.ResultStore(tmp_path)
    for entry in ARTIFACTS:
        spec = entry.spec(options)
        assert spec.name == entry.name
        assert store.spec_dir(spec) == tmp_path / entry.name

    assert main(["reproduce", "--runs", "1", "--jobs", "1", "--no-store",
                 "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [a["title"] for a in report["artifacts"]] == REPRODUCE_ORDER
    assert [a["spec"] for a in report["artifacts"]] == [
        entry.name for entry in ARTIFACTS if entry.reproduce]
